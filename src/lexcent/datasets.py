"""Dataset registry and fetching.

The karate network ships inside the package; the other benchmark networks
are mapped to their upstream download locations and fetched on demand with
optional sha256 pinning (run ``lexcent fetch <name>``). Per-dataset default
infection rates follow the small/sparse -> 0.1, large/dense -> 0.01 rule and
can be overridden on the command line.
"""

from __future__ import annotations

import hashlib
import io
import zipfile
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .graph import Graph, _check_bool, load_edge_list


@dataclass(frozen=True)
class DatasetInfo:
    name: str
    url: str | None
    default_beta: float
    expected_nodes: int | None = None
    expected_edges: int | None = None
    sha256: str | None = None
    bundled: bool = False


REGISTRY: dict[str, DatasetInfo] = {
    "karate": DatasetInfo(
        name="karate",
        url=None,
        default_beta=0.1,
        expected_nodes=34,
        expected_edges=78,
        sha256="2d20ce508024b9419ab35ace89c7f22d96c797851472328b48be2008599f0878",
        bundled=True,
    ),
    "email-enron": DatasetInfo(
        name="email-enron",
        url="https://nrvis.com/download/data/ia/ia-enron-only.zip",
        default_beta=0.01,
        expected_nodes=143,
        expected_edges=623,
    ),
    "email-univ": DatasetInfo(
        name="email-univ",
        url="https://nrvis.com/download/data/email/email-univ.zip",
        default_beta=0.1,
        expected_nodes=1133,
        expected_edges=5452,
    ),
    "cs-phd": DatasetInfo(
        name="cs-phd",
        url="https://nrvis.com/download/data/ca/ca-CSphd.zip",
        default_beta=0.1,
        expected_nodes=1882,
        expected_edges=1740,
    ),
    "ia-reality": DatasetInfo(
        name="ia-reality",
        url="https://nrvis.com/download/data/ia/ia-reality.zip",
        default_beta=0.01,
        expected_nodes=6809,
        expected_edges=7680,
    ),
}

DEFAULT_DATA_DIR = Path("data")
FETCH_TIMEOUT_S = 60.0  # seconds a download may wait on the network


def bundled_path(name: str) -> Path:
    return Path(str(resources.files("lexcent").joinpath(f"data/{name}.txt")))


def dataset_path(name: str, data_dir: Path | str = DEFAULT_DATA_DIR) -> Path:
    """Where a dataset lives locally (bundled datasets resolve into the
    package, fetched ones into ``data_dir``); unknown names are a ValueError."""
    if _registered(name).bundled:
        return bundled_path(name)
    return Path(data_dir) / f"{name}.txt"


def _registered(name: str) -> DatasetInfo:
    """The registry entry of ``name``; a ValueError naming the known datasets
    if there is none."""
    if name not in REGISTRY:
        known = ", ".join(sorted(REGISTRY))
        raise ValueError(f"unknown dataset {name!r}; known datasets: {known}")
    return REGISTRY[name]


def _edge_list_from_mtx(text: str) -> str:
    """Convert MatrixMarket-ish coordinate text to a plain 2-column edge
    list: drop comment lines, the size header, and any weight column."""
    out_lines = []
    header_skipped = False
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith(("%", "#")):
            continue
        tokens = stripped.split()
        if not header_skipped and len(tokens) == 3:
            header_skipped = True  # "rows cols nnz" size line
            continue
        out_lines.append(f"{tokens[0]} {tokens[1]}")
    return "\n".join(out_lines) + "\n"


def _extract_edge_text(payload: bytes, url: str) -> str:
    if zipfile.is_zipfile(io.BytesIO(payload)):
        with zipfile.ZipFile(io.BytesIO(payload)) as zf:
            members = [m for m in zf.namelist() if not m.endswith("/")]
            if not members:
                raise ValueError(f"archive from {url} contains no files")
            member = max(members, key=lambda m: zf.getinfo(m).file_size)
            text = zf.read(member).decode("utf-8", errors="replace")
            name = member.lower()
        if name.endswith(".mtx"):
            return _edge_list_from_mtx(text)
        return text
    return payload.decode("utf-8", errors="replace")


def fetch(
    name: str,
    data_dir: Path | str = DEFAULT_DATA_DIR,
    force: bool = False,
) -> Path:
    """Download a registered dataset into ``data_dir`` as a plain edge list.

    Verifies the sha256 checksum when the registry pins one, and prints the
    computed checksum otherwise so it can be pinned. Raises on unknown
    datasets, download failure, or checksum mismatch.
    """
    _check_bool("force", force)
    info = _registered(name)
    target = dataset_path(name, data_dir)
    if info.bundled or (target.exists() and not force):
        return target
    # imported here, not at module top: it is the slowest import of the
    # package, and only a download needs it
    import urllib.request

    try:
        with urllib.request.urlopen(info.url, timeout=FETCH_TIMEOUT_S) as resp:
            payload = resp.read()
    except Exception as exc:
        raise RuntimeError(
            f"could not download {name} from {info.url}: {exc}; "
            f"place an edge list at {target} manually if downloads are blocked"
        ) from exc
    text = _extract_edge_text(payload, info.url)
    digest = hashlib.sha256(text.encode()).hexdigest()
    if info.sha256 is not None and digest != info.sha256:
        raise RuntimeError(
            f"checksum mismatch for {name}: expected {info.sha256}, got {digest}"
        )
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(text)
    if info.sha256 is None:
        print(f"{name}: downloaded, sha256={digest} (unpinned)")
    return target


def load_dataset(name: str, data_dir: Path | str = DEFAULT_DATA_DIR) -> Graph:
    """Load a registered dataset from disk (bundled or previously fetched)."""
    path = dataset_path(name, data_dir)
    if not path.exists():
        raise FileNotFoundError(
            f"dataset {name!r} not found at {path}; run 'lexcent fetch {name}' first"
        )
    with path.open() as stream:
        return load_edge_list(stream, relabel=True)


def default_beta(name: str) -> float | None:
    info = REGISTRY.get(name)
    return info.default_beta if info else None
