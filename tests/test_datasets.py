import hashlib
import io
import os
import subprocess
import sys
import zipfile
from pathlib import Path

import pytest

from lexcent import datasets
from lexcent.datasets import DatasetInfo, dataset_path, default_beta, fetch, load_dataset


def test_karate_is_bundled():
    g = load_dataset("karate")
    assert g.node_count == 34
    assert g.edge_count == 78


def test_registry_covers_all_benchmark_networks():
    assert set(datasets.REGISTRY) == {
        "karate",
        "email-enron",
        "email-univ",
        "cs-phd",
        "ia-reality",
    }
    assert default_beta("karate") == 0.1
    assert default_beta("ia-reality") == 0.01
    assert default_beta("nope") is None


def test_fetch_unknown_dataset():
    with pytest.raises(ValueError, match="unknown dataset"):
        fetch("not-a-dataset")


def test_load_unknown_dataset_names_the_registry(tmp_path):
    with pytest.raises(ValueError, match="unknown dataset 'nosuch'; known datasets: .*karate"):
        load_dataset("nosuch", tmp_path)


def test_load_missing_dataset_mentions_fetch(tmp_path):
    with pytest.raises(FileNotFoundError, match="fetch"):
        load_dataset("cs-phd", tmp_path)


def _register(monkeypatch, name, url, sha256=None):
    monkeypatch.setitem(
        datasets.REGISTRY,
        name,
        DatasetInfo(name=name, url=url, default_beta=0.1, sha256=sha256),
    )


def test_fetch_plain_text_via_file_url(tmp_path, monkeypatch):
    source = tmp_path / "src.txt"
    source.write_text("0 1\n1 2\n")
    _register(monkeypatch, "tiny", source.as_uri())
    target = fetch("tiny", tmp_path / "data")
    g = load_dataset("tiny", tmp_path / "data")
    assert target.exists()
    assert g.edge_count == 2


def test_fetch_zip_with_mtx_conversion(tmp_path, monkeypatch):
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as zf:
        zf.writestr("net.mtx", "%%MatrixMarket matrix coordinate\n3 3 2\n1 2 1.5\n2 3 2.0\n")
    archive = tmp_path / "net.zip"
    archive.write_bytes(buf.getvalue())
    _register(monkeypatch, "mtxnet", archive.as_uri())
    fetch("mtxnet", tmp_path / "data")
    g = load_dataset("mtxnet", tmp_path / "data")
    assert g.node_count == 3  # labels 1..3 relabeled to 0..2
    assert g.edge_count == 2


def test_fetch_checksum_mismatch(tmp_path, monkeypatch):
    source = tmp_path / "src.txt"
    source.write_text("0 1\n")
    _register(monkeypatch, "pinned", source.as_uri(), sha256="0" * 64)
    with pytest.raises(RuntimeError, match="checksum mismatch"):
        fetch("pinned", tmp_path / "data")


def test_fetch_checksum_match(tmp_path, monkeypatch):
    text = "0 1\n"
    digest = hashlib.sha256(text.encode()).hexdigest()
    source = tmp_path / "src.txt"
    source.write_text(text)
    _register(monkeypatch, "pinned2", source.as_uri(), sha256=digest)
    assert fetch("pinned2", tmp_path / "data").read_text() == text


def test_fetch_skips_existing_file(tmp_path, monkeypatch):
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    (data_dir / "cached.txt").write_text("0 1\n")
    _register(monkeypatch, "cached", (tmp_path / "missing.txt").as_uri())
    # no download attempt: the cached file satisfies the request
    assert fetch("cached", data_dir).read_text() == "0 1\n"


def test_dataset_path_bundled_vs_fetched(tmp_path):
    assert dataset_path("karate").name == "karate.txt"
    assert dataset_path("cs-phd", tmp_path) == tmp_path / "cs-phd.txt"


def test_dataset_path_rejects_unknown_names(tmp_path):
    with pytest.raises(ValueError, match="unknown dataset 'nosuch'; known datasets: .*karate"):
        dataset_path("nosuch", tmp_path)


def test_importing_the_cli_does_not_import_urllib_request():
    # only a download needs urllib.request, and every command would pay for it
    src = Path(datasets.__file__).resolve().parents[1]
    code = "import sys, lexcent.cli; print('urllib.request' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(src)}
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"
