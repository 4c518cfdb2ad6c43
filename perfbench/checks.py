"""Output checks for the benchmark workloads.

Each check holds for any correct implementation of the command, not just for
today's bytes: the SIR estimator may change (a declared change of estimator
legitimately moves the samples), so the checks test the relations between
the output files rather than their digests. A failed check raises
CheckError. The checks import lexcent from the checkout under test.
"""

from __future__ import annotations

import csv
import json
import math
import re
from pathlib import Path

import numpy as np

EVAL_TAGS = ("DC", "EC", "CC", "BC", "GC", "LSC")
EVAL_FILES = (
    "run_config.json",
    "eval_report.json",
    "eval_report.csv",
    "sir_scores.csv",
    "inversions.csv",
    *(f"rank_vs_score_{t.lower()}.csv" for t in EVAL_TAGS),
)


class CheckError(Exception):
    """An output of the benchmarked command is wrong."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def _rows(path: Path, header: list[str]) -> list[list[str]]:
    _require(path.is_file(), f"missing output {path.name}")
    with open(path, newline="") as stream:
        rows = list(csv.reader(stream))
    _require(bool(rows) and rows[0] == header, f"{path.name}: header is not {header}")
    return rows[1:]


def sir_means(out: Path, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(mean, std) per node from sir_scores.csv, which must list nodes 0..n-1."""
    rows = _rows(out / "sir_scores.csv", ["node", "mean_score", "std"])
    _require([int(r[0]) for r in rows] == list(range(n)),
             f"sir_scores.csv does not list nodes 0..{n - 1} in order")
    return (np.array([float(r[1]) for r in rows]), np.array([float(r[2]) for r in rows]))


def _truth_top(means: np.ndarray, k: int) -> set[int]:
    order = np.lexsort((np.arange(means.size), -means))
    return {int(i) for i in order[:k]}


def check_evaluate(out: Path, n: int) -> None:
    """`lexcent evaluate`: files present, rankings are permutations, and the
    report's overlaps, LSC tau and inversion counts follow from the series."""
    from lexcent import kendall_tau_pairwise

    for name in EVAL_FILES:
        _require((out / name).is_file(), f"missing output {name}")
    report = json.loads((out / "eval_report.json").read_text())
    _require(report["node_count"] == n, f"eval_report node_count {report['node_count']} != {n}")
    means, _ = sir_means(out, n)
    k = int(n * report["x_percent"] / 100.0)
    truth = _truth_top(means, k)
    inversions = {
        r[0]: int(r[1])
        for r in _rows(out / "inversions.csv", ["measure", "adjacent_inversions"])
    }
    for tag in EVAL_TAGS:
        rows = _rows(out / f"rank_vs_score_{tag.lower()}.csv", ["index", "node", "score"])
        nodes = [int(r[1]) for r in rows]
        scores = [float(r[2]) for r in rows]
        _require([int(r[0]) for r in rows] == list(range(n)),
                 f"{tag}: series index is not 0..{n - 1}")
        _require(sorted(nodes) == list(range(n)), f"{tag}: ranking is not a permutation")
        _require(all(scores[i] == means[v] for i, v in enumerate(nodes)),
                 f"{tag}: series scores differ from sir_scores.csv")
        row = report["measures"][tag]
        _require(row["top_x_k"] == k, f"{tag}: top_x_k {row['top_x_k']} != {k}")
        overlap = len(set(nodes[:k]) & truth)
        _require(row["top_x_overlap"] == overlap,
                 f"{tag}: report overlap {row['top_x_overlap']} != recomputed {overlap}")
        steps_up = sum(1 for a, b in zip(scores, scores[1:]) if b > a)
        _require(inversions.get(tag) == steps_up,
                 f"{tag}: inversions.csv {inversions.get(tag)} != series {steps_up}")
        if tag == "LSC":
            values = np.empty(n)
            values[nodes] = -np.arange(n, dtype=np.float64)
            tau = kendall_tau_pairwise(values.tolist(), means.tolist(), report["tau_variant"])
            _require(math.isclose(row["tau"], tau, rel_tol=1e-12, abs_tol=1e-12),
                     f"LSC: report tau {row['tau']} != pairwise {tau}")


def check_groundtruth(out: Path, graph) -> None:
    """`lexcent sir` scores: n rows, 1 <= mean <= the node's component size,
    std >= 0."""
    from lexcent import connected_components

    labels, sizes = connected_components(graph)
    component_size = np.asarray(sizes)[labels]
    means, stds = sir_means(out, graph.node_count)
    _require(bool(np.all(means >= 1.0)), "a mean spreading score is below 1")
    _require(bool(np.all(means <= component_size)),
             "a mean spreading score exceeds its node's component size")
    _require(bool(np.all(stds >= 0.0)), "a spreading-score std is negative")


SEEDS_LINE = re.compile(r"wrote spread curve for seeds \[([0-9, ]*)\]")


def lsc_top(graph, top: int) -> list[int]:
    """The first `top` nodes of LSC: ranking-matrix rows sorted descending,
    stably, so fully tied rows keep node order. The matrix is built with the
    public compute_centrality and build_ranking_matrix."""
    from lexcent import build_ranking_matrix, compute_centrality
    from lexcent.ranking import DEFAULT_MEASURE_ORDER

    vectors = [compute_centrality(graph, tag) for tag in DEFAULT_MEASURE_ORDER]
    rows = build_ranking_matrix(vectors).scaled.tolist()
    order = sorted(range(graph.node_count), key=lambda i: [-v for v in rows[i]])
    return order[:top]


def check_curve(out: Path, stdout: str, graph, steps: int, top: int,
                expected_seeds: list[int]) -> None:
    """`lexcent sir --seeds-from lsc`: the seeds are LSC's top nodes and the
    mean cumulative curve has steps+1 rows, starts at the seed count and never
    decreases."""
    match = SEEDS_LINE.search(stdout)
    _require(match is not None, "stdout does not name the seed nodes")
    seeds = [int(t) for t in match.group(1).split(",")]
    _require(seeds == expected_seeds,
             f"seeds {seeds} are not the LSC top {top} {expected_seeds}")
    rows = _rows(out / "sir_curve_lsc.csv", ["t", "mean_cumulative_infected"])
    _require([int(r[0]) for r in rows] == list(range(steps + 1)),
             f"curve does not have steps 0..{steps}")
    curve = [float(r[1]) for r in rows]
    _require(curve[0] == top, f"curve starts at {curve[0]}, not {top}")
    _require(all(b >= a for a, b in zip(curve, curve[1:])), "curve decreases")
    _require(curve[-1] <= graph.node_count, "curve exceeds the node count")


def same_outputs(a: Path, b: Path) -> bool:
    """Whether two output directories hold the same files with the same bytes,
    apart from output_dir in run_config.json."""
    names = sorted(p.name for p in a.iterdir())
    if names != sorted(p.name for p in b.iterdir()):
        return False
    for name in names:
        left, right = (a / name).read_bytes(), (b / name).read_bytes()
        if name == "run_config.json":
            left, right = (
                {k: v for k, v in json.loads(side).items() if k != "output_dir"}
                for side in (left, right)
            )
        if left != right:
            return False
    return True
