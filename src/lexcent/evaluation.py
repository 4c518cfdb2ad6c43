"""Compare centrality rankings against SIR ground truth: Kendall tau,
top-x% overlap, rank-vs-score series, and the LSC-vs-GC runtime benchmark.
"""

from __future__ import annotations

import math
import platform
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Sequence

import numpy as np

from .centrality import MEASURES, _check_betweenness, _MeasureSettings, compute_centrality
from .graph import Graph, _check_int, _check_real
from .ranking import (
    DEFAULT_MEASURE_ORDER,
    DEFAULT_PRECISION,
    ROUND_HALF_EVEN_MODE,
    NodeRanking,
    _check_measure_order,
    _check_rounding,
    build_ranking_matrix,
    lexical_sort,
    lsc,
    ranking_from_scores,
)
from .sir import SirParams, score_all_nodes

EVAL_MEASURES = ("DC", "EC", "CC", "BC", "GC", "LSC")
_TAU_VARIANTS = ("a", "b")
DEFAULT_TAU_VARIANT = "a"
DEFAULT_X_PERCENT = 5.0
DEFAULT_REPETITIONS = 1


def _tie_pairs(new_run: np.ndarray) -> int:
    """Pairs of equal entries in a sorted list; new_run[i]: entry i + 1 starts a run."""
    runs = np.diff(np.flatnonzero(np.r_[True, new_run, True]))
    return int((runs * (runs - 1) // 2).sum())


def _count_inversions(ranks: np.ndarray) -> tuple[int, np.ndarray]:
    """Pairs i < j with ranks[i] > ranks[j] (int64 ranks in [0, n)), and the
    ranks sorted, by bottom-up merging."""
    n = ranks.size
    index = np.arange(n)
    inversions, width = 0, 1
    while width < n:
        # block pair p in band [p n, (p + 1) n) makes all left blocks one sorted
        # array; a right entry's larger partners end at (p + 1) * width in it
        pair = index // (2 * width)
        keys = ranks + pair * n
        right = index % (2 * width) >= width
        below = np.searchsorted(keys[~right], keys[right], side="right")
        inversions += int(((pair[right] + 1) * width - below).sum())
        keys.sort()
        ranks = keys - pair * n
        width *= 2
    return inversions, ranks


def _tau_from_counts(numerator: int, pairs: int, ties_a: int, ties_b: int, variant: str) -> float:
    if variant == "a":
        return numerator / pairs
    denom = math.sqrt((pairs - ties_a) * (pairs - ties_b))
    return numerator / denom if denom else math.nan


def _check_tau_variant(variant: str) -> None:
    if variant not in _TAU_VARIANTS:
        raise ValueError(f"unknown tau variant {variant!r}")


def _validate_tau_inputs(a: Sequence[float], b: Sequence[float], variant: str) -> int:
    _check_tau_variant(variant)
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    if len(a) < 2:
        raise ValueError("kendall tau requires at least 2 items")
    for name, values in (("a", a), ("b", b)):
        if np.isnan(np.asarray(values, dtype=float)).any():
            raise ValueError(f"kendall tau: {name} contains NaN")
    return len(a)


def kendall_tau(
    a: Sequence[float], b: Sequence[float], variant: str = DEFAULT_TAU_VARIANT
) -> float:
    """Kendall rank correlation via merge-count, O(N log N) (Knight 1966).

    A pair of indices is concordant when both lists order it the same strict
    way, discordant when opposite, and neither when tied in either list.
    Variant "a" divides (concordant - discordant) by N(N-1)/2, so ties shrink
    |tau|; variant "b" rescales by the tie-corrected denominator (NaN when
    either list is constant). A NaN in either list is a ValueError.
    """
    n = _validate_tau_inputs(a, b, variant)
    pairs = n * (n - 1) // 2
    # sorting secondarily by b puts tied-a runs in ascending b order, so the
    # inversion count below never charges a pair that is tied in a
    order = np.lexsort((b, a))
    a, b = np.asarray(a)[order], np.asarray(b)[order]
    new_a = a[1:] != a[:-1]
    ties_a, ties_both = _tie_pairs(new_a), _tie_pairs(new_a | (b[1:] != b[:-1]))
    # equal values share a rank: the index of their first copy in sorted b
    discordant, ranks = _count_inversions(np.searchsorted(np.sort(b), b))
    ties_b = _tie_pairs(ranks[1:] != ranks[:-1])
    concordant = pairs - ties_a - ties_b + ties_both - discordant
    return _tau_from_counts(concordant - discordant, pairs, ties_a, ties_b, variant)


def kendall_tau_pairwise(
    a: Sequence[float], b: Sequence[float], variant: str = DEFAULT_TAU_VARIANT
) -> float:
    """Reference O(N^2) Kendall tau; must agree exactly with kendall_tau."""
    n = _validate_tau_inputs(a, b, variant)
    pairs = n * (n - 1) // 2
    # sign(a_i - a_j) * sign(b_i - b_j) is +1 for a concordant pair, -1 for a
    # discordant one and 0 for a tie
    numerator = ties_a = ties_b = 0
    for i in range(n):
        for j in range(i + 1, n):
            # int() first: numpy bools (array inputs) do not subtract
            da = int(a[i] > a[j]) - int(a[i] < a[j])
            db = int(b[i] > b[j]) - int(b[i] < b[j])
            ties_a += da == 0
            ties_b += db == 0
            numerator += da * db
    return _tau_from_counts(numerator, pairs, ties_a, ties_b, variant)


def _check_x_percent(x_percent: float) -> None:
    _check_real("x_percent", x_percent, 0, 100)


def top_x_size(node_count: int, x_percent: float) -> int:
    """k = floor(n * x_percent / 100), the size of a top-x% set, exact for
    x_percent's shortest decimal (18.4 is 184/10); an error unless k >= 1."""
    _check_x_percent(x_percent)
    # repr gives the shortest decimal, as "18.4", "100.0" or "1e-05"; for x in
    # (0, 100] its exponent is never positive, so the denominator is a power of 10
    mantissa, _, exponent = repr(float(x_percent)).partition("e")
    whole, _, fraction = mantissa.partition(".")
    num, den = int(whole + fraction), 10 ** (len(fraction) - int(exponent or 0))
    k = int(node_count) * num // (100 * den)
    if k == 0:
        raise ValueError(f"x_percent={x_percent} selects 0 of {node_count} nodes")
    return k


def top_x_overlap(
    ranking: NodeRanking, scores: Sequence[float], x_percent: float
) -> tuple[int, int]:
    """Overlap between the ranking's top k and the top k nodes by score,
    where k = top_x_size(n, x_percent).

    The top k by score are ranking_from_scores' first k (ties go to the
    lower node id). Returns (overlap, k).
    """
    arr = np.asarray(scores, dtype=np.float64)
    n = arr.size
    if n != len(ranking.ordered_nodes):
        raise ValueError("ranking and scores cover different node counts")
    k = top_x_size(n, x_percent)
    truth = set(ranking_from_scores(arr, "SIR").ordered_nodes[:k])
    return len(truth.intersection(ranking.ordered_nodes[:k])), k


def rank_vs_score_series(
    ranking: NodeRanking, scores: Sequence[float]
) -> tuple[np.ndarray, int]:
    """Scores reordered by ranking position, for plotting.

    Returns (series, adjacent_inversions) where series[i] is the score of the
    node ranked i (float64) and adjacent_inversions counts positions where
    the score strictly increases from one rank to the next (0 for a perfect
    ranking).
    """
    arr = np.asarray(scores, dtype=np.float64)
    if arr.size != len(ranking.ordered_nodes):
        raise ValueError("ranking and scores cover different node counts")
    series = arr[np.array(ranking.ordered_nodes, dtype=np.intp)]
    return series, int(np.count_nonzero(series[1:] > series[:-1]))


@dataclass(frozen=True)
class BenchmarkResult:
    mean_seconds: dict[str, float]
    runs_seconds: dict[str, list[float]]
    repetitions: int
    metadata: dict


def _check_repetitions(repetitions: int) -> None:
    _check_int("repetitions", repetitions, 1)


def benchmark_runtime(
    g: Graph,
    measures: Sequence[str],
    repetitions: int = DEFAULT_REPETITIONS,
    precision: int = DEFAULT_PRECISION,
    measure_order: Sequence[str] = DEFAULT_MEASURE_ORDER,
    rounding: str = ROUND_HALF_EVEN_MODE,
    **measure_settings,
) -> BenchmarkResult:
    """Mean wall-clock seconds per measure over ``repetitions`` runs.

    Runs strictly serially; one untimed warmup run per measure is discarded
    first. LSC timings include the measures the sort reads (a later measure
    only for the nodes the earlier ones leave tied), the rounding of the
    values it reads, and the sort.
    """
    _check_repetitions(repetitions)
    runs: dict[str, list[float]] = {}
    for tag in (t.upper() for t in measures):
        if tag == "LSC":
            fn = partial(lsc, g, precision, measure_order, rounding, **measure_settings)
        else:
            fn = partial(compute_centrality, g, tag, **measure_settings)
        fn()  # cold-cache warmup, discarded
        timings = []
        for _ in range(repetitions):
            start = time.perf_counter()
            fn()
            timings.append(time.perf_counter() - start)
        runs[tag] = timings
    means = {tag: sum(ts) / len(ts) for tag, ts in runs.items()}
    metadata = {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "node_count": g.node_count,
        "edge_count": g.edge_count,
    }
    return BenchmarkResult(means, runs, repetitions, metadata)


@dataclass(frozen=True)
class EvalReport:
    """Per-measure agreement with SIR ground truth: measures[tag] holds the
    measure's tau, top_x_overlap and top_x_k, scored from the rankings and
    from every node's mean SIR score (ground_truth) and its std."""

    measures: dict[str, dict]
    rankings: dict[str, NodeRanking] = field(repr=False)
    ground_truth: np.ndarray = field(repr=False)
    ground_truth_std: np.ndarray = field(repr=False)


def lsc_rank_values(ranking: NodeRanking) -> np.ndarray:
    """Per-node comparison values for an order-only ranking: the negated rank
    position, so larger means more influential (usable directly in tau)."""
    return -np.argsort(ranking.ordered_nodes).astype(np.float64)


def evaluate_dataset(
    g: Graph,
    params: SirParams,
    x_percent: float = DEFAULT_X_PERCENT,
    tau_variant: str = DEFAULT_TAU_VARIANT,
    precision: int = DEFAULT_PRECISION,
    measure_order: Sequence[str] = DEFAULT_MEASURE_ORDER,
    rounding: str = ROUND_HALF_EVEN_MODE,
    **measure_settings,
) -> EvalReport:
    """Full ranking-evaluation pipeline for one graph.

    Computes the five competitor centralities once each, builds LSC from the
    vectors in ``measure_order``, computes Monte-Carlo SIR spreading scores
    for every node, and per measure: Kendall tau between the measure's values
    and the SIR scores (LSC contributes negated rank positions), and the
    top-x% overlap against the SIR top-k. Every setting, an empty top-x set
    and a graph of fewer than 2 nodes (3 while bc_normalized) are rejected
    before any centrality or SIR work. The report holds the six rankings
    and score_all_nodes' means and stds.
    """
    _check_tau_variant(tau_variant)
    _check_rounding(precision, rounding)
    _check_measure_order(measure_order)
    settings = _MeasureSettings(**measure_settings)
    if g.node_count < 2:
        raise ValueError("evaluation requires at least 2 nodes")
    _check_betweenness(g, settings.bc_normalized)
    top_x_size(g.node_count, x_percent)
    vectors = {tag: compute_centrality(g, tag, **measure_settings) for tag in MEASURES}
    ground_truth, ground_truth_std = score_all_nodes(g, params)
    rankings = {tag: ranking_from_scores(vec.scores, tag) for tag, vec in vectors.items()}
    rm = build_ranking_matrix(
        [vectors[tag.upper()] for tag in measure_order], precision, rounding
    )
    rankings["LSC"] = lexical_sort(rm)
    report_rows: dict[str, dict] = {}
    for tag, ranking in rankings.items():
        values = lsc_rank_values(ranking) if tag == "LSC" else vectors[tag].scores
        tau = kendall_tau(values, ground_truth, tau_variant)
        overlap, k = top_x_overlap(ranking, ground_truth, x_percent)
        report_rows[tag] = {"tau": tau, "top_x_overlap": overlap, "top_x_k": k}
    return EvalReport(report_rows, rankings, ground_truth, ground_truth_std)
