"""Lexical sorting centrality (LSC): build the per-node matrix of rounded
centrality values and order nodes by descending lexicographic comparison of
their value tuples, most influential first.

Rounded values are carried both as floats (for display/serialization) and as
exact scaled integers (value * 10^precision), and all comparisons use the
integers so the sort key is immune to binary floating-point artifacts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from decimal import ROUND_DOWN, ROUND_HALF_EVEN, Decimal
from typing import IO, Sequence

import numpy as np

from .centrality import CentralityVector, compute_centrality
from .graph import Graph

ROUND_HALF_EVEN_MODE = "half_even"
ROUND_TRUNCATE_MODE = "truncate"
ROUNDING_MODES = (ROUND_HALF_EVEN_MODE, ROUND_TRUNCATE_MODE)

DEFAULT_MEASURE_ORDER = ("DC", "EC", "CC")
DEFAULT_PRECISION = 5


@dataclass(frozen=True)
class RankingMatrix:
    """values[i] is node i's tuple of rounded centrality values in
    measure_order; scaled[i] are the same values as exact integers at
    10^precision."""

    values: np.ndarray
    scaled: np.ndarray
    measure_order: tuple[str, ...]
    precision: int
    rounding: str

    def row(self, position: int) -> tuple[float, ...]:
        return tuple(self.values[position])


@dataclass(frozen=True)
class NodeRanking:
    """Node ids ordered most influential first."""

    ordered_nodes: tuple[int, ...]
    source: str
    params: dict = field(default_factory=dict)


def _scaled_int(value: float, precision: int, rounding: str) -> int:
    mode = ROUND_DOWN if rounding == ROUND_TRUNCATE_MODE else ROUND_HALF_EVEN
    return int(Decimal(repr(float(value))).scaleb(precision).to_integral_value(mode))


def build_ranking_matrix(
    vectors: Sequence[CentralityVector],
    precision: int = DEFAULT_PRECISION,
    rounding: str = ROUND_HALF_EVEN_MODE,
) -> RankingMatrix:
    """Round each measure's scores to ``precision`` decimal places and stack
    them into one row per node, columns in the given vector order.

    Rounding is decimal (via the values' shortest decimal representation):
    half-to-even by default, or plain truncation toward zero. A score whose
    scaled integer does not fit int64 is a ValueError naming the measure.
    """
    if not vectors:
        raise ValueError("at least one centrality vector is required")
    if rounding not in ROUNDING_MODES:
        raise ValueError(f"unknown rounding mode {rounding!r}")
    if not 0 <= precision <= 15:
        raise ValueError("precision must be between 0 and 15 decimal places")
    n = len(vectors[0].scores)
    for vec in vectors:
        if len(vec.scores) != n:
            raise ValueError(
                f"score length mismatch: {vec.measure} has {len(vec.scores)}, expected {n}"
            )
    scaled = np.empty((n, len(vectors)), dtype=np.int64)
    for col, vec in enumerate(vectors):
        column = [_scaled_int(v, precision, rounding) for v in vec.scores]
        try:
            scaled[:, col] = column
        except OverflowError:
            worst = max(column, key=abs)
            value = float(vec.scores[column.index(worst)])
            raise ValueError(
                f"{vec.measure} score {value!r} at precision {precision} scales to "
                f"{worst}, outside the int64 range of the ranking matrix; use a lower "
                "precision"
            ) from None
    values = scaled.astype(np.float64) / 10.0**precision
    return RankingMatrix(
        values=values,
        scaled=scaled,
        measure_order=tuple(vec.measure for vec in vectors),
        precision=precision,
        rounding=rounding,
    )


def lexical_sort(rm: RankingMatrix) -> NodeRanking:
    """Order rows by descending lexicographic comparison of their value
    tuples: the first measure dominates, ties fall through to the next, and
    rows with fully identical tuples keep their input order.
    """
    # np.lexsort is stable and sorts by its LAST key first, so feed columns
    # reversed and negated (descending)
    keys = tuple(-rm.scaled[:, col] for col in reversed(range(rm.scaled.shape[1])))
    order = np.lexsort(keys)
    return NodeRanking(
        ordered_nodes=tuple(order.tolist()),
        source="LSC",
        params={
            "measure_order": list(rm.measure_order),
            "precision": rm.precision,
            "rounding": rm.rounding,
        },
    )


def lsc(
    g: Graph,
    precision: int = DEFAULT_PRECISION,
    measure_order: Sequence[str] = DEFAULT_MEASURE_ORDER,
    rounding: str = ROUND_HALF_EVEN_MODE,
    **measure_settings,
) -> NodeRanking:
    """Full lexical-sorting-centrality ranking of a graph.

    Computes each measure in ``measure_order`` (DC, EC, CC by default),
    rounds to ``precision`` decimal places, and lexically sorts. Extra
    keyword settings are passed through to the measure implementations
    (cc_convention, ec_tol, ec_max_iter, gc_radius, gc_exponent, ...).
    """
    if g.node_count < 2:
        raise ValueError("lsc requires at least 2 nodes")
    vectors = [compute_centrality(g, tag, **measure_settings) for tag in measure_order]
    rm = build_ranking_matrix(vectors, precision=precision, rounding=rounding)
    ranking = lexical_sort(rm)
    sub_params = {vec.measure: dict(vec.params) for vec in vectors}
    params = dict(ranking.params)
    params["measures"] = sub_params
    return NodeRanking(ranking.ordered_nodes, "LSC", params)


def ranking_from_scores(scores: Sequence[float], source: str) -> NodeRanking:
    """Rank nodes by descending score; ties broken by ascending node id."""
    arr = np.asarray(scores, dtype=np.float64)
    order = np.lexsort((np.arange(len(arr)), -arr))
    return NodeRanking(tuple(int(i) for i in order), source)


def write_ranking_csv(ranking: NodeRanking, stream: IO[str]) -> None:
    """CSV with header rank,node (rank 0 = most influential)."""
    stream.write("rank,node\n")
    for rank, node in enumerate(ranking.ordered_nodes):
        stream.write(f"{rank},{node}\n")


def ranking_to_json(ranking: NodeRanking) -> str:
    return json.dumps(
        {
            "source": ranking.source,
            "ordered_nodes": list(ranking.ordered_nodes),
            "params": ranking.params,
        },
        sort_keys=True,
    )


def write_ranking_matrix_csv(rm: RankingMatrix, stream: IO[str]) -> None:
    """Audit dump: node plus one column per measure, rounded values."""
    stream.write("node," + ",".join(rm.measure_order) + "\n")
    for node, values in enumerate(rm.values):
        row = ",".join(f"{v:.{rm.precision}f}" for v in values)
        stream.write(f"{node},{row}\n")
