"""Lexical sorting centrality (LSC): build the per-node matrix of rounded
centrality values and order nodes by descending lexicographic comparison of
their value tuples, most influential first.

Rounded values are carried only as exact scaled integers (value *
10^precision), so the sort key is immune to binary floating-point artifacts.
A value is rounded as its shortest decimal representation is: one float64
pass scales and rounds every value, and the few that land too near a
rounding boundary for float64 to decide are rounded exactly in Decimal
(which is imported only then).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .centrality import CentralityVector, _check_measure, _scores_reader
from .graph import Graph, _check_int

ROUND_HALF_EVEN_MODE = "half_even"
ROUND_TRUNCATE_MODE = "truncate"
ROUNDING_MODES = (ROUND_HALF_EVEN_MODE, ROUND_TRUNCATE_MODE)

DEFAULT_MEASURE_ORDER = ("DC", "EC", "CC")
DEFAULT_PRECISION = 5


@dataclass(frozen=True)
class RankingMatrix:
    """scaled[i] is node i's tuple of rounded centrality values in
    measure_order, as exact integers at 10^precision."""

    scaled: np.ndarray
    measure_order: tuple[str, ...]
    precision: int
    rounding: str


@dataclass(frozen=True)
class NodeRanking:
    """Node ids ordered most influential first."""

    ordered_nodes: tuple[int, ...]
    source: str
    params: dict = field(default_factory=dict)


def _scaled_int(value: float, precision: int, rounding: str) -> int:
    """The exact rounded value of value's shortest decimal times
    10^precision."""
    import decimal  # only values near a rounding boundary come here

    mode = decimal.ROUND_DOWN if rounding == ROUND_TRUNCATE_MODE else decimal.ROUND_HALF_EVEN
    return int(decimal.Decimal(repr(float(value))).scaleb(precision).to_integral_value(mode))


def _check_rounding(precision: int, rounding: str) -> int:
    """The precision as a Python int, once the rounding mode is known and
    the precision is an integer number of decimal places in 0..15."""
    if rounding not in ROUNDING_MODES:
        raise ValueError(f"unknown rounding mode {rounding!r}")
    _check_int("precision", precision, 0, 15)
    return int(precision)


def _check_measure_order(measure_order: Sequence[str]) -> list[str]:
    """The order's tags, upper-cased; anything but a list or tuple of
    strings, an empty order, an unknown measure or one named twice
    (case-insensitively) is a ValueError, and the message names a measure
    by its upper-cased tag."""
    if not isinstance(measure_order, (list, tuple)) or not all(
        isinstance(tag, str) for tag in measure_order
    ):
        raise ValueError(f"measure_order must be a list of measures, got {measure_order!r}")
    if not measure_order:
        raise ValueError("at least one centrality measure is required")
    tags = [_check_measure(tag.upper()) for tag in measure_order]
    repeated = [tag for i, tag in enumerate(tags) if tag in tags[:i]]
    if repeated:
        raise ValueError(f"measure {repeated[0]!r} is repeated in the measure order")
    return tags


def _check_top(top: int) -> None:
    _check_int("top", top, 1)


def _scaled_column(scores, measure: str, precision: int, rounding: str) -> np.ndarray:
    """Each score as the exact int64 of its rounded value times
    10^precision, as _scaled_int gives it; a scaled value beyond int64 is a
    ValueError naming the measure.

    y = x * 10^precision in float64 lies within 1.5 ulp of x's shortest
    decimal times 10^precision (x is within half an ulp of that decimal, and
    the product adds half an ulp of y), so float64 rounds y as Decimal would
    unless a rounding boundary (k + 1/2 for half-even, k for truncation) lies
    within 4 ulp of y. Those values, the non-finite ones and those with
    |y| >= 2^53 go to _scaled_int. x = 0 is exact and never does.
    """
    x = np.asarray(scores, dtype=np.float64)
    with np.errstate(invalid="ignore", over="ignore"):
        y = x * 10.0**precision
        size = np.abs(y)
        nearest = np.rint(y)
        off = np.abs(y - nearest)
        margin = 4 * np.spacing(size)
        if rounding == ROUND_TRUNCATE_MODE:
            scaled = np.trunc(y)
            unsure = (off <= margin) & (y != 0)
        else:
            scaled = nearest
            unsure = np.abs(off - 0.5) <= margin
        unsure |= ~(size < 2.0**53)  # NaN compares false
        column = scaled.astype(np.int64)
    exact = np.flatnonzero(unsure)
    fallback = [_scaled_int(v, precision, rounding) for v in x[exact]]
    try:
        column[exact] = np.array(fallback, dtype=np.int64)
    except OverflowError:
        worst = max(fallback, key=abs)
        value = float(x[exact[fallback.index(worst)]])
        raise ValueError(
            f"{measure} score {value!r} at precision {precision} scales to "
            f"{worst}, outside the int64 range of the ranking matrix; use a lower "
            "precision"
        ) from None
    return column


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
    precision = _check_rounding(precision, rounding)
    _check_measure_order([vec.measure for vec in vectors])
    n = len(vectors[0].scores)
    for vec in vectors:
        if len(vec.scores) != n:
            raise ValueError(
                f"score length mismatch: {vec.measure} has {len(vec.scores)}, expected {n}"
            )
    scaled = np.empty((n, len(vectors)), dtype=np.int64)
    for col, vec in enumerate(vectors):
        scaled[:, col] = _scaled_column(vec.scores, vec.measure, precision, rounding)
    return RankingMatrix(
        scaled=scaled,
        measure_order=tuple(vec.measure for vec in vectors),
        precision=precision,
        rounding=rounding,
    )


def _tie_order(
    n: int, columns: Sequence[Callable[[np.ndarray], np.ndarray]], top: int | None = None
) -> np.ndarray:
    """The first ``top`` (default all n) nodes in descending lexicographic
    order of their scaled rows, where columns[c](nodes) gives column c's
    int64 values at ``nodes``; nodes with identical rows keep ascending id
    order.

    Nodes are refined one column at a time, as in alphabetical order: a
    column is read only for the members of groups that the columns before it
    leave tied (size > 1) and that start before position ``top``. A group
    that straddles ``top`` is refined in full, and within a group nodes
    order by descending value, stably.
    """
    limit = n if top is None else min(top, n)
    order = np.arange(n)
    # starts[p]: position p begins a group of nodes tied on every column read
    # so far; starts[n] closes the last group
    starts = np.zeros(n + 1, dtype=bool)
    starts[[0, n]] = True
    for column in columns:
        first = np.flatnonzero(starts)
        sizes = np.diff(first)
        live = (sizes > 1) & (first[:-1] < limit)
        if not live.any():
            break
        pos = np.flatnonzero(np.repeat(live, sizes))
        group = np.repeat(first[:-1], sizes)[pos]
        nodes = order[pos]
        values = column(nodes)
        # ~v orders int64 descending without negation's overflow at the minimum
        perm = np.lexsort((~values, group))
        order[pos] = nodes[perm]
        values = values[perm]
        starts[pos[1:][values[1:] != values[:-1]]] = True
    return order[:limit]


def _lsc_ranking(
    order: np.ndarray, measure_order: Sequence[str], precision: int, rounding: str
) -> NodeRanking:
    params = {"measure_order": list(measure_order), "precision": precision, "rounding": rounding}
    return NodeRanking(tuple(order.tolist()), "LSC", params)


def lexical_sort(rm: RankingMatrix) -> NodeRanking:
    """Order rows by descending lexicographic comparison of their value
    tuples: the first measure dominates, ties fall through to the next, and
    rows with fully identical tuples keep their input order.
    """
    columns = [lambda nodes, c=c: rm.scaled[nodes, c] for c in range(rm.scaled.shape[1])]
    order = _tie_order(rm.scaled.shape[0], columns)
    return _lsc_ranking(order, rm.measure_order, rm.precision, rm.rounding)


def lsc(
    g: Graph,
    precision: int = DEFAULT_PRECISION,
    measure_order: Sequence[str] = DEFAULT_MEASURE_ORDER,
    rounding: str = ROUND_HALF_EVEN_MODE,
    top: int | None = None,
    **measure_settings,
) -> NodeRanking:
    """Lexical-sorting-centrality ranking of a graph: its first ``top``
    nodes (every node by default), the same as the first ``top`` of
    lexical_sort over the full ranking matrix.

    Measures come in ``measure_order`` (DC, EC, CC by default) and are
    rounded to ``precision`` decimal places. The first measure is read for
    every node; each later one only for the nodes that the earlier ones
    leave tied in groups starting before position ``top``, so a measure no
    tie reaches is never computed. CC and GC search from the tied nodes
    only, and DC, EC and BC are computed in full when read.
    Errors are raised for the values the sort reads: measure errors (EC on
    an edgeless graph, say) and the int64 overflow ValueError. Values it
    never reads are neither computed nor rounded (build_ranking_matrix, in
    contrast, rounds every value it is given). params are lexical_sort's:
    measure_order, precision and rounding. Extra keyword settings
    (cc_convention, ec_tol, ec_max_iter, gc_radius, gc_exponent, ...) are
    checked before any work, as every other setting is, and passed through
    to the measure implementations.
    """
    if g.node_count < 2:
        raise ValueError("lsc requires at least 2 nodes")
    if top is not None:
        _check_top(top)
    precision = _check_rounding(precision, rounding)
    tags = _check_measure_order(measure_order)

    def column(tag: str, read) -> Callable[[np.ndarray], np.ndarray]:
        return lambda nodes: _scaled_column(read(nodes), tag, precision, rounding)

    readers = [_scores_reader(g, tag, **measure_settings) for tag in tags]
    order = _tie_order(g.node_count, list(map(column, tags, readers)), top)
    return _lsc_ranking(order, tags, precision, rounding)


def ranking_from_scores(scores: Sequence[float], source: str) -> NodeRanking:
    """Rank nodes by descending score; ties broken by ascending node id."""
    arr = np.asarray(scores, dtype=np.float64)
    order = np.lexsort((np.arange(len(arr)), -arr))
    return NodeRanking(tuple(int(i) for i in order), source)
