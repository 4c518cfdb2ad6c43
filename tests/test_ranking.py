import random
import re
from decimal import ROUND_DOWN, ROUND_HALF_EVEN, Decimal
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from lexcent import centrality
from lexcent import ranking as ranking_module
from lexcent.centrality import (
    MEASURES,
    CentralityVector,
    PowerIterationError,
    _scores_reader,
    compute_centrality,
)
from lexcent.datasets import load_dataset
from lexcent.graph import from_edges, generate_barabasi_albert
from lexcent.ranking import (
    build_ranking_matrix,
    lexical_sort,
    lsc,
    ranking_from_scores,
)

from test_graph import cycle_graph
from test_centrality import complete_bipartite_graph, star_graph


def vectors_from_columns(*columns):
    tags = ("DC", "EC", "CC", "BC", "GC")
    return [
        CentralityVector(tags[i], np.asarray(col, dtype=np.float64))
        for i, col in enumerate(columns)
    ]


def matrix_from_rows(rows, precision, rounding="half_even"):
    columns = list(zip(*rows))
    return build_ranking_matrix(vectors_from_columns(*columns), precision, rounding)


def reference_lexical_sort(rm):
    """The np.lexsort oracle: stable, and it sorts by its LAST key first, so
    the columns go in reversed and negated (descending)."""
    keys = tuple(-rm.scaled[:, col] for col in reversed(range(rm.scaled.shape[1])))
    return tuple(np.lexsort(keys).tolist())


WORKED_EXAMPLE_ROWS = [
    (0.2, 0.8, 0.3),
    (0.5, 0.3, 0.5),
    (0.2, 0.8, 0.4),
    (0.1, 0.4, 0.8),
    (0.7, 0.5, 0.1),
    (0.7, 0.6, 0.7),
]


def test_worked_example_ordering():
    rm = matrix_from_rows(WORKED_EXAMPLE_ROWS, precision=1)
    assert lexical_sort(rm).ordered_nodes == (5, 4, 1, 2, 0, 3)


# ---------------------------------------------------------------------------
# rounding


TWO_NODE_ROWS = [
    (0.76525, 0.05963, 0.15423),
    (0.76234, 0.06421, 0.24563),
]


def test_precision_five_keeps_values():
    rm = matrix_from_rows(TWO_NODE_ROWS, precision=5)
    assert rm.scaled.tolist() == [[76525, 5963, 15423], [76234, 6421, 24563]]
    assert lexical_sort(rm).ordered_nodes == (0, 1)


def test_precision_two_truncate_flips_order():
    rm = matrix_from_rows(TWO_NODE_ROWS, precision=2, rounding="truncate")
    assert rm.scaled.tolist() == [[76, 5, 15], [76, 6, 24]]
    assert lexical_sort(rm).ordered_nodes == (1, 0)


def test_precision_two_half_even_rounds_up():
    rm = matrix_from_rows(TWO_NODE_ROWS, precision=2)
    assert rm.scaled[0].tolist() == [77, 6, 15]
    assert lexical_sort(rm).ordered_nodes == (0, 1)


def test_half_even_breaks_ties_to_even():
    rm = matrix_from_rows([(0.125,), (0.135,)], precision=2)
    assert rm.scaled.tolist() == [[12], [14]]


def test_precision_zero_zeroes_small_values():
    rm = matrix_from_rows([(0.1, 0.49), (0.0, 0.25)], precision=0)
    assert np.all(rm.scaled == 0)


def test_matrix_validation():
    vecs = vectors_from_columns([0.1, 0.2], [0.3])
    with pytest.raises(ValueError, match="mismatch"):
        build_ranking_matrix(vecs, 5)
    with pytest.raises(ValueError):
        build_ranking_matrix([], 5)
    good = vectors_from_columns([0.1, 0.2])
    with pytest.raises(ValueError, match="precision"):
        build_ranking_matrix(good, 16)
    with pytest.raises(ValueError, match="rounding"):
        build_ranking_matrix(good, 5, rounding="floor")
    twice = [CentralityVector("DC", np.array([0.1, 0.2]))] * 2
    with pytest.raises(ValueError, match="measure 'DC' is repeated in the measure order"):
        build_ranking_matrix(twice, 5)


def test_numpy_integer_precision_equals_the_python_int():
    g = load_dataset("karate")
    vectors = [compute_centrality(g, tag) for tag in ("DC", "EC", "CC")]
    a, b = lsc(g, precision=3), lsc(g, precision=np.int64(3))
    assert a.ordered_nodes == b.ordered_nodes and a.params == b.params
    assert type(b.params["precision"]) is int and b.params["precision"] == 3
    rm = build_ranking_matrix(vectors, np.int64(3))
    assert np.array_equal(rm.scaled, build_ranking_matrix(vectors, 3).scaled)
    assert type(rm.precision) is int and rm.precision == 3
    assert lexical_sort(rm) == a


@pytest.mark.parametrize("precision", [True, 2.5])
def test_non_integer_precision_is_rejected(precision):
    g = star_graph(4)
    with pytest.raises(ValueError, match="precision"):
        lsc(g, precision=precision)
    with pytest.raises(ValueError, match="precision"):
        build_ranking_matrix([compute_centrality(g, "DC")], precision)


def test_matrix_rejects_scores_beyond_int64_at_the_precision():
    # 37613.9 x 10^15 does not fit int64; 9.2 x 10^15 does
    vecs = vectors_from_columns([0.5, 1.0], [2.0, 37613.9])
    with pytest.raises(ValueError, match=r"EC score 37613\.9 at precision 15"):
        build_ranking_matrix(vecs, 15)
    assert build_ranking_matrix(vectors_from_columns([9.2]), 15).scaled[0, 0] == 92 * 10**14


# ---------------------------------------------------------------------------
# exact rounding: the float64 pass and its Decimal fallback against a Decimal
# loop over every value


def decimal_scaled(values, precision, rounding):
    """The oracle: each value's shortest decimal times 10^precision, rounded
    half-to-even or truncated in Decimal, as Python ints."""
    mode = ROUND_DOWN if rounding == "truncate" else ROUND_HALF_EVEN
    return [
        int(Decimal(repr(float(v))).scaleb(precision).to_integral_value(mode)) for v in values
    ]


def scaled_column(values, precision, rounding):
    vectors = [CentralityVector("DC", np.asarray(values, dtype=np.float64))]
    return build_ranking_matrix(vectors, precision, rounding).scaled[:, 0].tolist()


def _ulps(value, steps):
    """value moved ``steps`` ulps up (or down, for steps < 0)."""
    for _ in range(abs(steps)):
        value = float(np.nextafter(value, np.inf if steps > 0 else -np.inf))
    return value


def hard_values(precision):
    """Floats that are hard to round at ``precision`` places: uniforms,
    values already written with a few places more or less than precision,
    exact decimal halves at place precision + 1, scaled values near 2^53 and
    both zeros, each possibly moved one ulp either way; every one scales to
    within int64."""
    signs = st.sampled_from(["", "-"])
    written = st.builds(
        lambda sign, digits, places: float(f"{sign}{digits}e-{places}"),
        signs, st.integers(0, 10**9), st.integers(max(precision - 1, 0), precision + 2),
    )
    halves = st.builds(
        lambda sign, k: float(f"{sign}{k}5e-{precision + 1}"), signs, st.integers(0, 10**6)
    )
    near_2_53 = st.builds(
        lambda k: k / 10.0**precision, st.integers(2**53 - 2**12, 2**53 + 2**12)
    )
    base = st.one_of(
        st.floats(-1e3, 1e3), written, halves, near_2_53, st.sampled_from([0.0, -0.0])
    )
    return st.builds(_ulps, base, st.sampled_from([-1, 0, 0, 1]))


@settings(max_examples=400, deadline=None)
@given(
    st.integers(0, 15).flatmap(
        lambda p: st.tuples(st.just(p), st.lists(hard_values(p), min_size=1, max_size=40))
    ),
    st.sampled_from(["half_even", "truncate"]),
)
def test_matrix_equals_the_decimal_oracle(case, rounding):
    precision, values = case
    assert scaled_column(values, precision, rounding) == decimal_scaled(
        values, precision, rounding
    )


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 15).flatmap(
        lambda p: st.tuples(
            st.just(p),
            st.lists(st.lists(hard_values(p), min_size=1, max_size=4), min_size=3, max_size=3),
        )
    ),
    st.integers(2, 30),
    st.sampled_from(["half_even", "truncate"]),
    st.sampled_from(["1", "half", None]),
    st.randoms(use_true_random=False),
)
def test_every_lsc_order_equals_the_decimal_oracle(case, n, rounding, top_case, rnd):
    # each column's scores come from a few hard values, so rows tie and the
    # later columns are read; lsc must order nodes as a lexsort of the
    # oracle's integers does
    precision, pools = case
    tags = ("DC", "EC", "CC")
    columns = {tag: np.array([rnd.choice(pool) for _ in range(n)]) for tag, pool in zip(tags, pools)}
    top = {"1": 1, "half": max(1, n // 2), None: None}[top_case]
    scaled = [decimal_scaled(columns[tag], precision, rounding) for tag in tags]
    keys = tuple(-np.array(col, dtype=np.int64) for col in reversed(scaled))
    expected = tuple(np.lexsort(keys).tolist())[: n if top is None else top]

    def reader(g, measure, **measure_settings):
        return lambda nodes: columns[measure][nodes]

    with mock.patch.object(ranking_module, "_scores_reader", reader):
        ranking = lsc(from_edges(n, []), precision, tags, rounding, top=top)
    assert ranking.ordered_nodes == expected


def test_float_scaling_is_not_trusted_at_a_boundary():
    # 2.675's binary value is 2.67499999999999982236..., so rounding that
    # value gives 2.67; its shortest decimal is the half itself
    assert round(2.675, 2) == 2.67
    assert scaled_column([2.675, -2.675], 2, "half_even") == [268, -268]
    assert scaled_column([2.675, -2.675], 2, "truncate") == [267, -267]
    # here the float64 product lands on the wrong side of a half or of an
    # integer, and rounding it would be one off
    assert (0.575 * 100, 0.545 * 100) == (57.49999999999999, 54.50000000000001)
    assert scaled_column([0.575, 0.545, -0.575], 2, "half_even") == [58, 54, -58]
    assert 0.29 * 100 == 28.999999999999996
    assert scaled_column([0.29, -0.29], 2, "truncate") == [29, -29]


@pytest.mark.parametrize("precision", range(16))
@pytest.mark.parametrize("rounding", ["half_even", "truncate"])
def test_exact_decimal_halves_at_every_precision(precision, rounding):
    values = [float(f"{sign}{k}5e-{precision + 1}")
              for sign in ("", "-") for k in (0, 1, 2, 3, 12, 99, 1234567)]
    expected = decimal_scaled(values, precision, rounding)
    assert scaled_column(values, precision, rounding) == expected
    if rounding == "half_even":
        assert expected[:7] == [0, 2, 2, 4, 12, 100, 1234568]
    else:
        assert expected[:7] == [0, 1, 2, 3, 12, 99, 1234567]


@pytest.mark.parametrize("rounding", ["half_even", "truncate"])
def test_negative_zero_and_one_ulp_either_side_of_a_boundary(rounding):
    boundaries = [0.5, 1.0, 2.5, 0.125, 0.135, 2.675, 1e-5, 0.3, 7.0, 1234.5]
    values = [-0.0, 0.0] + [
        sign * _ulps(b, step) for b in boundaries for step in (-1, 0, 1) for sign in (1, -1)
    ]
    for precision in (0, 1, 2, 5, 15):
        assert scaled_column(values, precision, rounding) == decimal_scaled(
            values, precision, rounding
        )
    assert scaled_column([-0.0], 5, rounding) == [0]


@pytest.mark.parametrize("rounding", ["half_even", "truncate"])
def test_values_near_2_to_the_53(rounding):
    edge = 2.0**53
    values = [edge - 2, edge - 1, edge, edge + 2, 2.0**51 + 0.5, 2.0**51 + 1.5,
              2.0**52 + 1, 2.0**52 - 0.5]
    values += [-v for v in values]
    assert scaled_column(values, 0, rounding) == decimal_scaled(values, 0, rounding)
    scaled_down = [v / 1e5 for v in values]
    assert scaled_column(scaled_down, 5, rounding) == decimal_scaled(scaled_down, 5, rounding)


@pytest.mark.parametrize("values, named", [
    ([0.5, 9223.372036854777], "9223.372036854777 at precision 15 scales to 9223372036854777000"),
    ([1e4, -2e4, 3e4], "30000.0 at precision 15 scales to 30000000000000000000"),
    ([0.1, -3e4, 3e4], "-30000.0 at precision 15 scales to -30000000000000000000"),
])
def test_the_overflow_message_names_the_largest_value(values, named):
    with pytest.raises(ValueError) as raised:
        scaled_column(values, 15, "half_even")
    assert str(raised.value) == (
        f"DC score {named}, outside the int64 range of the ranking matrix; use a lower precision"
    )
    # 9223.372036854775 x 10^15 is within int64
    assert scaled_column([9223.372036854775], 15, "truncate") == [9223372036854775000]


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_scores_raise_what_the_decimal_path_raises(bad):
    with pytest.raises((ValueError, OverflowError)) as oracle:
        decimal_scaled([bad], 5, "half_even")
    for rounding in ("half_even", "truncate"):
        with pytest.raises(oracle.type, match=re.escape(str(oracle.value))):
            scaled_column([0.25, bad, 1e30], 5, rounding)


# ---------------------------------------------------------------------------
# sort semantics


def test_identical_rows_keep_input_order():
    rm = matrix_from_rows([(0.5, 0.5)] * 4, precision=3)
    assert lexical_sort(rm).ordered_nodes == (0, 1, 2, 3)


def test_sort_is_a_permutation_and_idempotent():
    rng = random.Random(1)
    for _ in range(20):
        n = rng.randrange(1, 30)
        rows = [tuple(rng.random() for _ in range(3)) for _ in range(n)]
        rm = matrix_from_rows(rows, precision=2)
        ranking = lexical_sort(rm)
        assert sorted(ranking.ordered_nodes) == list(range(n))
        reordered = [rows[v] for v in ranking.ordered_nodes]
        again = lexical_sort(matrix_from_rows(reordered, precision=2))
        assert again.ordered_nodes == tuple(range(n))


def lex_compare(row_a, row_b):
    """-1 if row_a sorts before row_b (descending lex), 1 after, 0 tied."""
    for x, y in zip(row_a, row_b):
        if x != y:
            return -1 if x > y else 1
    return 0


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(0, 1, allow_nan=False),
            st.floats(0, 1, allow_nan=False),
            st.floats(0, 1, allow_nan=False),
        ),
        min_size=1,
        max_size=200,
    )
)
def test_dominance_against_pairwise_oracle(rows):
    rm = matrix_from_rows(rows, precision=3)
    order = lexical_sort(rm).ordered_nodes
    scaled = [tuple(rm.scaled[i]) for i in range(len(rows))]
    for pos_a in range(len(order)):
        for pos_b in range(pos_a + 1, len(order)):
            a, b = order[pos_a], order[pos_b]
            cmp = lex_compare(scaled[a], scaled[b])
            assert cmp <= 0
            if cmp == 0:
                assert a < b  # stability: ties keep input order


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda width: st.lists(
            st.tuples(*[st.sampled_from([0.0, 0.1, 0.25, 0.3, 1.0])] * width),
            min_size=1,
            max_size=60,
        )
    )
)
def test_lexical_sort_equals_lexsort_oracle(rows):
    rm = matrix_from_rows(rows, precision=1)
    assert lexical_sort(rm).ordered_nodes == reference_lexical_sort(rm)


def multipass_oracle(rows):
    """Sort by the first column, then re-sort runs tied on the prefix by the
    next column, column by column (stable within runs)."""
    order = list(range(len(rows)))
    for col in range(len(rows[0]) if rows else 0):
        refined = []
        i = 0
        while i < len(order):
            j = i
            while (
                j < len(order)
                and rows[order[j]][:col] == rows[order[i]][:col]
            ):
                j += 1
            run = order[i:j]
            run.sort(key=lambda idx: -rows[idx][col])
            refined.extend(run)
            i = j
        order = refined
    return order


def test_sort_equals_multipass_refinement():
    rng = random.Random(41)
    for _ in range(30):
        n = rng.randrange(1, 40)
        rows = [
            tuple(rng.choice([0.1, 0.2, 0.3, 0.4]) for _ in range(3))
            for _ in range(n)
        ]
        rm = matrix_from_rows(rows, precision=1)
        scaled_rows = [tuple(rm.scaled[i]) for i in range(n)]
        assert list(lexical_sort(rm).ordered_nodes) == multipass_oracle(scaled_rows)


def test_prefix_consistency():
    rng = random.Random(9)
    rows = [(i / 10.0, rng.random(), rng.random()) for i in range(8)]
    rng.shuffle(rows)
    rm = matrix_from_rows(rows, precision=5)
    order = lexical_sort(rm).ordered_nodes
    by_first = sorted(range(8), key=lambda i: -rows[i][0])
    assert list(order) == by_first


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(st.floats(0, 1, allow_nan=False), st.floats(0, 1, allow_nan=False)),
        min_size=2,
        max_size=40,
    ),
    st.integers(min_value=1, max_value=6),
)
def test_tie_sets_grow_as_precision_drops_under_truncation(rows, precision):
    # digit prefixes only merge, never split, when truncating fewer places
    fine = matrix_from_rows(rows, precision, rounding="truncate")
    coarse = matrix_from_rows(rows, precision - 1, rounding="truncate")
    n = len(rows)
    for i in range(n):
        for j in range(i + 1, n):
            tied_fine = tuple(fine.scaled[i]) == tuple(fine.scaled[j])
            tied_coarse = tuple(coarse.scaled[i]) == tuple(coarse.scaled[j])
            if tied_fine:
                assert tied_coarse


def test_measure_order_affects_only_shared_prefix_ties():
    rng = random.Random(33)
    for _ in range(20):
        n = rng.randrange(2, 25)
        rows = [
            (rng.choice([0.1, 0.2, 0.3]), rng.random(), rng.random()) for _ in range(n)
        ]
        base = lexical_sort(matrix_from_rows(rows, precision=3)).ordered_nodes
        swapped_rows = [(r[0], r[2], r[1]) for r in rows]
        swapped = lexical_sort(matrix_from_rows(swapped_rows, precision=3)).ordered_nodes
        pos_base = {v: i for i, v in enumerate(base)}
        pos_swap = {v: i for i, v in enumerate(swapped)}
        for i in range(n):
            for j in range(i + 1, n):
                if rows[i][0] != rows[j][0]:
                    same_base = pos_base[i] < pos_base[j]
                    same_swap = pos_swap[i] < pos_swap[j]
                    assert same_base == same_swap


# ---------------------------------------------------------------------------
# full LSC composition


def test_lsc_star_center_first():
    assert lsc(star_graph(4)).ordered_nodes[0] == 0


def test_lsc_vertex_transitive_preserves_input_order():
    assert lsc(cycle_graph(6)).ordered_nodes == (0, 1, 2, 3, 4, 5)


def test_lsc_params_are_its_settings():
    ranking = lsc(star_graph(3), measure_order=("dc", "ec"), rounding="truncate")
    assert ranking.params == {
        "measure_order": ["DC", "EC"],
        "precision": 5,
        "rounding": "truncate",
    }


def test_lsc_matches_exhaustive_tuple_comparison_on_karate():
    from lexcent.datasets import load_dataset
    from lexcent.centrality import compute_centrality

    g = load_dataset("karate")
    ranking = lsc(g, precision=5)
    vectors = [compute_centrality(g, t) for t in ("DC", "EC", "CC")]
    rm = build_ranking_matrix(vectors, 5)
    rows = [tuple(rm.scaled[i]) for i in range(g.node_count)]
    best = max(range(g.node_count), key=lambda i: rows[i])
    assert ranking.ordered_nodes[0] == best


def test_lsc_propagates_measure_errors():
    with pytest.raises(ValueError):
        lsc(from_edges(3, []))  # edgeless: EC undefined


def test_lsc_supports_other_measure_orders():
    g = star_graph(4)
    ranking = lsc(g, measure_order=("GC", "DC"), gc_radius=2)
    assert sorted(ranking.ordered_nodes) == list(range(5))


# ---------------------------------------------------------------------------
# tie-driven LSC: later measures only for ties, and only the ranked prefix


def _piece(kind, size, rng):
    """Edges of one tie-heavy component on nodes 0..size-1."""
    if kind == "star":
        return [(0, j) for j in range(1, size)]
    if kind == "cycle":
        return [(i, (i + 1) % size) for i in range(size)]
    if kind == "path":
        return [(i, i + 1) for i in range(size - 1)]
    if kind == "kab":
        a = rng.randrange(1, size)
        return [(i, j) for i in range(a) for j in range(a, size)]
    return [(i, j) for i in range(size) for j in range(i + 1, size) if rng.random() < 0.3]


@st.composite
def tie_heavy_graphs(draw):
    """Disjoint unions of stars, cycles, paths, K(a,b) and random blocks,
    plus isolated nodes, with ids shuffled; 3 <= n <= 40 and at least one
    edge."""
    rng = draw(st.randoms(use_true_random=False))
    kinds = draw(st.lists(st.sampled_from(["star", "cycle", "path", "kab", "random"]),
                          min_size=1, max_size=3))
    edges, n = [], 0
    for kind in kinds:
        size = draw(st.integers(min_value=3, max_value=12))
        edges += [(n + u, n + v) for u, v in _piece(kind, size, rng)]
        n += size
    n += draw(st.integers(min_value=0, max_value=4))
    perm = list(range(n))
    rng.shuffle(perm)
    return from_edges(n, [(perm[u], perm[v]) for u, v in edges])


@settings(max_examples=300, deadline=None)
@given(
    tie_heavy_graphs(),
    st.permutations(MEASURES).flatmap(
        lambda tags: st.integers(1, 5).map(lambda k: tuple(tags[:k]))
    ),
    st.integers(min_value=0, max_value=15),
    st.sampled_from(["half_even", "truncate"]),
    st.sampled_from(["1", "2", "n-1", "n", None]),
    st.sampled_from(["component_scaled", "paper_literal"]),
    st.integers(min_value=1, max_value=3),
)
def test_prefix_lsc_equals_lexsort_over_the_full_matrix(
    g, order, precision, rounding, top_case, convention, radius
):
    n = g.node_count
    top = {"1": 1, "2": 2, "n-1": n - 1, "n": n, None: None}[top_case]
    measure_settings = {"cc_convention": convention, "gc_radius": radius}
    try:
        vectors = [compute_centrality(g, tag, **measure_settings) for tag in order]
        rm = build_ranking_matrix(vectors, precision, rounding)
    except (ValueError, PowerIterationError):
        reject()  # GC beyond int64 at this precision, or EC did not converge
    expected = reference_lexical_sort(rm)[: n if top is None else top]
    spy, read = reader_spy()
    with mock.patch.object(ranking_module, "_scores_reader", spy):
        ranking = lsc(g, precision, order, rounding, top=top, **measure_settings)
    assert ranking.ordered_nodes == expected
    assert order[0] in read and set(read) <= set(order)


def reader_spy():
    """A stand-in for centrality._scores_reader that returns the same
    readers, and the list that records the tag of each measure read."""
    read_tags = []

    def spy(g, measure, **measure_settings):
        read = _scores_reader(g, measure, **measure_settings)

        def spied(nodes):
            read_tags.append(measure.upper())
            return read(nodes)

        return spied

    return spy, read_tags


@settings(max_examples=150, deadline=None)
@given(
    tie_heavy_graphs(),
    st.permutations(MEASURES).flatmap(
        lambda tags: st.integers(1, 5).map(lambda k: tuple(tags[:k]))
    ),
    st.integers(min_value=0, max_value=15),
    st.sampled_from(["half_even", "truncate"]),
)
@example(load_dataset("karate"), ("DC", "EC", "CC"), 5, "half_even")
@example(load_dataset("karate"), ("gc", "Bc", "dc"), 2, "truncate")
def test_lsc_equals_lexical_sort_of_the_full_matrix_params_included(
    g, order, precision, rounding
):
    try:
        vectors = [compute_centrality(g, tag) for tag in order]
        full = lexical_sort(build_ranking_matrix(vectors, precision, rounding))
    except (ValueError, PowerIterationError):
        reject()  # GC beyond int64 at this precision, or EC did not converge
    ranking = lsc(g, precision, order, rounding)
    assert ranking.ordered_nodes == full.ordered_nodes
    assert ranking.params == full.params


def sparse_forest_graph(seed):
    """A BA(400, 2) component plus random trees of 2 to 20 nodes over 200
    more nodes, ids shuffled: sparse, disconnected and full of ties."""
    rng = random.Random(seed)
    edges = list(generate_barabasi_albert(400, 2, seed).edges())
    n = 400
    while n < 600:
        size = min(rng.randrange(2, 21), 600 - n)
        edges += [(n + j, n + rng.randrange(j)) for j in range(1, size)]
        n += size
    perm = list(range(n))
    rng.shuffle(perm)
    return from_edges(n, [(perm[u], perm[v]) for u, v in edges])


def tied_on_first_two(g, top, precision):
    """The nodes whose rounded (DC, EC) pair ties within the first ``top``
    positions of the full LSC: every member of a tied run that starts
    before ``top``, from the full (DC, EC, CC) matrix."""
    vectors = [compute_centrality(g, tag) for tag in ("DC", "EC", "CC")]
    rm = build_ranking_matrix(vectors, precision)
    order = reference_lexical_sort(rm)
    limit = g.node_count if top is None else top
    pairs = [tuple(rm.scaled[v, :2]) for v in order]
    needed, i = set(), 0
    while i < len(order):
        j = i + 1
        while j < len(order) and pairs[j] == pairs[i]:
            j += 1
        if j - i > 1 and i < limit:
            needed.update(order[i:j])
        i = j
    return needed


@pytest.mark.parametrize(
    "graph, top, precision",
    [
        ("karate", None, 5),
        ("karate", 1, 5),
        ("karate", 10, 2),
        ("karate", 30, 1),
        ("ba1000", None, 5),
        ("forest", 10, 5),
        ("forest", None, 5),
        ("forest", 100, 2),
    ],
)
def test_closeness_is_asked_only_for_the_tied_prefix(graph, top, precision):
    g = {
        "karate": lambda: load_dataset("karate"),
        "ba1000": lambda: generate_barabasi_albert(1000, 10, 7),
        "forest": lambda: sparse_forest_graph(3),
    }[graph]()
    with mock.patch.object(centrality, "_closeness_at", wraps=centrality._closeness_at) as cc:
        lsc(g, precision, top=top)
    asked = [node for call in cc.call_args_list for node in call.args[1].tolist()]
    tied = tied_on_first_two(g, top, precision)
    assert cc.call_count == (1 if tied else 0)
    assert sorted(asked) == sorted(tied)


def test_lsc_computes_no_measure_the_prefix_does_not_reach():
    g = star_graph(4)
    ec = mock.patch.object(
        centrality, "eigenvector_centrality", wraps=centrality.eigenvector_centrality
    )
    cc = mock.patch.object(centrality, "_closeness_at", wraps=centrality._closeness_at)
    # the centre alone has the top degree, so neither EC nor CC is computed:
    # with one iteration allowed EC would raise
    with ec as ec_spy, cc as cc_spy:
        assert lsc(g, top=1, ec_max_iter=1).ordered_nodes == (0,)
    assert ec_spy.call_count == 0 and cc_spy.call_count == 0
    with ec as ec_spy, pytest.raises(PowerIterationError):
        lsc(g, ec_max_iter=1)  # the four tied leaves need EC
    assert ec_spy.call_count == 1


def test_lsc_checks_measures_and_settings_before_any_work():
    g = star_graph(4)
    with pytest.raises(ValueError, match="unknown measure"):
        lsc(g, top=1, measure_order=("DC", "XX"))
    with pytest.raises(ValueError, match="closeness convention"):
        lsc(g, top=1, cc_convention="bogus")
    with pytest.raises(ValueError, match="rounding"):
        lsc(g, top=1, rounding="up")
    with mock.patch.object(ranking_module, "_scores_reader") as reader:
        with pytest.raises(ValueError, match="measure 'EC' is repeated in the measure order"):
            lsc(g, top=1, measure_order=("DC", "EC", "ec"))
    assert reader.call_count == 0
    for top in (0, 1.5, True):
        with pytest.raises(ValueError, match="top"):
            lsc(g, top=top)


@pytest.mark.parametrize("order", ["DC", "dc,ec"])
def test_a_measure_order_given_as_a_string_is_rejected(order):
    # a string is not split into one-letter measures
    message = f"measure_order must be a list of measures, got {order!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        lsc(star_graph(4), measure_order=order)


def test_an_unknown_measure_in_the_order_is_named_by_its_tag():
    with pytest.raises(ValueError, match="unknown measure 'XX'"):
        lsc(star_graph(4), measure_order=["dc", "xx"])


def test_lsc_top_beyond_n_ranks_every_node():
    g = complete_bipartite_graph(2, 5)
    assert lsc(g, top=50).ordered_nodes == lsc(g).ordered_nodes
    assert len(lsc(g).ordered_nodes) == 7


# ---------------------------------------------------------------------------
# helpers


def test_ranking_from_scores_tie_break():
    ranking = ranking_from_scores([0.5, 0.9, 0.5, 0.1], "DC")
    assert ranking.ordered_nodes == (1, 0, 2, 3)
