import math
import random
from decimal import Decimal
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, reject, settings
from hypothesis import strategies as st

import lexcent.evaluation
from lexcent.centrality import PowerIterationError, compute_centrality
from lexcent.evaluation import (
    benchmark_runtime,
    evaluate_dataset,
    kendall_tau,
    kendall_tau_pairwise,
    lsc_rank_values,
    rank_vs_score_series,
    top_x_overlap,
    top_x_size,
)
from lexcent.graph import from_edges
from lexcent.ranking import NodeRanking, ranking_from_scores
from lexcent.sir import SirParams, score_all_nodes

from test_graph import cycle_graph, random_graph
from test_centrality import star_graph
from test_ranking import tie_heavy_graphs


# ---------------------------------------------------------------------------
# kendall tau


def test_tau_identity_and_reverse():
    a = [1.0, 2.0, 3.0, 4.0]
    assert kendall_tau(a, a) == 1.0
    assert kendall_tau(a, a[::-1]) == -1.0


def test_tau_single_swap():
    assert kendall_tau([1, 2, 3], [1, 3, 2]) == pytest.approx(1 / 3)
    assert kendall_tau_pairwise([1, 2, 3], [1, 3, 2]) == pytest.approx(1 / 3)


def test_tau_pairwise_takes_arrays_and_lists_alike():
    rng = random.Random(5)
    cases = [([1.0, 2.0, 3.0], [2.0, 1.0, 3.0])] + [random_lists(rng, 12, 0.4) for _ in range(5)]
    for a, b in cases:
        for variant in ("a", "b"):
            expected = kendall_tau_pairwise(a, b, variant)
            for x, y in [(np.array(a), np.array(b)), (np.array(a, dtype=np.float64), b)]:
                assert kendall_tau_pairwise(x, y, variant) == expected
    assert kendall_tau_pairwise(np.array([1.0, 2.0, 3.0]), np.array([2.0, 1.0, 3.0])) == 1 / 3


def test_tau_validation():
    with pytest.raises(ValueError):
        kendall_tau([1, 2], [1, 2, 3])
    with pytest.raises(ValueError):
        kendall_tau([1], [2])
    with pytest.raises(ValueError):
        kendall_tau([1, 2], [1, 2], variant="c")


def test_tau_constant_list_is_zero_under_variant_a():
    assert kendall_tau([5, 5, 5, 5], [1, 2, 3, 4]) == 0.0
    assert math.isnan(kendall_tau([5, 5, 5, 5], [1, 2, 3, 4], variant="b"))


def random_lists(rng, n, tie_prob):
    a = [rng.randrange(0, max(2, int(n * (1 - tie_prob)))) for _ in range(n)]
    b = [rng.randrange(0, max(2, int(n * (1 - tie_prob)))) for _ in range(n)]
    return a, b


def test_merge_equals_pairwise_exactly():
    rng = random.Random(17)
    for _ in range(100):
        n = rng.randrange(2, 60)
        for tie_prob in (0.0, 0.5, 0.9):
            a, b = random_lists(rng, n, tie_prob)
            for variant in ("a", "b"):
                fast = kendall_tau(a, b, variant)
                slow = kendall_tau_pairwise(a, b, variant)
                if math.isnan(fast):
                    assert math.isnan(slow)
                else:
                    assert fast == slow


def test_tau_symmetry_and_monotone_invariance():
    rng = random.Random(23)
    for _ in range(20):
        a = [rng.random() for _ in range(25)]
        b = [rng.random() for _ in range(25)]
        assert kendall_tau(a, b) == kendall_tau(b, a)
        transformed = [math.exp(3 * x) + 1 for x in a]
        assert kendall_tau(transformed, b) == kendall_tau(a, b)


def test_tau_b_matches_scipy():
    stats = pytest.importorskip("scipy.stats")
    rng = random.Random(29)
    for _ in range(20):
        a = [rng.randrange(0, 10) for _ in range(40)]
        b = [rng.randrange(0, 10) for _ in range(40)]
        expected = stats.kendalltau(a, b, variant="b").statistic
        assert kendall_tau(a, b, variant="b") == pytest.approx(expected, abs=1e-12)


# ±0.0 are equal values with different bits; each list draws from 1-6 of these
TAU_VALUES = (0.0, -0.0, 1.0, -1.5, 2.0, 3.25, -7.0, math.inf)
# sizes at and beside powers of two, where the merge's last block is full,
# one short, or a lone entry
POWER_SIZES = sorted({2**k + d for k in range(1, 9) for d in (-1, 0, 1)} - {1})


@st.composite
def tau_lists(draw, n):
    kind = draw(st.sampled_from(("values", "constant", "decreasing")))
    if kind == "constant":
        return [draw(st.sampled_from(TAU_VALUES))] * n
    if kind == "decreasing":
        return [float(n - i) for i in range(n)]
    pool = draw(st.lists(st.sampled_from(TAU_VALUES), min_size=1, max_size=6, unique_by=repr))
    return draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(st.integers(2, 300), st.sampled_from(POWER_SIZES)).flatmap(
        lambda n: st.tuples(tau_lists(n), tau_lists(n))
    )
)
@example(([0.0, 1.0], [1.0, 0.0]))
@example(([0.0, -0.0, 1.0], [-0.0, 0.0, 0.0]))
@example(([1.0] * 5, [5.0, 4.0, 3.0, 2.0, 1.0]))
def test_kendall_tau_equals_pairwise_exactly(lists):
    a, b = lists
    for variant in ("a", "b"):
        fast = kendall_tau(a, b, variant)
        slow = kendall_tau_pairwise(a, b, variant)
        assert fast == slow or (math.isnan(fast) and math.isnan(slow)), variant


def test_count_inversions_beyond_int32():
    n = 70_000
    reverse = np.arange(n, dtype=np.int64)[::-1].copy()
    inversions, ranks = lexcent.evaluation._count_inversions(reverse)
    assert inversions == n * (n - 1) // 2 == 2_449_965_000
    assert np.array_equal(ranks, np.arange(n))
    assert kendall_tau(np.arange(n), np.arange(n)[::-1]) == -1.0


@pytest.mark.parametrize("fn", [kendall_tau, kendall_tau_pairwise])
def test_tau_rejects_nan_and_names_the_list(fn):
    with pytest.raises(ValueError, match="kendall tau: a contains NaN"):
        fn([1, math.nan, 3, 2], [1, 2, 3, 4])
    with pytest.raises(ValueError, match="kendall tau: b contains NaN"):
        fn([1, 2, 3, 4], np.array([1.0, 2.0, np.nan, 4.0]))


# ---------------------------------------------------------------------------
# top-x overlap


def test_overlap_k_values():
    scores = list(range(1000))
    ranking = ranking_from_scores(scores, "DC")
    overlap, k = top_x_overlap(ranking, scores, 5)
    assert k == 50
    assert overlap == 50
    scores34 = list(range(34))
    overlap, k = top_x_overlap(ranking_from_scores(scores34, "DC"), scores34, 5)
    assert k == 1
    assert overlap == 1


def test_overlap_exact_order_is_full():
    rng = random.Random(3)
    scores = [rng.random() for _ in range(40)]
    ranking = ranking_from_scores(scores, "DC")
    overlap, k = top_x_overlap(ranking, scores, 25)
    assert overlap == k == 10


def test_overlap_invariant_under_scaling_and_full_at_100():
    rng = random.Random(5)
    scores = np.array([rng.random() for _ in range(30)])
    ranking = ranking_from_scores([rng.random() for _ in range(30)], "DC")
    a, _ = top_x_overlap(ranking, scores, 20)
    b, _ = top_x_overlap(ranking, scores * 1000.0, 20)
    assert a == b
    full, k = top_x_overlap(ranking, scores, 100)
    assert full == k == 30


def test_overlap_breaks_score_ties_by_ascending_node_id():
    # nodes 1, 2 and 4 tie for the top two: the lower ids 1 and 2 win
    scores = [0.0, 3.0, 3.0, 1.0, 3.0, 0.0]
    assert top_x_overlap(NodeRanking((1, 2, 4, 3, 0, 5), "DC"), scores, 40) == (2, 2)
    assert top_x_overlap(NodeRanking((4, 2, 1, 3, 0, 5), "DC"), scores, 40) == (1, 2)
    assert top_x_overlap(NodeRanking((4, 3, 1, 2, 0, 5), "DC"), scores, 40) == (0, 2)


def test_overlap_rejects_zero_k():
    scores = [1.0, 2.0, 3.0]
    ranking = ranking_from_scores(scores, "DC")
    with pytest.raises(ValueError):
        top_x_overlap(ranking, scores, 5)  # floor(3*0.05) == 0


def test_top_x_size_reads_x_percent_as_its_decimal():
    assert top_x_size(375, 18.4) == 69  # the float product 375 * 18.4 / 100 is below 69
    assert int(375 * 18.4 / 100.0) == 68


def test_top_x_size_is_exact_on_the_tenths_grid():
    # floor(n * x / 100) can only differ from exact arithmetic where the exact
    # product is an integer (elsewhere it is at least 1/1000 from one), so the
    # grid n in 2..3000, x in tenths, is checked at those n and next to them
    float_misses = 0
    for tenths in range(1, 1001):
        x = tenths / 10
        exact = Fraction(str(x)) / 100
        step = exact.denominator  # n * exact is an integer iff step divides n
        for hit in range(step, 3001 + step, step):
            for n in range(max(hit - 1, 2), min(hit + 1, 3000) + 1):
                expected = math.floor(n * exact)
                if expected == 0:
                    continue
                assert top_x_size(n, x) == expected, (n, x)
                float_misses += int(n * x / 100.0) != expected
    assert float_misses == 282


def check_top_x_sizes(x, counts):
    """top_x_size(n, x) is floor(n * x / 100) with x read as its shortest
    decimal by Decimal, for each n of ``counts``, and raises where that is 0."""
    num, den = Decimal(repr(float(x))).as_integer_ratio()
    for n in counts:
        expected = n * num // (100 * den)
        if expected:
            assert top_x_size(n, x) == expected, (n, x)
        else:
            with pytest.raises(ValueError, match="selects 0"):
                top_x_size(n, x)


def test_top_x_size_matches_decimal_on_the_tenths_grid():
    for tenths in range(1, 1001):
        check_top_x_sizes(tenths / 10, range(2, 3001))


@pytest.mark.parametrize("x", [1e-05, 1.5e-05, 5e-324, 2 / 3, 33.333333333333336,
                               99.99999999999999, 100, 100.0])
def test_top_x_size_matches_decimal_in_every_repr_form(x):
    # exponent forms, 17 significant digits and an int; a count far beyond
    # any float makes every digit of the decimal count
    check_top_x_sizes(x, [*range(2, 3001), 10**20 + 7, 10**400])


# ---------------------------------------------------------------------------
# rank-vs-score series


def test_series_perfect_ranking_has_no_inversions():
    scores = [5.0, 3.0, 1.0, 4.0]
    ranking = ranking_from_scores(scores, "DC")
    series, inversions = rank_vs_score_series(ranking, scores)
    assert series.dtype == np.float64
    values = series.tolist()
    assert values == sorted(values, reverse=True)
    assert inversions == 0


def test_series_reverse_ranking_is_nondecreasing():
    scores = [1.0, 2.0, 3.0]
    ranking = NodeRanking((0, 1, 2), "DC")
    series, inversions = rank_vs_score_series(ranking, scores)
    values = series.tolist()
    assert values == sorted(values)
    assert inversions == 2


def test_series_inversions_match_adjacent_scan():
    rng = random.Random(7)
    scores = [rng.random() for _ in range(100)]
    order = list(range(100))
    rng.shuffle(order)
    ranking = NodeRanking(tuple(order), "DC")
    series, inversions = rank_vs_score_series(ranking, scores)
    assert series.tolist() == [scores[node] for node in order]
    expected = sum(
        1 for i in range(99) if scores[order[i + 1]] > scores[order[i]]
    )
    assert inversions == expected


# ---------------------------------------------------------------------------
# benchmark


def test_benchmark_single_rep_times_everything():
    g = random_graph(12, 0.4, random.Random(9))
    result = benchmark_runtime(g, ["dc", "lsc", "gc"], repetitions=1)
    assert set(result.mean_seconds) == {"DC", "LSC", "GC"}
    assert all(t > 0 for t in result.mean_seconds.values())
    assert all(len(runs) == 1 for runs in result.runs_seconds.values())
    assert result.metadata["node_count"] == 12


def test_benchmark_rejects_zero_reps():
    with pytest.raises(ValueError):
        benchmark_runtime(cycle_graph(4), ["dc"], repetitions=0)


# ---------------------------------------------------------------------------
# evaluate_dataset


def test_lsc_rank_values_negate_positions():
    ranking = NodeRanking((2, 0, 1), "LSC")
    assert lsc_rank_values(ranking).tolist() == [-1.0, -2.0, 0.0]


def test_evaluate_vertex_transitive_taus_are_zero():
    g = cycle_graph(8)
    params = SirParams(beta=0.2, gamma=1.0, replications=50, rng_seed=2)
    report = evaluate_dataset(g, params, x_percent=25)
    for tag in ("DC", "EC", "CC", "BC", "GC"):
        assert report.measures[tag]["tau"] == 0.0


def test_evaluate_star_every_measure_finds_center():
    g = star_graph(4)
    params = SirParams(beta=0.1, gamma=1.0, replications=400, rng_seed=4)
    report = evaluate_dataset(g, params, x_percent=20)
    for tag, row in report.measures.items():
        assert row["top_x_k"] == 1
        assert row["top_x_overlap"] == 1, tag


def test_evaluate_is_deterministic_and_thread_invariant():
    g = random_graph(10, 0.35, random.Random(11))
    params = SirParams(beta=0.15, gamma=1.0, replications=60, rng_seed=21)
    a = evaluate_dataset(g, params, x_percent=20)
    b = evaluate_dataset(g, params, x_percent=20)
    assert a.measures == b.measures
    assert np.array_equal(a.ground_truth, b.ground_truth)
    assert np.array_equal(a.ground_truth_std, b.ground_truth_std)


@pytest.mark.parametrize(
    "graph, order, message",
    [
        (star_graph(3), ("DC", "XC"), "unknown measure 'XC'"),
        (from_edges(1, []), ("DC", "EC", "CC"), "at least 2 nodes"),
        (star_graph(3), ("DC", "EC", "dc"), "measure 'DC' is repeated in the measure order"),
    ],
    ids=["unknown-measure", "one-node", "repeated-measure"],
)
def test_evaluate_rejects_bad_input(graph, order, message):
    params = SirParams(beta=0.2, gamma=1.0, replications=10, rng_seed=1)
    with pytest.raises(ValueError, match=message):
        evaluate_dataset(graph, params, measure_order=order)


def test_evaluate_rejects_empty_top_x_before_ground_truth():
    params = SirParams(beta=0.2, gamma=1.0, replications=10, rng_seed=1)
    with mock.patch.object(lexcent.evaluation, "score_all_nodes") as sir, \
            mock.patch.object(lexcent.evaluation, "compute_centrality") as centrality:
        with pytest.raises(ValueError, match="x_percent=5.0 selects 0 of 4 nodes"):
            evaluate_dataset(star_graph(3), params)
    assert sir.call_count == 0 and centrality.call_count == 0


def test_evaluate_rejects_two_nodes_before_any_measure():
    """Normalized BC needs 3 nodes, so a 2-node graph is refused before DC,
    EC and CC run; without normalization it evaluates."""
    g = from_edges(2, [(0, 1)])
    params = SirParams(beta=0.5, replications=10, rng_seed=1)
    with mock.patch.object(lexcent.evaluation, "score_all_nodes") as sir, \
            mock.patch.object(lexcent.evaluation, "compute_centrality") as centrality:
        with pytest.raises(ValueError, match="normalized betweenness requires at least 3 nodes"):
            evaluate_dataset(g, params, x_percent=50)
    assert sir.call_count == 0 and centrality.call_count == 0
    report = evaluate_dataset(g, params, x_percent=50, bc_normalized=False)
    assert set(report.measures) == {"DC", "EC", "CC", "BC", "GC", "LSC"}


def test_bad_tau_variant_is_rejected_before_any_work():
    params = SirParams(beta=0.2, gamma=1.0, replications=10, rng_seed=1)
    with mock.patch.object(lexcent.evaluation, "score_all_nodes") as sir, \
            mock.patch.object(lexcent.evaluation, "compute_centrality") as centrality:
        with pytest.raises(ValueError, match="unknown tau variant 'c'"):
            evaluate_dataset(star_graph(9), params, x_percent=20, tau_variant="c")
    assert sir.call_count == 0 and centrality.call_count == 0
    with mock.patch.object(lexcent.evaluation, "_count_inversions") as merge:
        with pytest.raises(ValueError, match="unknown tau variant 'c'"):
            kendall_tau([1, 2, 3], [3, 1, 2], variant="c")
    assert merge.call_count == 0


def test_evaluate_report_carries_its_ground_truth():
    g = star_graph(4)
    params = SirParams(beta=0.3, gamma=1.0, replications=40, rng_seed=3)
    report = evaluate_dataset(g, params, x_percent=20)
    means, stds = score_all_nodes(g, params)
    assert np.array_equal(report.ground_truth, means)
    assert np.array_equal(report.ground_truth_std, stds)


def pair_count_tau_a(a, b):
    """Kendall tau-a by counting every pair: (concordant - discordant) / pairs."""
    n = len(a)
    numerator = 0
    for i in range(n):
        for j in range(i + 1, n):
            numerator += ((a[i] > a[j]) - (a[i] < a[j])) * ((b[i] > b[j]) - (b[i] < b[j]))
    return numerator / (n * (n - 1) // 2)


@settings(max_examples=60, deadline=None)
@given(
    tie_heavy_graphs(),
    # beta 0 ties every score and beta 1 ties each component's nodes
    st.sampled_from([0.0, 0.3, 1.0]),
    st.sampled_from([10.0, 18.4, 34.0, 50.0, 100.0]),
    st.sampled_from(["a", "b"]),
)
@example(from_edges(3, [(0, 1)]), 0.0, 50.0, "a")
@example(from_edges(3, [(0, 1), (1, 2)]), 1.0, 34.0, "b")
@example(from_edges(5, [(0, 1), (2, 3), (3, 4)]), 1.0, 50.0, "a")
def test_evaluate_rows_equal_an_oracle_on_the_reports_rankings(g, beta, x_percent, tau_variant):
    """Every eval_report row, recomputed from the report's own rankings and
    ground truth: tau-b by scipy, tau-a by counting pairs, the overlap from
    Python sets of the top k, the truth's ties going to the lower id."""
    stats = pytest.importorskip("scipy.stats")
    n = g.node_count
    # EC is undefined on an edgeless graph, which a random piece can be
    assume(g.edge_count > 0 and n * x_percent >= 100)
    params = SirParams(beta=beta, gamma=1.0, replications=20, rng_seed=7)
    try:
        report = evaluate_dataset(g, params, x_percent=x_percent, tau_variant=tau_variant)
    except PowerIterationError:
        reject()
    truth = report.ground_truth.tolist()
    k = top_x_size(n, x_percent)
    top_truth = set(sorted(range(n), key=lambda v: (-truth[v], v))[:k])
    assert set(report.measures) == set(report.rankings) == {"DC", "EC", "CC", "BC", "GC", "LSC"}
    for tag, row in report.measures.items():
        ranking = report.rankings[tag].ordered_nodes
        if tag == "LSC":
            # larger is more influential: the negated position
            values = [-float(ranking.index(v)) for v in range(n)]
        else:
            values = compute_centrality(g, tag).scores.tolist()
            assert ranking == tuple(sorted(range(n), key=lambda v: (-values[v], v))), tag
        if tau_variant == "a":
            assert row["tau"] == pair_count_tau_a(values, truth), tag
        else:
            expected = stats.kendalltau(values, truth, variant="b").statistic
            assert row["tau"] == pytest.approx(expected, abs=1e-12, nan_ok=True), tag
        assert row["top_x_k"] == k, tag
        assert row["top_x_overlap"] == len(top_truth & set(ranking[:k])), tag
