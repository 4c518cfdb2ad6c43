"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them live).

The Monte-Carlo criteria use frozen master seeds; expected margins were
measured before freezing and are noted inline (criterion 4: the pooled SIR
top-1 leads by z ~ 9.4, and single evaluations agree with it in at most
85/100, the ceiling). The gamma = 1 ground truths come from one
bond-percolation sample per replication (see lexcent.sir), so the module
takes well under a minute, most of it in the 100-evaluation karate check
and the runtime benchmark.
"""

import math
import random
import time

import numpy as np
import pytest

from lexcent.centrality import compute_centrality, eigenvector_centrality
from lexcent.cli import main as cli_main
from lexcent.datasets import dataset_path, load_dataset
from lexcent.evaluation import (
    benchmark_runtime,
    kendall_tau,
    kendall_tau_pairwise,
    rank_vs_score_series,
    top_x_overlap,
)
from lexcent.graph import (
    dataset_stats,
    from_edges,
    generate_barabasi_albert,
    k_shell,
    load_edge_list,
)
from lexcent.ranking import NodeRanking, lexical_sort, lsc, ranking_from_scores
from lexcent import sir
from lexcent.sir import SirParams, score_all_nodes, spread_curve

from test_centrality import brute_force_betweenness, eigh_oracle, random_connected_graph
from test_graph import brute_force_k_shell
from test_ranking import matrix_from_rows


def report(number: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number:02d} {status}: {detail}")
    assert passed, f"criterion {number}: {detail}"


@pytest.fixture(scope="module")
def karate():
    return load_dataset("karate")


@pytest.fixture(scope="module")
def ba_graph():
    return generate_barabasi_albert(1000, 10, 42)


@pytest.fixture(scope="module")
def ba_sir_means(ba_graph):
    params = SirParams(beta=0.01, gamma=1.0, replications=1000, rng_seed=42)
    return score_all_nodes(ba_graph, params)[0]


@pytest.fixture(scope="module")
def karate_sir_means(karate):
    # 10k replications: at 1k the inversion counts of criterion 11 differ by
    # Monte-Carlo noise (LSC 13 vs DC 12, EC 11, CC 13, BC 16, GC 11 at this
    # seed, 2 of 5; 6 of 100 other seeds are red), at 10k and 200k LSC beats
    # all five
    params = SirParams(beta=0.1, gamma=1.0, replications=10_000, rng_seed=2024)
    return score_all_nodes(karate, params)[0]


def test_criterion_01_worked_example():
    rows = [
        (0.2, 0.8, 0.3),
        (0.5, 0.3, 0.5),
        (0.2, 0.8, 0.4),
        (0.1, 0.4, 0.8),
        (0.7, 0.5, 0.1),
        (0.7, 0.6, 0.7),
    ]
    rm = matrix_from_rows(rows, precision=1)
    lexical_sort(rm)  # warm the code path before timing
    start = time.perf_counter()
    ordering = lexical_sort(rm).ordered_nodes
    elapsed = time.perf_counter() - start
    report(
        1,
        ordering == (5, 4, 1, 2, 0, 3) and elapsed < 1e-3,
        f"six-row matrix sorts to {list(ordering)} in {elapsed*1e6:.0f} us",
    )


def test_criterion_02_precision_behavior():
    rows = [(0.76525, 0.05963, 0.15423), (0.76234, 0.06421, 0.24563)]
    at5 = lexical_sort(matrix_from_rows(rows, precision=5)).ordered_nodes
    at2 = lexical_sort(matrix_from_rows(rows, precision=2, rounding="truncate")).ordered_nodes
    report(
        2,
        at5 == (0, 1) and at2 == (1, 0),
        f"precision 5 orders {list(at5)}, precision 2 truncate orders {list(at2)}",
    )


def test_criterion_03_table_stats(karate):
    stats = dataset_stats(karate)
    ok = (
        stats.node_count == 34
        and stats.edge_count == 78
        and abs(stats.mean_degree - 4.588) < 1e-3
        and stats.max_degree == 17
        and abs(stats.density - 0.1390374) < 1e-3
    )
    detail = (
        f"karate stats ({stats.node_count}, {stats.edge_count}, "
        f"{stats.mean_degree:.4f}, {stats.max_degree}, {stats.density:.7f})"
    )
    email_path = dataset_path("email-univ")
    if not email_path.exists():
        report(3, ok, detail + "; email-univ not present (fetch requires network), skipped")
        pytest.skip("email-univ dataset not available in this environment")
    email = load_edge_list(email_path.read_text(), relabel=True)
    estats = dataset_stats(email)
    ok_email = (
        estats.node_count == 1133
        and estats.edge_count == 5452
        and abs(estats.mean_degree - 9.62) < 1e-3
        and estats.max_degree == 71
        and abs(estats.density - 0.0085002) < 1e-3
    )
    report(3, ok and ok_email, detail + f"; email-univ ({estats.node_count}, {estats.edge_count}, ...)")


def _sir_order(means: np.ndarray) -> np.ndarray:
    """Nodes by descending mean spreading score, ties to the lower id."""
    return np.lexsort((np.arange(len(means)), -means))


def test_criterion_04_karate_top1_agreement(karate):
    # LSC's top-1 must be the SIR top-1 on karate (beta=0.1, gamma=1), judged
    # against a reference that resolves the top-1 rather than against single
    # 1000-replication evaluations. Measured with seeds 1000..1099:
    # - lsc(karate) ranks 33, 0, 32 first (deterministic).
    # - Pooled over the 100 evaluations (100k replications per node) SIR
    #   ranks 33 (3.505) ahead of 0 (3.419) and 32 (3.031); the paired
    #   per-evaluation gap 33-0 is 0.086 +/- 0.009 (z ~ 9.4).
    # - The SD of that gap across single evaluations is 0.091, about the gap
    #   itself, so the reference's own top-1 is 33 in 85/100 evaluations and
    #   0 in 15/100. No ranking can agree with more than 85 of them (the
    #   ceiling); >=95/100 would need ~3k replications per evaluation.
    # So the check is: the pooled SIR top-1 is LSC's top-1 and leads the
    # pooled runner-up by z >= 3, with the SE taken over evaluations, and it
    # is the most frequent per-evaluation winner. The same predicate for
    # LSC's runner-up must be false, so the check can still fail.
    lsc_order = lsc(karate).ordered_nodes
    lsc_top1, lsc_second = lsc_order[0], lsc_order[1]
    runs = np.array(
        [
            score_all_nodes(
                karate, SirParams(beta=0.1, gamma=1.0, replications=1000, rng_seed=1000 + i)
            )[0]
            for i in range(100)
        ]
    )
    winners = np.array([_sir_order(means)[0] for means in runs])
    wins = np.bincount(winners, minlength=karate.node_count)
    pooled_order = _sir_order(runs.mean(axis=0))
    pooled_top1, pooled_second = int(pooled_order[0]), int(pooled_order[1])
    gaps = runs[:, pooled_top1] - runs[:, pooled_second]
    gap = gaps.mean()
    se = gaps.std(ddof=1) / math.sqrt(len(gaps))
    z = gap / se

    def resolved_top1(node: int) -> bool:
        return node == pooled_top1 and z >= 3 and node == int(np.argmax(wins))

    assert not resolved_top1(lsc_second), f"negative control: node {lsc_second} passed"
    report(
        4,
        resolved_top1(lsc_top1),
        f"LSC top-1 (node {lsc_top1}) matches SIR top-1 in {wins[lsc_top1]}/100 runs"
        f" (ceiling {wins.max()}); pooled SIR top-1 node {pooled_top1} leads node"
        f" {pooled_second} by {gap:.3f} +/- {se:.3f} (z = {z:.1f})",
    )


def test_criterion_05_ba_top50_overlap(ba_graph, ba_sir_means):
    lsc_overlap, k = top_x_overlap(lsc(ba_graph), ba_sir_means, 5)
    dc_scores = compute_centrality(ba_graph, "DC").scores
    dc_overlap, _ = top_x_overlap(
        ranking_from_scores(dc_scores, "DC"), ba_sir_means, 5
    )
    report(
        5,
        k == 50 and lsc_overlap >= 35 and lsc_overlap >= dc_overlap - 5,
        f"BA top-{k}: LSC overlap {lsc_overlap}, DC overlap {dc_overlap}",
    )


def test_criterion_06_runtime_ordering(ba_graph, karate):
    result = benchmark_runtime(ba_graph, ["lsc", "gc"], repetitions=3)
    lsc_mean, gc_mean = result.mean_seconds["LSC"], result.mean_seconds["GC"]
    karate_result = benchmark_runtime(karate, ["lsc", "gc"], repetitions=3)
    karate_ok = all(t < 1.0 for t in karate_result.mean_seconds.values())
    report(
        6,
        lsc_mean < gc_mean and karate_ok,
        f"BA(1000,10): LSC {lsc_mean:.3f}s < GC {gc_mean:.3f}s; karate both < 1s",
    )


def test_criterion_07_kendall_oracle():
    rng = random.Random(77)
    checked = 0
    for _ in range(1000):
        n = rng.choice((rng.randrange(2, 50), rng.randrange(2, 500)))
        if rng.random() < 0.5:
            a = [rng.random() for _ in range(n)]
            b = [rng.random() for _ in range(n)]
        else:  # planted ties
            a = [rng.randrange(0, max(2, n // 3)) for _ in range(n)]
            b = [rng.randrange(0, max(2, n // 3)) for _ in range(n)]
        if kendall_tau(a, b) != kendall_tau_pairwise(a, b):
            report(7, False, f"mismatch on list of size {n}")
        checked += 1
    swap = kendall_tau([1, 2, 3], [1, 3, 2])
    report(
        7,
        checked == 1000 and swap == pytest.approx(1 / 3),
        f"merge-count == brute force on {checked} lists; single swap tau = {swap:.4f}",
    )


def test_criterion_08_sir_exact_expectation(karate):
    two = from_edges(2, [(0, 1)])
    ok = True
    details = []
    for beta in (0.1, 0.5, 0.9):
        reps = 10_000
        finals = sir._node_scores(two, [0], SirParams(beta=beta, replications=reps, rng_seed=8))
        se = math.sqrt(beta * (1 - beta) / reps)
        deviation = abs(finals.mean() - (1 + beta)) / se
        ok &= deviation < 4
        details.append(f"beta={beta}: {deviation:.2f} se")
    zero = sir._node_scores(two, [0], SirParams(beta=0.0, replications=100, rng_seed=1))
    ok &= bool((zero == 1).all())
    full = sir._node_scores(karate, [0], SirParams(beta=1.0, replications=20, rng_seed=1))
    ok &= bool((full == karate.node_count).all())
    report(8, ok, "; ".join(details) + "; beta=0 -> 1, beta=1 -> n exact")


def test_criterion_09_centrality_oracles():
    rng = random.Random(99)
    worst_ec = 0.0
    for _ in range(100):
        g = random_connected_graph(rng.randrange(2, 9), rng)
        mine = compute_centrality(g, "BC", bc_normalized=False).scores
        expected = brute_force_betweenness(g, normalized=False)
        if not np.allclose(mine, expected, atol=1e-9):
            report(9, False, f"betweenness mismatch on n={g.node_count}")
        ec = eigenvector_centrality(g, tol=1e-12, max_iter=50_000).scores
        _, oracle = eigh_oracle(g)
        worst_ec = max(worst_ec, float(np.max(np.abs(ec - oracle))))
        if worst_ec >= 1e-6:
            report(9, False, f"eigenvector error {worst_ec:.2e} on n={g.node_count}")
        if k_shell(g).tolist() != brute_force_k_shell(g):
            report(9, False, f"k-shell mismatch on n={g.node_count}")
    report(9, True, f"BC, EC, k-shell match oracles on 100 graphs (max EC err {worst_ec:.1e})")


def test_criterion_10_evaluate_determinism(tmp_path):
    outputs = []
    for name, threads in (("a", "1"), ("b", "1"), ("c", "8")):
        out = tmp_path / name
        code = cli_main(
            [
                "evaluate",
                "--dataset", "karate",
                "--beta", "0.1",
                "--gamma", "1",
                "--reps", "1000",
                "--seed", "31",
                "--x-percent", "5",
                "--threads", threads,
                "--out", str(out),
            ]
        )
        assert code == 0
        outputs.append((out / "eval_report.json").read_bytes())
    identical = outputs[0] == outputs[1] == outputs[2]
    report(10, identical, "evaluate JSON byte-identical across reruns and 1 vs 8 threads")


def test_criterion_11_series_and_curves(karate, karate_sir_means):
    lsc_ranking = lsc(karate)
    _, lsc_inversions = rank_vs_score_series(lsc_ranking, karate_sir_means)
    competitor_inversions = {}
    for tag in ("DC", "EC", "CC", "BC", "GC"):
        scores = compute_centrality(karate, tag).scores
        _, inversions = rank_vs_score_series(
            ranking_from_scores(scores, tag), karate_sir_means
        )
        competitor_inversions[tag] = inversions

    def beaten_by(inversions: int) -> int:
        return sum(1 for v in competitor_inversions.values() if inversions <= v)

    beaten = beaten_by(lsc_inversions)
    # negative control: LSC's ranking reversed must fail the same predicate
    reversed_ranking = NodeRanking(tuple(reversed(lsc_ranking.ordered_nodes)), "LSC")
    _, reversed_inversions = rank_vs_score_series(reversed_ranking, karate_sir_means)
    assert beaten_by(reversed_inversions) < 3, "negative control: reversed LSC passed"

    curves_ok = True
    for tag in ("DC", "EC", "CC", "BC", "GC", "LSC"):
        if tag == "LSC":
            ranking = lsc_ranking
        else:
            ranking = ranking_from_scores(compute_centrality(karate, tag).scores, tag)
        seeds = list(ranking.ordered_nodes[:10])
        params = SirParams(beta=0.05, gamma=1.0, replications=300, rng_seed=77, max_steps=25)
        curve = spread_curve(karate, seeds, params)
        curves_ok &= curve[0] == len(seeds)
        curves_ok &= bool(np.all(np.diff(curve) >= 0))
        curves_ok &= len(curve) == 26
    report(
        11,
        beaten >= 3 and curves_ok,
        f"LSC inversions {lsc_inversions} vs {competitor_inversions}; "
        f"<= {beaten}/5 competitors; all curves anchored and non-decreasing",
    )
