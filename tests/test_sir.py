import math
import random

import numpy as np
import pytest

from lexcent.datasets import load_dataset
from lexcent.graph import from_edges
from lexcent.sir import (
    SirParams,
    _stream,
    mean_scores,
    run_single,
    score_all_nodes,
    spread_curve,
    spreading_score,
)

from test_centrality import random_disconnected_graph
from test_graph import (
    complete_graph,
    cycle_graph,
    path_graph,
    random_graph,
    reference_components,
)


def stream(seed=0):
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# parameter validation


def test_params_validation():
    with pytest.raises(ValueError):
        SirParams(beta=-0.1)
    with pytest.raises(ValueError):
        SirParams(beta=1.1)
    with pytest.raises(ValueError):
        SirParams(beta=0.5, gamma=0.0)
    with pytest.raises(ValueError):
        SirParams(beta=0.5, replications=0)
    with pytest.raises(ValueError, match="replications"):
        SirParams(beta=0.5, replications=2.5)
    with pytest.raises(ValueError, match="max_steps"):
        SirParams(beta=0.5, max_steps=2.5)
    with pytest.raises(ValueError, match="rng_seed"):
        SirParams(beta=0.5, rng_seed=-1)
    assert SirParams(beta=0.5, replications=np.int64(3)).replications == 3


def test_seed_validation():
    g = path_graph(3)
    params = SirParams(beta=0.5)
    with pytest.raises(ValueError):
        run_single(g, [], params, stream())
    with pytest.raises(ValueError):
        run_single(g, [3], params, stream())
    with pytest.raises(ValueError, match="integers"):
        run_single(g, [1.5], params, stream())


def test_spread_curve_requires_max_steps():
    with pytest.raises(ValueError, match="max_steps"):
        spread_curve(path_graph(3), [0], SirParams(beta=0.5))


# ---------------------------------------------------------------------------
# deterministic limit cases


def test_beta_zero_single_seed():
    final, curve = run_single(path_graph(4), [1], SirParams(beta=0.0), stream())
    assert final == 1
    assert curve == [1, 1]  # seed recovers after one step


def test_beta_one_full_cascade():
    g = complete_graph(6)
    final, _ = run_single(g, [0], SirParams(beta=1.0), stream())
    assert final == 6


def test_beta_one_stays_within_component():
    g = from_edges(5, [(0, 1), (1, 2), (3, 4)])
    final, _ = run_single(g, [0], SirParams(beta=1.0), stream())
    assert final == 3
    final, _ = run_single(g, [3], SirParams(beta=1.0), stream())
    assert final == 2


def test_deterministic_cascade_curve_on_path():
    params = SirParams(beta=1.0, gamma=1.0, max_steps=6)
    final, curve = run_single(path_graph(4), [0], params, stream())
    assert final == 4
    assert curve == [1, 2, 3, 4, 4, 4, 4]


def test_gamma_one_cascade_depth_bounds_steps():
    # with gamma=1 each node transmits during exactly one step
    final, curve = run_single(path_graph(5), [0], SirParams(beta=1.0), stream())
    assert final == 5
    assert curve == [1, 2, 3, 4, 5, 5]


def test_max_steps_caps_run():
    params = SirParams(beta=1.0, gamma=0.5, max_steps=2)
    final, curve = run_single(path_graph(10), [0], params, stream(3))
    assert len(curve) == 3
    assert final == curve[-1]
    assert final <= 1 + 2 + 4  # at most two steps of spreading


def test_curve_is_cumulative_and_bounded():
    g = random_graph(15, 0.2, random.Random(2))
    params = SirParams(beta=0.4, gamma=0.7, max_steps=30)
    for seed in range(5):
        final, curve = run_single(g, [seed], params, stream(seed))
        assert curve[0] == 1
        assert all(b >= a for a, b in zip(curve, curve[1:]))
        assert curve[-1] == final <= g.node_count


# ---------------------------------------------------------------------------
# spreading scores


def test_score_beta_zero_exact():
    res = spreading_score(path_graph(4), 0, SirParams(beta=0.0, replications=50))
    assert res.mean_score == 1.0
    assert res.score_std == 0.0


def test_score_isolated_seed():
    g = from_edges(3, [(0, 1)])
    res = spreading_score(g, 2, SirParams(beta=0.9, replications=50))
    assert res.mean_score == 1.0


def test_two_node_exact_expectation():
    g = from_edges(2, [(0, 1)])
    for beta in (0.1, 0.5, 0.9):
        reps = 4000
        res = spreading_score(g, 0, SirParams(beta=beta, replications=reps, rng_seed=7))
        se = math.sqrt(beta * (1 - beta) / reps)
        assert abs(res.mean_score - (1 + beta)) < 4 * se


def test_hub_spreads_more_than_leaf_on_karate():
    from lexcent.datasets import load_dataset

    g = load_dataset("karate")
    params = SirParams(beta=0.1, gamma=1.0, replications=1000, rng_seed=11)
    hub = int(np.argmax(g.degrees()))
    leaf = int(np.argmin(g.degrees()))
    hub_score = spreading_score(g, hub, params).mean_score
    leaf_score = spreading_score(g, leaf, params).mean_score
    assert hub_score > leaf_score


def test_vertex_transitive_scores_agree_within_noise():
    g = cycle_graph(8)
    params = SirParams(beta=0.3, gamma=1.0, replications=2000, rng_seed=5)
    means = mean_scores(score_all_nodes(g, params))
    assert means.max() - means.min() < 0.25


# ---------------------------------------------------------------------------
# dynamics oracle: independent set-based simulator, compared statistically


def reference_final_size(g, seeds, beta, gamma, rng):
    susceptible = set(range(g.node_count)) - set(seeds)
    infectious = set(seeds)
    ever = len(infectious)
    while infectious:
        newly = set()
        for v in sorted(infectious):
            for w in g.neighbors(v):
                w = int(w)
                if w in susceptible and rng.random() < beta:
                    newly.add(w)
        for v in sorted(infectious.copy()):
            if rng.random() < gamma:
                infectious.remove(v)
        susceptible -= newly
        infectious |= newly
        ever += len(newly)
    return ever


def test_engine_matches_reference_distribution():
    g = random_graph(8, 0.4, random.Random(14))
    beta, gamma, reps = 0.3, 0.5, 4000
    params = SirParams(beta=beta, gamma=gamma, replications=reps, rng_seed=3)
    engine = spreading_score(g, 0, params, keep_replications=True)
    ref_rng = random.Random(99)
    ref = [reference_final_size(g, [0], beta, gamma, ref_rng) for _ in range(reps)]
    ref_mean = sum(ref) / reps
    ref_var = sum((x - ref_mean) ** 2 for x in ref) / (reps - 1)
    se = math.sqrt(ref_var / reps + engine.score_std**2 / reps)
    assert abs(engine.mean_score - ref_mean) < 4 * se


# ---------------------------------------------------------------------------
# determinism


def test_identical_params_identical_results():
    g = random_graph(12, 0.3, random.Random(4))
    params = SirParams(beta=0.2, gamma=0.8, replications=50, rng_seed=42)
    a = spreading_score(g, 3, params, keep_replications=True)
    b = spreading_score(g, 3, params, keep_replications=True)
    assert a.per_replication_scores == b.per_replication_scores


def test_score_all_nodes_thread_invariant():
    # gamma < 1 runs the per-node simulator on the thread pool
    g = random_graph(10, 0.3, random.Random(6))
    for gamma in (1.0, 0.5):
        params = SirParams(beta=0.25, gamma=gamma, replications=40, rng_seed=13)
        serial = mean_scores(score_all_nodes(g, params, threads=1))
        threaded = mean_scores(score_all_nodes(g, params, threads=8))
        assert np.array_equal(serial, threaded)


def test_spread_curve_deterministic_and_anchored():
    g = random_graph(12, 0.3, random.Random(8))
    params = SirParams(beta=0.3, gamma=1.0, replications=30, rng_seed=1, max_steps=10)
    a = spread_curve(g, [0, 5], params)
    b = spread_curve(g, [0, 5], params)
    assert np.array_equal(a.curve, b.curve)
    assert a.curve[0] == 2.0
    assert len(a.curve) == 11
    assert all(y >= x for x, y in zip(a.curve, a.curve[1:]))


# ---------------------------------------------------------------------------
# score_all_nodes: one bond-percolation sample per replication at gamma = 1


def percolation_sizes(g, params):
    """Per-replication cluster sizes, rebuilt from the documented stream
    design: replication r opens edge k of g.edges() when draw k of the
    (rng_seed, r) stream is below beta."""
    edges = list(g.edges())
    sizes = np.empty((params.replications, g.node_count), dtype=np.int64)
    for r in range(params.replications):
        draws = _stream(params.rng_seed, (r,)).random(len(edges))
        opened = [e for e, x in zip(edges, draws) if x < params.beta]
        labels, counts = reference_components(from_edges(g.node_count, opened))
        sizes[r] = np.asarray(counts)[labels]
    return sizes


@pytest.mark.parametrize(
    "g,beta",
    [
        (load_dataset("karate"), 0.1),
        (random_disconnected_graph(random.Random(23)), 0.3),
    ],
    ids=["karate", "disconnected"],
)
def test_percolation_scores_match_simulator(g, beta):
    reps = 20_000
    perc = score_all_nodes(g, SirParams(beta=beta, replications=reps, rng_seed=17))
    for v, fast in enumerate(perc):
        sim = spreading_score(g, v, SirParams(beta=beta, replications=reps, rng_seed=18))
        se = math.sqrt((fast.score_std**2 + sim.score_std**2) / reps)
        if se == 0.0:
            assert fast.mean_score == sim.mean_score == 1.0  # isolated node
        else:
            assert abs(fast.mean_score - sim.mean_score) < 4 * se, f"node {v}"


def test_percolation_limits_are_exact():
    g = random_disconnected_graph(random.Random(31))
    labels, sizes = reference_components(g)
    for beta, expected in ((0.0, np.ones(g.node_count)), (1.0, np.asarray(sizes)[labels])):
        results = score_all_nodes(g, SirParams(beta=beta, replications=25, rng_seed=2))
        assert np.array_equal(mean_scores(results), expected)
        assert all(r.score_std == 0.0 for r in results)


def test_percolation_two_node_expectation():
    g = from_edges(2, [(0, 1)])
    reps = 4000
    for beta in (0.1, 0.5, 0.9):
        results = score_all_nodes(g, SirParams(beta=beta, replications=reps, rng_seed=7))
        se = math.sqrt(beta * (1 - beta) / reps)
        for res in results:
            assert abs(res.mean_score - (1 + beta)) < 4 * se


def test_percolation_single_replication_has_zero_std():
    results = score_all_nodes(path_graph(5), SirParams(beta=0.5, replications=1, rng_seed=3))
    assert all(r.score_std == 0.0 for r in results)
    assert all(1.0 <= r.mean_score <= 5.0 for r in results)


def test_percolation_scores_follow_the_stream_design():
    g = random_disconnected_graph(random.Random(37))
    params = SirParams(beta=0.4, replications=60, rng_seed=9)
    sizes = percolation_sizes(g, params)
    results = score_all_nodes(g, params)
    assert np.array_equal(mean_scores(results), sizes.mean(axis=0))
    stds = np.array([r.score_std for r in results])
    assert np.allclose(stds, sizes.std(axis=0, ddof=1), rtol=1e-9, atol=0.0)


@pytest.mark.parametrize(
    "gamma,max_steps", [(0.5, None), (1.0, 2)], ids=["gamma0.5", "gamma1-steps2"]
)
def test_score_all_nodes_simulator_path_equals_spreading_score(gamma, max_steps):
    g = random_disconnected_graph(random.Random(43))
    params = SirParams(beta=0.35, gamma=gamma, replications=30, rng_seed=4,
                       max_steps=max_steps)
    for v, res in enumerate(score_all_nodes(g, params)):
        single = spreading_score(g, v, params)
        assert (res.mean_score, res.score_std) == (single.mean_score, single.score_std)
