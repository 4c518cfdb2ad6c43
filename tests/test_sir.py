import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lexcent import sir
from lexcent.datasets import load_dataset
from lexcent.graph import from_edges
from lexcent.sir import SirParams, _stream, score_all_nodes, spread_curve

from test_centrality import random_disconnected_graph, sparse_edge_sets
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
    params = SirParams(beta=0.5, max_steps=2)
    with pytest.raises(ValueError, match="empty"):
        spread_curve(g, [], params)
    with pytest.raises(ValueError, match="out of range"):
        spread_curve(g, [3], params)
    with pytest.raises(ValueError, match="integers"):
        spread_curve(g, [1.5], params)


def test_spread_curve_requires_max_steps():
    with pytest.raises(ValueError, match="max_steps"):
        spread_curve(path_graph(3), [0], SirParams(beta=0.5))


# ---------------------------------------------------------------------------
# deterministic limit cases


def test_beta_zero_single_seed():
    g = path_graph(4)
    finals, curve = sir._simulate(g, [(sir._check_seeds(g, [1]), stream())], SirParams(beta=0.0))
    assert finals.tolist() == [1]
    assert curve == [1, 1]  # seed recovers after one step


def test_beta_one_full_cascade():
    g = complete_graph(6)
    finals, _ = sir._simulate(g, [(sir._check_seeds(g, [0]), stream())], SirParams(beta=1.0))
    assert finals.tolist() == [6]


def test_beta_one_stays_within_component():
    g = from_edges(5, [(0, 1), (1, 2), (3, 4)])
    finals, _ = sir._simulate(g, [(sir._check_seeds(g, [0]), stream())], SirParams(beta=1.0))
    assert finals.tolist() == [3]
    finals, _ = sir._simulate(g, [(sir._check_seeds(g, [3]), stream())], SirParams(beta=1.0))
    assert finals.tolist() == [2]


def test_deterministic_cascade_curve_on_path():
    params = SirParams(beta=1.0, gamma=1.0, max_steps=6)
    g = path_graph(4)
    finals, curve = sir._simulate(g, [(sir._check_seeds(g, [0]), stream())], params)
    assert finals.tolist() == [4]
    assert curve == [1, 2, 3, 4, 4, 4, 4]


def test_gamma_one_cascade_depth_bounds_steps():
    # with gamma=1 each node transmits during exactly one step
    g = path_graph(5)
    finals, curve = sir._simulate(g, [(sir._check_seeds(g, [0]), stream())], SirParams(beta=1.0))
    assert finals.tolist() == [5]
    assert curve == [1, 2, 3, 4, 5, 5]


def test_max_steps_caps_run():
    params = SirParams(beta=1.0, gamma=0.5, max_steps=2)
    g = path_graph(10)
    finals, curve = sir._simulate(g, [(sir._check_seeds(g, [0]), stream(3))], params)
    assert len(curve) == 3
    assert finals.tolist() == [curve[-1]]
    assert curve[-1] <= 1 + 2 + 4  # at most two steps of spreading


def test_curve_is_cumulative_and_bounded():
    g = random_graph(15, 0.2, random.Random(2))
    params = SirParams(beta=0.4, gamma=0.7, max_steps=30)
    for seed in range(5):
        finals, curve = sir._simulate(g, [(sir._check_seeds(g, [seed]), stream(seed))], params)
        assert curve[0] == 1
        assert all(b >= a for a, b in zip(curve, curve[1:]))
        assert [curve[-1]] == finals.tolist() and curve[-1] <= g.node_count


# ---------------------------------------------------------------------------
# spreading scores


def test_score_beta_zero_exact():
    finals = simulated_node_finals(path_graph(4), 0, SirParams(beta=0.0, replications=50))
    assert sir._mean_std(finals) == (1.0, 0.0)


def test_score_isolated_seed():
    g = from_edges(3, [(0, 1)])
    finals = simulated_node_finals(g, 2, SirParams(beta=0.9, replications=50))
    assert sir._mean_std(finals)[0] == 1.0


def test_two_node_exact_expectation():
    g = from_edges(2, [(0, 1)])
    for beta in (0.1, 0.5, 0.9):
        reps = 4000
        finals = simulated_node_finals(g, 0, SirParams(beta=beta, replications=reps, rng_seed=7))
        se = math.sqrt(beta * (1 - beta) / reps)
        assert abs(sir._mean_std(finals)[0] - (1 + beta)) < 4 * se


def test_hub_spreads_more_than_leaf_on_karate():
    from lexcent.datasets import load_dataset

    g = load_dataset("karate")
    params = SirParams(beta=0.1, gamma=1.0, replications=1000, rng_seed=11)
    hub = int(np.argmax(g.degrees()))
    leaf = int(np.argmin(g.degrees()))
    hub_finals = simulated_node_finals(g, hub, params)
    leaf_finals = simulated_node_finals(g, leaf, params)
    assert sir._mean_std(hub_finals)[0] > sir._mean_std(leaf_finals)[0]


def test_vertex_transitive_scores_agree_within_noise():
    g = cycle_graph(8)
    params = SirParams(beta=0.3, gamma=1.0, replications=2000, rng_seed=5)
    means, _ = score_all_nodes(g, params)
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
            for w in g.indices[g.indptr[v]:g.indptr[v + 1]].tolist():
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
    engine_mean, engine_std = summary(simulated_node_finals(g, 0, params))
    ref_rng = random.Random(99)
    ref = [reference_final_size(g, [0], beta, gamma, ref_rng) for _ in range(reps)]
    ref_mean = sum(ref) / reps
    ref_var = sum((x - ref_mean) ** 2 for x in ref) / (reps - 1)
    se = math.sqrt(ref_var / reps + engine_std**2 / reps)
    assert abs(engine_mean - ref_mean) < 4 * se


# ---------------------------------------------------------------------------
# exact oracle: the per-replication simulator, compared bit for bit


SUSCEPTIBLE, INFECTIOUS, RECOVERED = 0, 1, 2


def reference_spread(adj, n, seeds, beta, gamma, max_steps, rng, curve):
    """One run; returns the final ever-infected count and optionally appends
    the cumulative count after each step to ``curve`` (curve[0] preloaded by
    the caller). Draw order is fixed: infection draws over the frontier's
    susceptible contacts, then recovery draws over the frontier.
    """
    state = np.zeros(n, dtype=np.uint8)
    state[seeds] = INFECTIOUS
    frontier = seeds
    ever = int(seeds.size)
    t = 0
    while frontier.size and (max_steps is None or t < max_steps):
        segments = [adj[v] for v in frontier]
        contacts = segments[0] if len(segments) == 1 else np.concatenate(segments)
        contacts = contacts[state[contacts] == SUSCEPTIBLE]
        if contacts.size:
            hits = contacts[rng.random(contacts.size) < beta]
            new = np.unique(hits)
        else:
            new = contacts
        if gamma >= 1.0:
            state[frontier] = RECOVERED
            survivors = frontier[:0]
        else:
            recovered = rng.random(frontier.size) < gamma
            state[frontier[recovered]] = RECOVERED
            survivors = frontier[~recovered]
        if new.size:
            state[new] = INFECTIOUS
            ever += int(new.size)
        frontier = new if survivors.size == 0 else np.concatenate([survivors, new])
        t += 1
        if curve is not None:
            curve.append(ever)
    return ever


def seed_array(seeds):
    return np.unique(np.asarray(seeds, dtype=np.int64)).astype(np.int32)


def adjacency_lists(g):
    return [g.indices[g.indptr[v]:g.indptr[v + 1]] for v in range(g.node_count)]


def reference_single_run(g, seeds, params, rng):
    """([final], curve) of one sir._simulate run, padded as it pads a capped
    curve."""
    seed_arr = seed_array(seeds)
    curve = [int(seed_arr.size)]
    final = reference_spread(adjacency_lists(g), g.node_count, seed_arr, params.beta,
                             params.gamma, params.max_steps, rng, curve)
    if params.max_steps is not None and len(curve) < params.max_steps + 1:
        curve.extend([final] * (params.max_steps + 1 - len(curve)))
    return [final], curve


def reference_node_finals(g, seed, params):
    """Final sizes of one node's replications in score_all_nodes' simulator
    path, run one at a time."""
    adj, seed_arr = adjacency_lists(g), seed_array([seed])
    finals = np.empty(params.replications, dtype=np.int64)
    for r in range(params.replications):
        finals[r] = reference_spread(adj, g.node_count, seed_arr, params.beta, params.gamma,
                                     params.max_steps, _stream(params.rng_seed, (seed, r)), None)
    return finals


def simulated_node_finals(g, seed, params):
    """Final sizes of sir._simulate's runs from ``seed`` alone, replication r
    on the (rng_seed, seed, r) stream that score_all_nodes' simulator path
    gives it."""
    runs = ((seed_array([seed]), _stream(params.rng_seed, (seed, r)))
            for r in range(params.replications))
    return sir._simulate(g, runs, params)[0]


def reference_curve(g, seeds, params):
    """spread_curve, run one replication at a time."""
    adj, seed_arr, steps = adjacency_lists(g), seed_array(seeds), params.max_steps
    curve_sum = np.zeros(steps + 1, dtype=np.float64)
    for r in range(params.replications):
        curve = [int(seed_arr.size)]
        reference_spread(adj, g.node_count, seed_arr, params.beta, params.gamma,
                         steps, _stream(params.rng_seed, (r,)), curve)
        curve.extend([curve[-1]] * (steps + 1 - len(curve)))
        curve_sum += curve
    return curve_sum / params.replications


def summary(finals):
    std = float(finals.std(ddof=1)) if finals.size > 1 else 0.0
    return float(finals.mean()), std


@pytest.mark.parametrize("rng_seed,key", [(0, (0,)), (1, (2999,)), (7, (3, 5)), (12345, (0, 9))])
def test_stream_draws_split_at_any_point(rng_seed, key):
    # the engine draws a run's infection and recovery uniforms in one call;
    # that equals the two separate calls only while this property holds
    for a, b in [(0, 5), (1, 1), (3, 1000), (1000, 3), (4097, 123)]:
        whole = _stream(rng_seed, key).random(a + b)
        rng = _stream(rng_seed, key)
        parts = np.concatenate([rng.random(a), rng.random(0), rng.random(b)])
        assert np.array_equal(parts, whole)
        rng, filled = _stream(rng_seed, key), np.empty(a + b)
        rng.random(out=filled[:a])
        rng.random(out=filled[a:])
        assert np.array_equal(filled, whole)


def simulation_cases():
    """A sparse graph (isolated nodes, several components, n >= 2), 1-3
    seeds, SIR settings, a replication count and a block size in runs."""
    return sparse_edge_sets(max_n=30).flatmap(
        lambda case: st.tuples(
            st.just(case),
            st.lists(st.integers(0, case[0] - 1), min_size=1, max_size=3, unique=True),
            st.sampled_from([0.0, 0.3, 1.0]),
            st.sampled_from([0.2, 1.0]),
            st.sampled_from([None, 0, 1, 5]),
            st.integers(1, 9),
            st.integers(1, 4),
            st.integers(0, 2**32),
        )
    )


@settings(max_examples=60, deadline=None)
@given(simulation_cases())
@example(((2, []), [0, 1], 1.0, 0.2, None, 7, 3, 0))
@example(((2, [(0, 1)]), [1], 0.3, 0.2, 5, 7, 3, 1))
@example(((12, [(i, i + 1) for i in range(1, 10)]), [1, 5, 10], 1.0, 0.2, None, 9, 2, 2))
@example(((30, [(1, j) for j in range(2, 29)] + [(5, 6), (7, 8)]), [1], 0.3, 0.2, 5, 5, 4, 3))
def test_engine_bitwise_equals_reference(case):
    (n, pairs), seeds, beta, gamma, max_steps, reps, block, rng_seed = case
    g = from_edges(n, pairs)
    params = SirParams(beta=beta, gamma=gamma, replications=reps, rng_seed=rng_seed,
                       max_steps=max_steps)
    # blocks of `block` runs, so most replication counts leave a partial block
    elements = block * max(g.node_count, g.indices.size, 1)
    with mock.patch.object(sir, "_STEP_ELEMENTS", elements):
        assert sir._block_runs(g) == block

        finals, curve = sir._simulate(
            g, [(sir._check_seeds(g, seeds), np.random.default_rng(rng_seed))], params)
        assert (finals.tolist(), curve) == reference_single_run(
            g, seeds, params, np.random.default_rng(rng_seed))

        finals = reference_node_finals(g, seeds[0], params)
        assert simulated_node_finals(g, seeds[0], params).tolist() == finals.tolist()
        assert sir._node_scores(g, [seeds[0]], params).tolist() == [finals.tolist()]

        if max_steps is not None:
            assert np.array_equal(spread_curve(g, seeds, params),
                                  reference_curve(g, seeds, params))

        if gamma < 1.0 or max_steps is not None:
            means, stds = score_all_nodes(g, params)
            for v in range(g.node_count):
                assert (means[v], stds[v]) == summary(
                    reference_node_finals(g, v, params)), f"node {v}"


def test_engine_equals_reference_on_karate_curve():
    # many replications per block, a connected graph and curves that plateau
    g = load_dataset("karate")
    params = SirParams(beta=0.2, gamma=0.5, replications=300, rng_seed=5, max_steps=12)
    assert np.array_equal(spread_curve(g, [0, 33], params), reference_curve(g, [0, 33], params))


@pytest.mark.parametrize("beta,gamma", [(1.0, 1.0), (0.8, 0.7)])
def test_simulate_curve_without_cap_runs_to_the_longest_run(beta, gamma):
    # blocks of 3 runs on path(12); from node v a run at beta = gamma = 1
    # lasts max(v, 11 - v) steps, so the longest runs (from 0 and 11) sit in
    # the second of four blocks and both neighbouring blocks end earlier
    g = path_graph(12)
    params = SirParams(beta=beta, gamma=gamma, replications=1, rng_seed=0)
    starts = [5, 6, 5, 0, 11, 3, 6, 5, 6, 4, 7]

    def runs():
        return [(seed_array([v]), _stream(6, (r,))) for r, v in enumerate(starts)]

    curves = []
    for seeds, rng in runs():
        curves.append([1])
        reference_spread(adjacency_lists(g), 12, seeds, beta, gamma, None, rng, curves[-1])
    lengths = [len(c) for c in curves]
    assert len(set(lengths)) > 1
    with mock.patch.object(sir, "_STEP_ELEMENTS", 3 * g.indices.size):
        assert sir._block_runs(g) == 3
        finals, curve = sir._simulate(g, runs(), params)
    assert finals.tolist() == [c[-1] for c in curves]
    assert len(curve) == max(lengths)
    assert curve[-1] == finals.sum()
    assert curve == [sum(c[min(t, len(c) - 1)] for c in curves) for t in range(len(curve))]


def reference_simulate(g, runs, params):
    """(finals, curve) of sir._simulate, run one replication at a time: each
    run's curve stays at its final size once it has ended."""
    curves = []
    for seeds, rng in runs:
        curves.append([int(seeds.size)])
        reference_spread(adjacency_lists(g), g.node_count, seeds, params.beta, params.gamma,
                         params.max_steps, rng, curves[-1])
    length = max(map(len, curves)) if params.max_steps is None else params.max_steps + 1
    curve = [sum(c[min(t, len(c) - 1)] for c in curves) for t in range(length)]
    return [c[-1] for c in curves], curve


def pool_cases():
    """A path of 2-12 nodes followed by 0-3 isolated nodes, 1-12 runs whose
    seed sets mix path and isolated nodes, and SIR settings. Runs from
    different points of the path last different numbers of steps, and a run
    from isolated seeds ends after one."""
    return st.tuples(st.integers(2, 12), st.integers(0, 3)).flatmap(
        lambda sizes: st.tuples(
            st.just(sizes),
            st.lists(st.lists(st.integers(0, sum(sizes) - 1), min_size=1, max_size=3,
                              unique=True), min_size=1, max_size=12),
            st.sampled_from([0.0, 0.5, 1.0]),
            st.sampled_from([0.4, 1.0]),
            st.sampled_from([None, 0, 1, 5]),
            st.integers(0, 2**32),
        )
    )


@settings(max_examples=80, deadline=None)
@given(pool_cases())
@example(((12, 2), [[0], [13], [6], [11], [12, 13], [5], [0, 11], [3]], 1.0, 1.0, None, 0))
@example(((12, 2), [[0], [13], [6], [11], [12, 13], [5], [0, 11], [3]], 1.0, 0.4, 5, 1))
@example(((9, 3), [[4], [0], [10], [8], [2, 9], [1]], 0.5, 0.4, None, 2))
@example(((5, 1), [[0], [5], [2, 4]], 0.0, 0.4, 1, 3))
@example(((5, 1), [[0], [5], [2, 4]], 1.0, 0.4, 0, 4))
def test_simulate_is_the_same_at_every_pool_size(case):
    (length, isolated), seed_sets, beta, gamma, max_steps, rng_seed = case
    g = from_edges(length + isolated, [(v, v + 1) for v in range(length - 1)])
    params = SirParams(beta=beta, gamma=gamma, rng_seed=rng_seed, max_steps=max_steps)

    def runs():
        return [(seed_array(seeds), _stream(rng_seed, (r,))) for r, seeds in enumerate(seed_sets)]

    expected = reference_simulate(g, runs(), params)
    for slots in range(1, 9):
        with mock.patch.object(sir, "_STEP_ELEMENTS", slots * max(g.node_count, g.indices.size)):
            assert sir._block_runs(g) == slots
            finals, curve = sir._simulate(g, iter(runs()), params)
        assert (finals.tolist(), curve) == expected, f"{slots} slots"


# ---------------------------------------------------------------------------
# determinism


def test_identical_params_identical_results():
    g = random_graph(12, 0.3, random.Random(4))
    params = SirParams(beta=0.2, gamma=0.8, replications=50, rng_seed=42)
    a = simulated_node_finals(g, 3, params)
    b = simulated_node_finals(g, 3, params)
    assert a.tolist() == b.tolist()


def test_score_all_nodes_rerun_is_identical():
    # gamma < 1 runs the batched simulator; a rerun must give the same result
    g = random_graph(10, 0.3, random.Random(6))
    for gamma in (1.0, 0.5):
        params = SirParams(beta=0.25, gamma=gamma, replications=40, rng_seed=13)
        first, _ = score_all_nodes(g, params)
        second, _ = score_all_nodes(g, params)
        assert np.array_equal(first, second)


def test_spread_curve_deterministic_and_anchored():
    g = random_graph(12, 0.3, random.Random(8))
    params = SirParams(beta=0.3, gamma=1.0, replications=30, rng_seed=1, max_steps=10)
    a = spread_curve(g, [0, 5], params)
    b = spread_curve(g, [0, 5], params)
    assert isinstance(a, np.ndarray) and a.dtype == np.float64
    assert np.array_equal(a, b)
    assert a[0] == 2.0
    assert len(a) == 11
    assert all(y >= x for x, y in zip(a, a[1:]))


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
    means, stds = score_all_nodes(g, SirParams(beta=beta, replications=reps, rng_seed=17))
    for v in range(g.node_count):
        sim_mean, sim_std = sir._mean_std(
            simulated_node_finals(g, v, SirParams(beta=beta, replications=reps, rng_seed=18)))
        se = math.sqrt((stds[v]**2 + sim_std**2) / reps)
        if se == 0.0:
            assert means[v] == sim_mean == 1.0  # isolated node
        else:
            assert abs(means[v] - sim_mean) < 4 * se, f"node {v}"


def test_percolation_limits_are_exact():
    g = random_disconnected_graph(random.Random(31))
    labels, sizes = reference_components(g)
    for beta, expected in ((0.0, np.ones(g.node_count)), (1.0, np.asarray(sizes)[labels])):
        means, stds = score_all_nodes(g, SirParams(beta=beta, replications=25, rng_seed=2))
        assert np.array_equal(means, expected)
        assert all(std == 0.0 for std in stds)


def test_percolation_two_node_expectation():
    g = from_edges(2, [(0, 1)])
    reps = 4000
    for beta in (0.1, 0.5, 0.9):
        means, _ = score_all_nodes(g, SirParams(beta=beta, replications=reps, rng_seed=7))
        se = math.sqrt(beta * (1 - beta) / reps)
        for mean in means:
            assert abs(mean - (1 + beta)) < 4 * se


def test_percolation_single_replication_has_zero_std():
    means, stds = score_all_nodes(path_graph(5), SirParams(beta=0.5, replications=1, rng_seed=3))
    assert all(std == 0.0 for std in stds)
    assert all(1.0 <= mean <= 5.0 for mean in means)


def test_simulator_single_replication_has_zero_std():
    # the simulator paths of score_all_nodes share one mean/std rule: ddof=1
    # over the replications, and 0 for just one
    g = random_disconnected_graph(random.Random(41))
    params = SirParams(beta=0.9, gamma=0.5, replications=1, rng_seed=5, max_steps=4)
    assert sir._mean_std(simulated_node_finals(g, 0, params))[1] == 0.0
    means, stds = score_all_nodes(g, SirParams(beta=0.9, gamma=0.5, replications=1))
    assert not stds.any() and (means >= 1.0).all()


def test_percolation_scores_follow_the_stream_design():
    g = random_disconnected_graph(random.Random(37))
    params = SirParams(beta=0.4, replications=60, rng_seed=9)
    sizes = percolation_sizes(g, params)
    means, stds = score_all_nodes(g, params)
    assert np.array_equal(means, sizes.mean(axis=0))
    assert np.allclose(stds, sizes.std(axis=0, ddof=1), rtol=1e-9, atol=0.0)


@pytest.mark.parametrize(
    "gamma,max_steps", [(0.5, None), (1.0, 2)], ids=["gamma0.5", "gamma1-steps2"]
)
def test_score_all_nodes_simulator_path_equals_single_node_runs(gamma, max_steps):
    # each node's pair, whichever call of the batched loop it falls in, is
    # that of the node's replications simulated on their own
    g = random_disconnected_graph(random.Random(43))
    params = SirParams(beta=0.35, gamma=gamma, replications=30, rng_seed=4,
                       max_steps=max_steps)
    means, stds = score_all_nodes(g, params)
    for v in range(g.node_count):
        assert (means[v], stds[v]) == sir._mean_std(simulated_node_finals(g, v, params))


@pytest.mark.parametrize("gamma,reps", [(1.0, 3), (0.5, 3), (0.5, 1)])
def test_score_all_nodes_returns_two_float64_arrays(gamma, reps):
    g = random_disconnected_graph(random.Random(47))
    means, stds = score_all_nodes(g, SirParams(beta=0.3, gamma=gamma, replications=reps))
    for arr in (means, stds):
        assert isinstance(arr, np.ndarray)
        assert arr.dtype == np.float64 and arr.shape == (g.node_count,)
    assert (means >= 1.0).all() and (stds >= 0.0).all()
    if reps == 1:
        assert not stds.any()
