import math
import random
import tracemalloc
from collections import deque

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lexcent.centrality import (
    CC_COMPONENT_SCALED,
    CC_PAPER_LITERAL,
    PowerIterationError,
    betweenness_centrality,
    closeness_centrality,
    compute_centrality,
    degree_centrality,
    eigenvector_centrality,
    gravity_centrality,
    _closeness_at,
    _gravity_at,
    _scores_reader,
)
from lexcent.graph import from_edges, generate_barabasi_albert, k_shell

from test_graph import complete_graph, cycle_graph, path_graph, queue_bfs, random_graph


def star_graph(leaves):
    return from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def random_connected_graph(n, rng):
    """Random spanning tree plus extra random edges."""
    edges = [(rng.randrange(0, v), v) for v in range(1, n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.3:
                edges.append((i, j))
    return from_edges(n, edges)


def permute_graph(g, perm):
    return from_edges(g.node_count, [(perm[u], perm[v]) for u, v in g.edges()])


# ---------------------------------------------------------------------------
# degree


def test_dc_path_middle_is_one():
    assert degree_centrality(path_graph(3)).scores[1] == 1.0


def test_dc_isolated_node_is_zero():
    g = from_edges(4, [(0, 1), (1, 2)])
    assert degree_centrality(g).scores[3] == 0.0


def test_dc_range_and_maximum():
    g = random_graph(20, 0.3, random.Random(0))
    scores = degree_centrality(g).scores
    assert np.all((scores >= 0) & (scores <= 1))
    degrees = g.degrees()
    assert set(np.flatnonzero(scores == scores.max())) == set(
        np.flatnonzero(degrees == degrees.max())
    )


def test_dc_requires_two_nodes():
    with pytest.raises(ValueError):
        degree_centrality(from_edges(1, []))


# ---------------------------------------------------------------------------
# eigenvector


def eigh_oracle(g):
    """Dense eigendecomposition: unit-norm nonnegative dominant eigenvector."""
    n = g.node_count
    a = np.zeros((n, n))
    for u, v in g.edges():
        a[u, v] = a[v, u] = 1.0
    eigvals, eigvecs = np.linalg.eigh(a)
    vec = eigvecs[:, -1]
    if vec.sum() < 0:
        vec = -vec
    return eigvals[-1], vec / np.linalg.norm(vec)


def test_ec_triangle_uniform():
    vec = eigenvector_centrality(complete_graph(3))
    assert np.allclose(vec.scores, 1 / math.sqrt(3))
    assert vec.params["eigenvalue"] == pytest.approx(2.0, abs=1e-6)


def test_ec_star_analytic():
    vec = eigenvector_centrality(star_graph(3), tol=1e-12)
    assert vec.scores[0] == pytest.approx(1 / math.sqrt(2), abs=1e-8)
    assert np.allclose(vec.scores[1:], 1 / math.sqrt(6), atol=1e-8)
    assert vec.params["eigenvalue"] == pytest.approx(math.sqrt(3), abs=1e-8)


def test_ec_two_disjoint_triangles_stays_uniform():
    edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
    vec = eigenvector_centrality(from_edges(6, edges))
    assert np.allclose(vec.scores, 1 / math.sqrt(6))


def test_ec_unit_norm_and_residual():
    rng = random.Random(8)
    for _ in range(20):
        g = random_connected_graph(rng.randrange(3, 12), rng)
        vec = eigenvector_centrality(g, tol=1e-9)
        assert np.linalg.norm(vec.scores) == pytest.approx(1.0, abs=1e-12)
        n = g.node_count
        a = np.zeros((n, n))
        for u, v in g.edges():
            a[u, v] = a[v, u] = 1.0
        lam = vec.params["eigenvalue"]
        assert np.max(np.abs(a @ vec.scores - lam * vec.scores)) < 10 * 1e-9
        # exactly the Rayleigh quotient x @ (A x) of the returned x, taken
        # with the sparse product the power iteration uses
        rows = np.repeat(np.arange(n), np.diff(g.indptr))
        assert lam == float(vec.scores @ np.bincount(rows, weights=vec.scores[g.indices]))


def test_ec_matches_dense_eigendecomposition():
    rng = random.Random(21)
    for _ in range(30):
        g = random_connected_graph(rng.randrange(2, 9), rng)
        vec = eigenvector_centrality(g, tol=1e-12, max_iter=20000)
        _, expected = eigh_oracle(g)
        assert np.max(np.abs(vec.scores - expected)) < 1e-6


def test_ec_edgeless_graph_is_an_error():
    with pytest.raises(ValueError):
        eigenvector_centrality(from_edges(3, []))


def test_ec_nonconvergence_error_carries_iterate():
    with pytest.raises(PowerIterationError) as err:
        eigenvector_centrality(star_graph(4), max_iter=1)
    assert err.value.iterations == 1
    assert err.value.scores.shape == (5,)
    assert err.value.delta > 0


# ---------------------------------------------------------------------------
# closeness


def test_cc_path_middle_component_scaled():
    assert closeness_centrality(path_graph(3)).scores[1] == pytest.approx(1.0)


def test_cc_path_middle_paper_literal():
    vec = closeness_centrality(path_graph(3), convention=CC_PAPER_LITERAL)
    assert vec.scores[1] == pytest.approx(1.5)


def test_cc_isolated_node_is_zero():
    g = from_edges(3, [(0, 1)])
    for convention in ("component_scaled", "paper_literal"):
        assert closeness_centrality(g, convention=convention).scores[2] == 0.0


def test_cc_component_scaled_in_unit_interval():
    g = random_graph(15, 0.2, random.Random(2))
    scores = closeness_centrality(g).scores
    assert np.all((scores >= 0) & (scores <= 1.0))


def test_cc_conventions_agree_on_ranking_for_connected():
    rng = random.Random(4)
    g = random_connected_graph(10, rng)
    a = closeness_centrality(g).scores
    b = closeness_centrality(g, convention=CC_PAPER_LITERAL).scores
    assert np.array_equal(np.argsort(a), np.argsort(b))


def test_cc_matches_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(6)
    g = random_graph(20, 0.15, rng)
    ng = nx.Graph()
    ng.add_nodes_from(range(20))
    ng.add_edges_from(g.edges())
    expected = nx.closeness_centrality(ng)
    mine = closeness_centrality(g).scores
    for v in range(20):
        assert mine[v] == pytest.approx(expected[v], abs=1e-12)


def reference_closeness(g, convention):
    """One FIFO BFS per source, then the convention's formula on Python
    ints: the per-source loop the bit-packed kernel must reproduce bit for
    bit."""
    n = g.node_count
    scores = np.zeros(n)
    for i in range(n):
        dist = np.array(queue_bfs(g, i))
        reached = dist > 0
        total = int(dist[reached].sum())
        if total == 0:
            continue
        if convention == CC_PAPER_LITERAL:
            scores[i] = n / total
        else:
            r = int(reached.sum()) + 1
            scores[i] = ((r - 1) / total) * ((r - 1) / (n - 1))
    return scores


def reference_gravity(g, radius, exponent):
    """One FIFO BFS per source, then each in-radius node's term added in
    ascending node order: the per-source loop the bit-packed kernel must
    reproduce bit for bit."""
    shells = k_shell(g).tolist()
    scores = np.zeros(g.node_count)
    for i in range(g.node_count):
        acc = 0.0
        for j, d in enumerate(queue_bfs(g, i)):
            if 1 <= d <= radius:
                acc += (shells[i] * shells[j]) / (d**exponent)
        scores[i] = acc
    return scores


def sparse_edge_sets(max_n=150):
    """(n, pairs) with 2 <= n <= max_n: up to n random pairs among nodes
    1..n-2, so nodes 0 and n-1 stay isolated and most cases have several
    components; sizes cross the 64- and 128-source block boundaries."""
    return st.integers(min_value=2, max_value=max_n).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(st.integers(1, max(1, n - 2)), st.integers(1, max(1, n - 2))),
                max_size=n,
            ),
        )
    )


_STAR = (40, [(0, j) for j in range(1, 40)])
_PATH_200 = (200, [(i, i + 1) for i in range(199)])


@settings(max_examples=60, deadline=None)
@given(sparse_edge_sets())
@example((2, []))
@example((2, [(0, 1)]))
@example((64, [(i, i + 1) for i in range(1, 62)]))
@example((65, [(i, (3 * i) % 63 + 1) for i in range(1, 64)]))
@example(_STAR)
@example(_PATH_200)
def test_cc_bitwise_equals_reference(case):
    g = from_edges(*case)
    for convention in (CC_COMPONENT_SCALED, CC_PAPER_LITERAL):
        mine = closeness_centrality(g, convention=convention).scores
        assert np.array_equal(mine, reference_closeness(g, convention))


# ---------------------------------------------------------------------------
# betweenness


def brute_force_betweenness(g, normalized):
    """All-pairs shortest-path enumeration by exhaustive simple-path search."""
    n = g.node_count
    adj = [set(g.indices[g.indptr[v]:g.indptr[v + 1]].tolist()) for v in range(n)]

    def all_simple_paths(s, t):
        paths = []
        stack = [(s, [s])]
        while stack:
            v, path = stack.pop()
            if v == t:
                paths.append(path)
                continue
            for w in adj[v]:
                if w not in path:
                    stack.append((w, path + [w]))
        return paths

    bc = [0.0] * n
    for s in range(n):
        for t in range(s + 1, n):
            paths = all_simple_paths(s, t)
            if not paths:
                continue
            shortest = min(len(p) for p in paths)
            paths = [p for p in paths if len(p) == shortest]
            for v in range(n):
                through = sum(1 for p in paths if v in p[1:-1])
                bc[v] += through / len(paths)
    if normalized:
        scale = (n - 1) * (n - 2) / 2.0
        bc = [x / scale for x in bc]
    return bc


def test_bc_path_middle():
    assert betweenness_centrality(path_graph(3)).scores[1] == pytest.approx(1.0)


def test_bc_cycle_c4():
    raw = betweenness_centrality(cycle_graph(4), normalized=False).scores
    assert np.allclose(raw, 0.5)
    norm = betweenness_centrality(cycle_graph(4)).scores
    assert np.allclose(norm, 0.5 / 3)


def test_bc_leaf_is_zero():
    g = from_edges(4, [(0, 1), (1, 2), (2, 3)])
    scores = betweenness_centrality(g).scores
    assert scores[0] == 0.0 and scores[3] == 0.0


def test_bc_matches_brute_force():
    rng = random.Random(13)
    for _ in range(40):
        g = random_connected_graph(rng.randrange(3, 9), rng)
        for normalized in (False, True):
            mine = betweenness_centrality(g, normalized=normalized).scores
            expected = brute_force_betweenness(g, normalized)
            assert np.allclose(mine, expected, atol=1e-12)


def test_bc_matches_networkx_on_larger_graph():
    nx = pytest.importorskip("networkx")
    g = random_graph(25, 0.2, random.Random(1))
    expected = nx.betweenness_centrality(nx.Graph(list(g.edges())), normalized=True)
    mine = betweenness_centrality(g).scores
    for v, value in expected.items():
        assert mine[v] == pytest.approx(value, abs=1e-10)


def reference_betweenness(g, normalized):
    """Brandes' queue-and-stack formulation, one source at a time: the oracle
    the level-synchronous kernel must reproduce bit for bit."""
    n = g.node_count
    adj = [g.indices[g.indptr[v]:g.indptr[v + 1]].tolist() for v in range(n)]
    bc = np.zeros(n)
    for s in range(n):
        stack = []
        preds = [[] for _ in range(n)]
        sigma = np.zeros(n)
        sigma[s] = 1.0
        dist = np.full(n, -1, dtype=np.int64)
        dist[s] = 0
        queue = deque([s])
        while queue:
            v = queue.popleft()
            stack.append(v)
            for w in adj[v]:
                if dist[w] < 0:
                    dist[w] = dist[v] + 1
                    queue.append(w)
                if dist[w] == dist[v] + 1:
                    sigma[w] += sigma[v]
                    preds[w].append(v)
        delta = np.zeros(n)
        while stack:
            w = stack.pop()
            coeff = (1.0 + delta[w]) / sigma[w]
            for v in preds[w]:
                delta[v] += sigma[v] * coeff
            if w != s:
                bc[w] += delta[w]
    bc /= 2.0
    if normalized:
        bc /= (n - 1) * (n - 2) / 2.0
    return bc


def complete_bipartite_graph(a, b):
    return from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def grid_graph(rows, cols):
    def node(r, c):
        return r * cols + c

    edges = [(node(r, c), node(r, c + 1)) for r in range(rows) for c in range(cols - 1)]
    edges += [(node(r, c), node(r + 1, c)) for r in range(rows - 1) for c in range(cols)]
    return from_edges(rows * cols, edges)


def hubs_with_tails(rng):
    """K(2,300) plus 40 nodes each joined to 1-3 random nodes of the 300:
    levels of 300 nodes whose dependency terms are unequal fractions, so the
    order of the terms within such a level shows in the sums."""
    edges = [(hub, 2 + i) for hub in (0, 1) for i in range(300)]
    edges += [(302 + j, 2 + rng.randrange(300))
              for j in range(40) for _ in range(rng.randrange(1, 4))]
    return from_edges(342, edges)


def random_disconnected_graph(rng):
    """Two random blocks with no edge between them, plus isolated nodes."""
    sizes = [rng.randrange(2, 15), rng.randrange(2, 15)]
    isolated = rng.randrange(1, 4)
    edges, base = [], 0
    for size in sizes:
        p = rng.uniform(0.1, 0.7)
        edges += [(base + i, base + j) for i in range(size)
                  for j in range(i + 1, size) if rng.random() < p]
        base += size
    # shuffle ids so blocks and isolated nodes interleave
    perm = list(range(base + isolated))
    rng.shuffle(perm)
    return from_edges(base + isolated, [(perm[u], perm[v]) for u, v in edges])


def assert_bc_equals_reference(g):
    for normalized in (True, False):
        mine = betweenness_centrality(g, normalized=normalized).scores
        assert np.array_equal(mine, reference_betweenness(g, normalized))


@pytest.mark.parametrize(
    "g",
    [
        path_graph(3),
        cycle_graph(6),
        complete_bipartite_graph(3, 4),
        star_graph(7),
        complete_graph(6),
        generate_barabasi_albert(300, 3, 5),
        # levels of more than 256 nodes: the backward pass sorts uint16 keys
        star_graph(300),
        complete_bipartite_graph(2, 300),
        hubs_with_tails(random.Random(0)),
        # heavy ties and large path counts
        grid_graph(12, 12),
        # a long diameter: one node per level
        path_graph(130),
        # sources whose component is a single node, and two components of
        # different sizes: each source stops at its own component's size
        from_edges(6, [(1, 2), (2, 3)]),
        from_edges(9, [(0, 4), (4, 8), (8, 0), (1, 3), (3, 5), (5, 7), (7, 2)]),
        # the walk starts at depth 1, the source's row: from the centre that
        # row is the whole star, from a leaf it is the centre alone (here
        # the centre is the last id, so leaves are read first)
        from_edges(7, [(6, j) for j in range(6)]),
        # a two-node component stops at depth 1 beside a larger one
        from_edges(7, [(0, 1), (2, 3), (3, 4), (4, 5), (5, 6), (6, 2)]),
        # an isolated source, read first
        from_edges(4, [(1, 2), (2, 3), (3, 1)]),
    ],
    ids=[
        "n3", "C6", "K3,4", "star", "K6", "BA300", "star300", "K2,300", "K2,300+tails",
        "grid12", "P130", "P3+isolated", "K3+P5", "star-centre-last", "K2+C5",
        "isolated+K3",
    ],
)
def test_bc_bitwise_equals_reference(g):
    assert_bc_equals_reference(g)


def test_bc_bitwise_equals_reference_on_disconnected_graphs():
    rng = random.Random(29)
    for _ in range(30):
        assert_bc_equals_reference(random_disconnected_graph(rng))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=3, max_value=40).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                min_size=n,
                max_size=3 * n,
            ),
        )
    )
)
def test_bc_bitwise_equals_reference_on_random_edge_sets(case):
    n, pairs = case
    assert_bc_equals_reference(from_edges(n, pairs))


# ---------------------------------------------------------------------------
# gravity


def brute_force_gravity(g, radius=3, exponent=2):
    """Pairwise accumulation from dict-based BFS, independent of the
    implementation's array pipeline."""
    n = g.node_count
    shells = k_shell(g).tolist()
    scores = []
    for i in range(n):
        dist = {i: 0}
        queue = deque([i])
        while queue:
            v = queue.popleft()
            for w in g.indices[g.indptr[v]:g.indptr[v + 1]].tolist():
                if w not in dist:
                    dist[w] = dist[v] + 1
                    queue.append(w)
        total = 0.0
        for j, d in dist.items():
            if 1 <= d <= radius:
                total += shells[i] * shells[j] / d**exponent
        scores.append(total)
    return scores


def test_gc_cycle_c4_hand_value():
    assert np.allclose(gravity_centrality(cycle_graph(4)).scores, 9.0)


def test_gc_single_edge():
    assert gravity_centrality(from_edges(2, [(0, 1)])).scores.tolist() == [1.0, 1.0]


def test_gc_isolated_node_is_zero():
    g = from_edges(3, [(0, 1)])
    assert gravity_centrality(g).scores[2] == 0.0


def test_gc_matches_brute_force():
    rng = random.Random(19)
    for _ in range(25):
        g = random_graph(rng.randrange(2, 12), 0.3, rng)
        mine = gravity_centrality(g).scores
        assert np.allclose(mine, brute_force_gravity(g), atol=1e-9)


def test_gc_radius_saturates_on_small_diameter():
    rng = random.Random(23)
    for _ in range(20):
        g = random_connected_graph(7, rng)
        diameter = max(max(queue_bfs(g, s)) for s in range(g.node_count))
        if diameter > 3:
            continue
        a = gravity_centrality(g, radius=3).scores
        b = gravity_centrality(g, radius=g.node_count).scores
        assert np.allclose(a, b)


def test_gc_rejects_bad_radius():
    with pytest.raises(ValueError):
        gravity_centrality(path_graph(3), radius=0)
    with pytest.raises(ValueError):
        gravity_centrality(path_graph(3), radius=2.5)


@settings(max_examples=60, deadline=None)
@given(
    sparse_edge_sets(),
    st.integers(min_value=1, max_value=4),
    st.sampled_from([0, 1, 2, 3, -1]),
)
@example((2, []), 3, 2)
@example((2, [(0, 1)]), 1, -1)
@example((64, [(i, i + 1) for i in range(1, 62)]), 4, 3)
@example((65, [(i, (3 * i) % 63 + 1) for i in range(1, 64)]), 2, 0)
@example(_STAR, 2, 1)
@example(_PATH_200, 4, 2)
def test_gc_bitwise_equals_reference(case, radius, exponent):
    g = from_edges(*case)
    mine = gravity_centrality(g, radius=radius, exponent=exponent).scores
    assert np.array_equal(mine, reference_gravity(g, radius, exponent))


@pytest.mark.parametrize("radius", [1, 2, 3, 4])
@pytest.mark.parametrize("exponent", [0, 1, 2, 3, -1])
def test_gc_bitwise_equals_reference_on_mixed_shells(radius, exponent):
    # a BA(100,4) core with a 30-node tail and two chords: k-shell indices
    # 1 to 4 across three blocks of sources
    core = list(generate_barabasi_albert(100, 4, 7).edges())
    tail = [(7, 100)] + [(i, i + 1) for i in range(100, 129)] + [(110, 112), (112, 114)]
    g = from_edges(130, core + tail)
    mine = gravity_centrality(g, radius=radius, exponent=exponent).scores
    assert np.array_equal(mine, reference_gravity(g, radius, exponent))


@pytest.mark.parametrize("n", [63, 64, 65, 128, 129])
def test_gc_bitwise_equals_reference_at_block_edges(n):
    # sources go 64 to a block: one short of a block, one block, one over,
    # two blocks and one over; sparse random edges leave isolated nodes and
    # several components
    g = random_graph(n, 3.0 / n, random.Random(n))
    for radius, exponent in ((1, 2), (3, 2), (5, 3), (2, 0), (4, -1)):
        mine = gravity_centrality(g, radius=radius, exponent=exponent).scores
        assert np.array_equal(mine, reference_gravity(g, radius, exponent))


def test_gc_keeps_two_byte_distances_beyond_radius_255():
    # on path(300) with radius 299, distances up to 299 do not fit a byte
    g = path_graph(300)
    for exponent in (1, 2):
        mine = gravity_centrality(g, radius=299, exponent=exponent).scores
        assert np.array_equal(mine, reference_gravity(g, 299, exponent))


@pytest.mark.parametrize("radius, exponent", [(299, 2), (3, 2), (2, 1)])
def test_gravity_at_shuffled_sources_equals_reference(radius, exponent):
    # the tie-driven LSC reader asks for scattered nodes in any order
    rng = random.Random(radius)
    core = list(generate_barabasi_albert(100, 4, 7).edges())
    tails = [(7, 100)] + [(i, i + 1) for i in range(100, 299)] + [(110, 112)]
    for g in (path_graph(300), from_edges(300, core + tails)):
        expected = reference_gravity(g, radius, exponent)
        for size in (1, 63, 65, 200):
            sources = np.array(rng.sample(range(g.node_count), size))
            assert np.array_equal(_gravity_at(g, sources, radius, exponent), expected[sources])


def test_gc_traced_peak_memory():
    # per 64-source block: a byte per (node, source) distance and chunks of
    # 2**13 terms; a 64 x n float64 term block and its row cumsum peaked at
    # 2.19 MB here
    g = generate_barabasi_albert(1000, 10, 1)
    tracemalloc.start()
    try:
        gravity_centrality(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


# ---------------------------------------------------------------------------
# shared properties


@pytest.mark.parametrize("measure", ["DC", "EC", "CC", "BC", "GC"])
def test_permutation_equivariance(measure):
    rng = random.Random(31)
    for _ in range(5):
        g = random_connected_graph(rng.randrange(4, 15), rng)
        perm = list(range(g.node_count))
        rng.shuffle(perm)
        permuted = permute_graph(g, perm)
        base = compute_centrality(g, measure).scores
        moved = compute_centrality(permuted, measure).scores
        for v in range(g.node_count):
            assert moved[perm[v]] == pytest.approx(base[v], abs=1e-8)


def test_all_scores_finite_and_nonnegative():
    g = random_graph(12, 0.25, random.Random(37))
    for measure in ("DC", "CC", "BC", "GC"):
        scores = compute_centrality(g, measure).scores
        assert np.all(np.isfinite(scores))
        assert np.all(scores >= 0)


# ---------------------------------------------------------------------------
# scores at a subset of nodes


@settings(max_examples=60, deadline=None)
@given(sparse_edge_sets(), st.randoms(use_true_random=False))
@example((2, []), random.Random(0))
@example(_PATH_200, random.Random(1))
@example((130, [(i, (7 * i) % 127 + 1) for i in range(1, 128)]), random.Random(2))
def test_cc_and_gc_on_a_source_subset_equal_the_full_vectors(case, rng):
    g = from_edges(*case)
    n = g.node_count
    # a random subset in random order: block membership and block offsets
    # differ from the full run's, and with n > 64 the subset spans blocks
    sources = np.array(rng.sample(range(n), rng.randrange(1, n + 1)))
    for convention in (CC_COMPONENT_SCALED, CC_PAPER_LITERAL):
        full = closeness_centrality(g, convention=convention).scores
        assert np.array_equal(_closeness_at(g, sources, convention), full[sources])
    for radius, exponent in ((1, 2), (3, 2), (4, -1)):
        full = gravity_centrality(g, radius=radius, exponent=exponent).scores
        assert np.array_equal(_gravity_at(g, sources, radius, exponent), full[sources])


@pytest.mark.parametrize("measure", ["DC", "EC", "CC", "BC", "GC"])
def test_scores_reader_equals_compute_centrality(measure):
    rng = random.Random(43)
    for g in (generate_barabasi_albert(150, 2, 3), random_disconnected_graph(rng)):
        settings_ = {"cc_convention": CC_PAPER_LITERAL, "gc_radius": 2, "bc_normalized": False}
        full = compute_centrality(g, measure, **settings_)
        read = _scores_reader(g, measure.lower(), **settings_)
        nodes = np.array(rng.sample(range(g.node_count), g.node_count // 2))
        assert np.array_equal(read(nodes), full.scores[nodes])


def test_scores_reader_checks_settings_before_any_work():
    g = path_graph(4)
    with pytest.raises(ValueError, match="unknown measure"):
        _scores_reader(g, "XX")
    for check in (lambda: _scores_reader(g, 5), lambda: compute_centrality(g, 5)):
        with pytest.raises(ValueError, match="measure must be a string, got 5"):
            check()
    for check in (lambda: _scores_reader(g, "BC", bc_normalized="no"),
                  lambda: compute_centrality(g, "BC", bc_normalized="no"),
                  lambda: betweenness_centrality(g, normalized="no")):
        with pytest.raises(ValueError, match="bc_normalized must be true or false, got 'no'"):
            check()
    with pytest.raises(ValueError, match="closeness convention"):
        _scores_reader(g, "CC", cc_convention="bogus")
    with pytest.raises(ValueError, match="radius"):
        _scores_reader(g, "GC", gc_radius=1.5)
    with pytest.raises(TypeError):
        _scores_reader(g, "DC", no_such_setting=1)
