import dataclasses
import io
import logging
import random
import tracemalloc
from collections import deque

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from lexcent import graph
from lexcent.graph import (
    EdgeListParseError,
    Graph,
    _bfs_blocks,
    _csr,
    _source_bits,
    connected_components,
    dataset_stats,
    from_edges,
    generate_barabasi_albert,
    k_shell,
    load_edge_list,
    save_edge_list,
)

# Distance marker for nodes not reachable from a BFS source. Deliberately
# not a large finite number so downstream sums cannot silently absorb it.
UNREACHABLE = -1


def path_graph(n):
    return from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n):
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n):
    return from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def random_graph(n, p, rng):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return from_edges(n, edges)


# ---------------------------------------------------------------------------
# CSR construction


def reference_from_edges(node_count, edges):
    """One Python set of canonical (min, max) pairs, then each row filled in
    sorted edge order and sorted again (the oracle for from_edges)."""
    if node_count < 0:
        raise ValueError("node_count must be non-negative")
    canon = set()
    for u, v in edges:
        u, v = int(u), int(v)
        if u == v:
            continue
        if not (0 <= u < node_count and 0 <= v < node_count):
            raise ValueError(f"edge ({u}, {v}) out of range for n={node_count}")
        canon.add((u, v) if u < v else (v, u))
    deg = np.zeros(node_count, dtype=np.int64)
    for u, v in canon:
        deg[u] += 1
        deg[v] += 1
    indptr = np.zeros(node_count + 1, dtype=np.int64)
    np.cumsum(deg, out=indptr[1:])
    indices = np.empty(indptr[-1], dtype=np.int32)
    cursor = indptr[:-1].copy()
    for u, v in sorted(canon):
        indices[cursor[u]] = v
        cursor[u] += 1
        indices[cursor[v]] = u
        cursor[v] += 1
    # rows are filled in sorted edge order, so each neighbor run is sorted for
    # the first endpoint but not necessarily for the second; sort every run
    for i in range(node_count):
        indices[indptr[i] : indptr[i + 1]].sort()
    return Graph(node_count, indptr, indices, len(canon))


def reference_csr(n, u, v):
    """The CSR build from np.unique of the adjacency keys (the oracle for
    _csr)."""
    keys = np.unique(np.concatenate((u * n + v, v * n + u)))
    src, dst = np.divmod(keys, n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return Graph(n, indptr, dst.astype(np.int32), keys.size // 2)


@pytest.mark.parametrize("seed", range(40))
def test_csr_matches_unique_build(seed):
    # random endpoints, some edges repeated as given and some reversed
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 60))
    u, v = rng.integers(0, n, size=(2, int(rng.integers(0, 4 * n))))
    u, v = u[u != v], v[u != v]
    again = rng.random(u.size) < 0.3
    flip = rng.random(u.size) < 0.5
    u, v = np.concatenate((u, u[again], v[flip])), np.concatenate((v, v[again], u[flip]))
    g, expected = _csr(n, u, v), reference_csr(n, u, v)
    assert g == expected and g.edge_count == expected.edge_count
    assert g.indptr.dtype == np.int64 and g.indices.dtype == np.int32


def test_csr_traced_peak_memory():
    # one key array filled in place, then src and dst one after the other:
    # 2.2 times the endpoint bytes here, 3.6 times with concatenated
    # temporaries and np.divmod
    rng = np.random.default_rng(5)
    n = 20_000
    u, v = rng.integers(0, n, size=(2, 100_000))
    u, v = u[u != v], v[u != v]
    tracemalloc.start()
    try:
        g = _csr(n, u, v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g == reference_csr(n, u, v)
    assert peak < 3.0 * (u.nbytes + v.nbytes)


def nested_loop_edges(g):
    return [(u, int(v)) for u in range(g.node_count) for v in g.neighbors(u) if u < v]


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=0, max_value=30).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.booleans()),
                max_size=3 * n,
            )
            if n
            else st.just([]),
        )
    )
)
@example((0, []))
@example((1, []))
@example((1, [(0, 0, True)]))
@example((2, []))
@example((2, [(1, 0, True), (1, 1, False)]))
@example((5, []))
def test_from_edges_matches_reference(case):
    # each drawn pair may be repeated reversed, so the list holds duplicates
    # in both orientations; u == v draws are self-loops, and nodes no pair
    # names are isolated
    n, draws = case
    pairs = [(u, v) for u, v, _ in draws] + [(v, u) for u, v, twice in draws if twice]
    g = from_edges(n, pairs)
    expected = reference_from_edges(n, pairs)
    assert g.indptr.dtype == np.int64 and g.indices.dtype == np.int32
    assert np.array_equal(g.indptr, expected.indptr)
    assert np.array_equal(g.indices, expected.indices)
    assert g.edge_count == expected.edge_count
    assert list(g.edges()) == nested_loop_edges(g)


@pytest.mark.parametrize(
    "pairs, message",
    [
        ([(5, 5), (0, 1)], "out of range"),
        ([(-1, -1)], "out of range"),
        ([(0.7, 1.9)], "integers"),
        ([(0, np.float64(1.0))], "integers"),
        ([(True, 2)], "integers"),
        ([(0, np.bool_(True))], "integers"),
    ],
    ids=["self-loop-out-of-range", "negative-self-loop", "floats", "numpy-float",
         "bool", "numpy-bool"],
)
def test_from_edges_rejects_bad_endpoints(pairs, message):
    with pytest.raises(ValueError, match=message):
        from_edges(3, pairs)


@pytest.mark.parametrize(
    "pairs, message",
    [
        ([(0, 1, 2)], r"^edge 0 is \(0, 1, 2\), not a pair of node ids$"),
        ([(0,), (1, 2, 3)], r"^edge 0 is \(0,\), not a pair of node ids$"),
        ([(0, 1), (1, 2), [2]], r"^edge 2 is \[2\], not a pair of node ids$"),
        ([(0, 1), 5], r"^edge 1 is 5, not a pair of node ids$"),
    ],
    ids=["triple", "ragged", "singleton-list", "scalar"],
)
def test_from_edges_names_the_first_malformed_pair(pairs, message):
    with pytest.raises(ValueError, match=message):
        from_edges(3, pairs)


def test_from_edges_accepts_numpy_integers_and_generators():
    g = from_edges(3, ((np.int32(u), np.int64(u + 1)) for u in range(2)))
    assert list(g.edges()) == [(0, 1), (1, 2)]


# ---------------------------------------------------------------------------
# edge-list parsing


def reference_load_edge_list(source, relabel=False):
    """The whole text split into a list of lines, one tuple of tokens per
    edge, a dict from label to id and from_edges' checked build (the oracle
    for load_edge_list)."""
    if not isinstance(relabel, bool):
        raise ValueError(f"relabel must be true or false, got {relabel!r}")
    text = source if isinstance(source, str) else source.read()
    raw_edges = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith(("#", "%")):
            continue
        tokens = stripped.split()
        if len(tokens) != 2:
            raise EdgeListParseError(
                f"expected 2 node tokens, got {len(tokens)}: {stripped!r}", lineno
            )
        raw_edges.append((tokens[0], tokens[1]))
    if not raw_edges:
        raise ValueError("empty edge list: no edges found in input")

    labels = None
    if relabel:
        seen = {tok for edge in raw_edges for tok in edge}
        # numeric order only when int() reads every token and str() gives it
        # back, so padded variants like "01" vs "1" stay distinct strings
        if all(reference_is_numeric_label(tok) for tok in seen):
            ordered = sorted(seen, key=int)
            labels = tuple(int(t) for t in ordered)
        else:
            ordered = sorted(seen)
            labels = tuple(ordered)
        mapping = {tok: i for i, tok in enumerate(ordered)}
        edges = [(mapping[a], mapping[b]) for a, b in raw_edges]
        n = len(ordered)
    else:
        edges = []
        for a, b in raw_edges:
            try:
                edges.append((int(a), int(b)))
            except ValueError:
                raise ValueError(
                    f"non-integer node tokens ({a!r}, {b!r}); load with relabel=True"
                ) from None
        if any(u < 0 or v < 0 for u, v in edges):
            raise ValueError("negative node ids are not allowed without relabel")
        n = max(max(u, v) for u, v in edges) + 1

    g = from_edges(n, edges)
    self_loops = sum(u == v for u, v in edges)
    duplicates = len(edges) - self_loops - g.edge_count
    if self_loops or duplicates:
        logging.getLogger("lexcent.graph").warning(
            "dropped %d self-loop(s) and %d duplicate edge(s) while loading",
            self_loops,
            duplicates,
        )
    if labels is not None:
        g = dataclasses.replace(g, labels=labels)
    return g


def reference_is_numeric_label(tok):
    try:
        return str(int(tok)) == tok
    except ValueError:
        return False


def test_load_simple():
    g = load_edge_list("0 1\n1 2")
    assert g.node_count == 3
    assert g.edge_count == 2
    assert sorted(g.edges()) == [(0, 1), (1, 2)]


def test_load_drops_duplicates_and_self_loops():
    g = load_edge_list("0 1\n1 0\n1 1")
    assert g.node_count == 2
    assert g.edge_count == 1
    assert list(g.edges()) == [(0, 1)]


def test_load_skips_comments_and_blank_lines():
    g = load_edge_list("# header\n% other style\n\n0 1\n")
    assert g.edge_count == 1


def test_load_malformed_line_reports_line_number():
    with pytest.raises(EdgeListParseError) as err:
        load_edge_list("0 1\n1 2 3\n")
    assert err.value.line_number == 2


def test_load_empty_input_is_an_error():
    with pytest.raises(ValueError):
        load_edge_list("# only comments\n")


def test_load_relabel_maps_sorted_labels():
    g = load_edge_list("10 30\n30 20", relabel=True)
    assert g.node_count == 3
    assert g.labels == (10, 20, 30)
    assert sorted(g.edges()) == [(0, 2), (1, 2)]


def test_load_relabel_string_labels():
    g = load_edge_list("b c\na b", relabel=True)
    assert g.labels == ("a", "b", "c")
    assert sorted(g.edges()) == [(0, 1), (1, 2)]


def test_load_non_integer_without_relabel_fails():
    with pytest.raises(ValueError, match="relabel"):
        load_edge_list("a b")


def test_load_relabel_keeps_padded_numeric_labels_distinct():
    g = load_edge_list("01 1\n1 2", relabel=True)
    assert g.node_count == 3
    assert g.labels == ("01", "1", "2")
    assert g.edge_count == 2


def test_round_trip():
    rng = random.Random(5)
    for _ in range(20):
        g = random_graph(rng.randrange(2, 15), 0.4, rng)
        buf = io.StringIO()
        save_edge_list(g, buf)
        if g.edge_count == 0:
            continue
        reloaded = load_edge_list(buf.getvalue())
        # trailing isolated nodes are not representable in an edge list
        assert reloaded.edge_count == g.edge_count
        assert list(reloaded.edges()) == list(g.edges())


@pytest.mark.parametrize("load", [load_edge_list, reference_load_edge_list])
@pytest.mark.parametrize(
    "text, labels",
    [
        # int() rejects both first tokens, so every label is a string
        ("--5 1", ("--5", "1")),
        ("\u00b2 1", ("1", "\u00b2")),
        ("-5 1\n1 -12", (-12, -5, 1)),
        ("+1 1\n1_0 10", ("+1", "1", "10", "1_0")),
    ],
)
def test_load_relabel_numeric_only_when_int_gives_the_token_back(load, text, labels):
    g = load(text, relabel=True)
    assert g.labels == labels
    assert g.node_count == len(labels)


@pytest.mark.parametrize("load", [load_edge_list, reference_load_edge_list])
def test_load_without_relabel_reads_tokens_through_int(load):
    g = load("+1 01\n1_0 2\n0 1")
    assert g.node_count == 11
    assert sorted(g.edges()) == [(0, 1), (2, 10)]


def test_load_relabel_numeric_labels_beyond_int64():
    big = 2**64
    g = load_edge_list(f"{big} 5\n-{big} 5", relabel=True)
    assert g.labels == (-big, 5, big)
    assert sorted(g.edges()) == [(0, 1), (1, 2)]


EDGE_TOKENS = st.sampled_from(
    ["0", "1", "2", "3", "7", "12", "-1", "-0", "01", "007", "+1", "1_0",
     "a", "b", "\u00b2", "--5", str(2**63), str(-(2**63) - 1)]
)
LINE_BREAKS = st.sampled_from(["\n", "\r\n", "\r", "\x0b", "\u2028"])
SPACES = st.sampled_from([" ", "\t", "  "])


@st.composite
def edge_list_texts(draw):
    """An edge-list text: mostly edges over a few tokens (so duplicates in
    both orientations and self-loops are common), some comments and blank
    lines, now and then a line of 1 or 3 tokens, and mixed line breaks."""
    lines = []
    for kind in draw(st.lists(st.sampled_from("eeeeeeccbm"), max_size=30)):
        if kind == "c":
            lines.append(draw(st.sampled_from(["", " "])) + draw(st.sampled_from("#%"))
                         + draw(st.sampled_from(["", " 1 2", "comment"])))
        elif kind == "b":
            lines.append(draw(st.sampled_from(["", " ", "\t "])))
        else:
            count = 2 if kind == "e" else draw(st.sampled_from([1, 3]))
            tokens = draw(st.lists(EDGE_TOKENS, min_size=count, max_size=count))
            lines.append(draw(SPACES).join(tokens) + draw(st.sampled_from(["", " "])))
    text = ""
    for line in lines:
        text += line + draw(LINE_BREAKS)
    return text if draw(st.booleans()) else text.rstrip("\r\n\x0b\u2028")


def load_outcome(load, source, relabel, caplog):
    """What a loader returns or raises, and the warnings it logs."""
    caplog.clear()
    try:
        g = load(source, relabel=relabel)
    except (ValueError, OverflowError) as err:
        result = (type(err), str(err), getattr(err, "line_number", None))
    else:
        labels = None if g.labels is None else (g.labels, [type(x) for x in g.labels])
        result = (g.node_count, g.indptr.dtype, g.indptr.tolist(), g.indices.dtype,
                  g.indices.tolist(), g.edge_count, labels)
    return result, [(r.name, r.levelname, r.getMessage()) for r in caplog.records]


SOURCES = {
    "str": lambda text: text,
    "StringIO": io.StringIO,
    # a file's universal-newline decoding, as the CLI reads --graph files
    "TextIOWrapper": lambda text: io.TextIOWrapper(io.BytesIO(text.encode())),
    # lines that end at any break, or at "\r" alone, without translation
    "TextIOWrapper-untranslated": lambda text: io.TextIOWrapper(io.BytesIO(text.encode()),
                                                                newline=""),
    "TextIOWrapper-cr": lambda text: io.TextIOWrapper(io.BytesIO(text.encode()), newline="\r"),
}


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=edge_list_texts(), relabel=st.booleans(), source=st.sampled_from(sorted(SOURCES)),
       block_chars=st.sampled_from([1, 5, graph._BLOCK_CHARS]))
@example(text="0 1\r\n1 0\r\n# c\r\n\r\n2 2\r\n", relabel=False, source="str", block_chars=1)
@example(text="% c\n-1 1\n5 5\n1 -1", relabel=True, source="StringIO", block_chars=5)
@example(text="1 2\n3", relabel=True, source="TextIOWrapper", block_chars=1)
@example(text="a b\n3 4 5\n", relabel=False, source="str", block_chars=5)
def test_load_matches_reference(caplog, text, relabel, source, block_chars):
    # small blocks put block ends inside every kind of line and line break
    caplog.set_level(logging.WARNING, logger="lexcent.graph")
    make = SOURCES[source]
    expected = load_outcome(reference_load_edge_list, make(text), relabel, caplog)
    default, graph._BLOCK_CHARS = graph._BLOCK_CHARS, block_chars
    try:
        assert load_outcome(load_edge_list, make(text), relabel, caplog) == expected
    finally:
        graph._BLOCK_CHARS = default


@pytest.mark.parametrize("source", sorted(SOURCES))
@pytest.mark.parametrize("relabel", [True, False])
@pytest.mark.parametrize("late", ["", "a 1", "+1 2", f"{2**63} 1", "1 2 3"])
def test_load_long_text_matches_reference(caplog, late, relabel, source):
    # about a dozen blocks of integer lines with CRLF breaks and comments; the
    # late line, after several blocks, switches the load to string tokens or
    # raises
    caplog.set_level(logging.WARNING, logger="lexcent.graph")
    rng = random.Random(3)
    lines = [f"{rng.randrange(500)}\t{rng.randrange(500)}" if i % 7 else "# c"
             for i in range(12_000)]
    lines.insert(9000, late)
    text = "\r\n".join(lines)
    assert len(text) > 10 * graph._BLOCK_CHARS
    make = SOURCES[source]
    expected = load_outcome(reference_load_edge_list, make(text), relabel, caplog)
    assert load_outcome(load_edge_list, make(text), relabel, caplog) == expected


def integer_edge_list(edge_count, label_range, seed):
    """Edges over 6000 distinct integer labels drawn from [0, label_range),
    one `label label` line each, after a comment line."""
    rng = np.random.default_rng(seed)
    labels = rng.choice(label_range, size=6000, replace=False)
    ends = labels[rng.integers(0, labels.size, size=(edge_count, 2))]
    return "# integer labels\n" + "".join(f"{u} {v}\n" for u, v in ends.tolist())


@pytest.mark.parametrize("relabel, label_range", [(True, 10**6), (False, 6000)])
def test_load_traced_peak_memory(relabel, label_range):
    # sparse labels as in sparse6k under relabel, ids 0..5999 without. A
    # list of lines and a tuple per edge peak at 4.6 and 4.0 MB here, int64
    # arrays per block at 1.1 and 0.8 MB.
    text = integer_edge_list(10_000, label_range, seed=4)
    tracemalloc.start()
    try:
        g = load_edge_list(text, relabel=relabel)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.edge_count > 9_900
    assert peak < 2_000_000


# ---------------------------------------------------------------------------
# Barabasi-Albert generation


def reference_barabasi_albert(n, m, rng_seed):
    """Preferential attachment one scalar draw at a time: each new node
    draws one entry of the endpoint list per call until it has m distinct
    targets (the oracle for generate_barabasi_albert)."""
    rng = np.random.default_rng(rng_seed)
    edges = []
    repeated = []
    for new in range(m, n):
        if not repeated:
            targets = list(range(m))
        else:
            picked = []
            seen = set()
            while len(picked) < m:
                candidate = repeated[int(rng.integers(0, len(repeated)))]
                if candidate not in seen:
                    seen.add(candidate)
                    picked.append(candidate)
            targets = picked
        for t in targets:
            edges.append((t, new))
            repeated.append(t)
        repeated.extend([new] * m)
    return from_edges(n, edges)


def fixed_batch_barabasi_albert(n, m, rng_seed):
    """A wrong batching: every retry draws m candidates, not the number
    still needed, so it consumes the stream differently."""
    rng = np.random.default_rng(rng_seed)
    edges = []
    repeated = []
    for new in range(m, n):
        if not repeated:
            targets = list(range(m))
        else:
            picked = {}
            while len(picked) < m:
                for candidate in rng.integers(0, len(repeated), size=m).tolist():
                    if len(picked) < m:
                        picked.setdefault(repeated[candidate])
            targets = list(picked)
        edges += [(t, new) for t in targets]
        repeated += targets + [new] * m
    return from_edges(n, edges)


BA_GRID = [
    (n, m) for n in (2, 5, 12, 50, 300, 2000) for m in sorted({1, 2, 3, 10, n - 1}) if m < n
]


@pytest.mark.parametrize("n, m", BA_GRID, ids=[f"n{n}-m{m}" for n, m in BA_GRID])
def test_ba_equals_one_draw_at_a_time_reference(n, m):
    for seed in range(20):
        assert generate_barabasi_albert(n, m, seed) == reference_barabasi_albert(n, m, seed)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=2, max_value=80).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(1, n - 1), st.integers(0, 2**32 - 1))
    )
)
def test_ba_equals_reference_on_random_sizes(case):
    n, m, seed = case
    assert generate_barabasi_albert(n, m, seed) == reference_barabasi_albert(n, m, seed)


def test_ba_grid_catches_a_fixed_batch_per_retry():
    # the grid must tell apart drawing m candidates per retry, which
    # overdraws once a node has some targets
    assert any(
        fixed_batch_barabasi_albert(n, m, seed) != reference_barabasi_albert(n, m, seed)
        for n, m in BA_GRID
        if n <= 300
        for seed in range(20)
    )


def test_ba_edge_counts():
    assert generate_barabasi_albert(1000, 10, 42).edge_count == 9900
    assert generate_barabasi_albert(100, 3, 0).edge_count == 3 * 97


def test_ba_small_case_attaches_to_all_initial_nodes():
    g = generate_barabasi_albert(5, 4, 1)
    assert g.edge_count == 4  # m * (n - m)
    assert g.degree(4) == 4


def test_ba_deterministic_for_seed():
    a = generate_barabasi_albert(200, 4, 123)
    b = generate_barabasi_albert(200, 4, 123)
    c = generate_barabasi_albert(200, 4, 124)
    assert a == b
    assert a != c


def test_ba_new_nodes_have_degree_at_least_m():
    g = generate_barabasi_albert(300, 5, 9)
    degrees = g.degrees()
    assert all(degrees[v] >= 5 for v in range(5, 300))


def test_ba_rejects_bad_m():
    with pytest.raises(ValueError):
        generate_barabasi_albert(5, 5, 0)
    with pytest.raises(ValueError):
        generate_barabasi_albert(5, 0, 0)


@pytest.mark.parametrize(
    "n,m,rng_seed,message",
    [
        (10, 3, -1, "rng_seed must be an integer >= 0, got -1"),
        (10, 2.5, 1, "m must be an integer, got 2.5"),
        (10.0, 3, 1, "n must be an integer, got 10.0"),
        (10, 3, True, "rng_seed must be an integer >= 0, got True"),
    ],
    ids=["negative-seed", "float-m", "float-n", "bool-seed"],
)
def test_ba_names_the_bad_argument(n, m, rng_seed, message):
    with pytest.raises(ValueError) as raised:
        generate_barabasi_albert(n, m, rng_seed)
    assert str(raised.value) == message


# ---------------------------------------------------------------------------
# bit-packed all-sources BFS


def set_bits(word):
    """Indices of the set bits of one uint64 word, ascending."""
    w = int(word)
    return [j for j in range(64) if w >> j & 1]


def kernel_distances(g, max_depth=None):
    """All-pairs distances rebuilt from the kernel's levels: row s holds the
    distances from s, UNREACHABLE where no level reached. Bits are decoded
    one at a time in Python, and the block and level shapes are checked on
    the way."""
    n = g.node_count
    dist = [[UNREACHABLE] * n for _ in range(n)]
    first = 0
    for sources, levels in _bfs_blocks(g, max_depth):
        assert sources.tolist() == list(range(first, min(first + 64, n)))
        first += sources.size
        for s in sources.tolist():
            dist[s][s] = 0
        expected_depth = 1
        for depth, nodes, bits in levels:
            assert depth == expected_depth
            expected_depth += 1
            assert nodes.size and np.all(np.diff(nodes) > 0)
            for v, word in zip(nodes.tolist(), bits.tolist()):
                reached = set_bits(word)
                assert reached and reached[-1] < sources.size
                for j in reached:
                    assert dist[sources[j]][v] == UNREACHABLE  # one level per pair
                    dist[sources[j]][v] = depth
    assert first == n
    return dist


def test_bfs_path():
    assert kernel_distances(path_graph(3))[0] == [0, 1, 2]


def test_bfs_unreachable_marker():
    g = from_edges(3, [(0, 1)])
    assert kernel_distances(g) == [[0, 1, UNREACHABLE], [1, 0, UNREACHABLE],
                                   [UNREACHABLE, UNREACHABLE, 0]]


def test_bfs_cycle_c6():
    assert kernel_distances(cycle_graph(6))[0] == [0, 1, 2, 3, 2, 1]


def test_bfs_depth_cap_truncates_levels():
    g = path_graph(130)
    full = kernel_distances(g)
    for cap in (1, 2, 5):
        capped = kernel_distances(g, max_depth=cap)
        assert capped == [[d if d <= cap else UNREACHABLE for d in row] for row in full]


def test_bfs_triangle_property_on_random_graphs():
    rng = random.Random(11)
    for _ in range(10):
        g = random_graph(12, 0.3, rng)
        for dist in kernel_distances(g):
            for u, v in g.edges():
                if dist[u] != UNREACHABLE and dist[v] != UNREACHABLE:
                    assert abs(dist[u] - dist[v]) <= 1


def queue_bfs(g, source):
    """Textbook FIFO-queue BFS, one neighbour at a time."""
    dist = [UNREACHABLE] * g.node_count
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in g.neighbors(u).tolist():
            if dist[w] == UNREACHABLE:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def test_bfs_matches_queue_bfs_from_every_source():
    # wide frontiers (hubs of BA, dense random), a disconnected sparse graph
    # whose isolated nodes split the CSR rows, and sizes on either side of
    # the 64-source block boundaries
    rng = random.Random(5)
    graphs = [
        generate_barabasi_albert(300, 3, 5),
        random_graph(60, 0.2, rng),
        random_graph(80, 0.02, rng),
        from_edges(150, [(rng.randrange(1, 149), rng.randrange(1, 149)) for _ in range(120)]),
        path_graph(64),
        path_graph(65),
        path_graph(129),
        from_edges(2, []),
    ]
    for g in graphs:
        dist = kernel_distances(g)
        for s in range(g.node_count):
            assert dist[s] == queue_bfs(g, s)


def test_source_bits_little_endian_columns():
    words = np.array([1, 1 << 63 | 2, 0], dtype=np.uint64)
    bits = _source_bits(words)
    assert bits.shape == (3, 64)
    assert [np.flatnonzero(row).tolist() for row in bits] == [[0], [1, 63], []]


# ---------------------------------------------------------------------------
# k-shell


def brute_force_k_shell(g):
    """Peeling with from-scratch degree recomputation each pass."""
    alive = set(range(g.node_count))
    shell = {}
    k = 0
    while alive:
        changed = True
        while changed:
            changed = False
            for v in sorted(alive):
                deg = sum(1 for w in g.neighbors(v) if int(w) in alive)
                if deg <= k:
                    alive.remove(v)
                    shell[v] = k
                    changed = True
        k += 1
    return [shell[v] for v in range(g.node_count)]


def reference_k_shell(g):
    """Peeling one node at a time, each removal taking one off its live
    neighbors' degrees (the oracle for k_shell's all-at-once rounds)."""
    n = g.node_count
    indptr, indices = g.indptr, g.indices
    deg = np.diff(indptr).astype(np.int64)
    shell = np.zeros(n, dtype=np.int32)
    alive = np.ones(n, dtype=bool)
    remaining = n
    k = 0
    while remaining:
        while True:
            to_remove = np.nonzero(alive & (deg <= k))[0]
            if to_remove.size == 0:
                break
            for v in to_remove:
                alive[v] = False
                shell[v] = k
                remaining -= 1
                nbrs = indices[indptr[v] : indptr[v + 1]]
                live_nbrs = nbrs[alive[nbrs]]
                deg[live_nbrs] -= 1
        k += 1
    return shell


@st.composite
def k_shell_graphs(draw):
    """Up to 150 nodes and 4n random pairs: draws run from edgeless graphs
    to a mean degree near 8, with isolated nodes and several components."""
    n = draw(st.integers(min_value=0, max_value=150))
    node = st.integers(0, max(n - 1, 0))
    pairs = draw(st.lists(st.tuples(node, node), max_size=4 * n))
    return from_edges(n, [(a, b) for a, b in pairs if a != b])


@settings(max_examples=200, deadline=None)
@given(k_shell_graphs())
@example(generate_barabasi_albert(300, 3, 1))
@example(complete_graph(20))
@example(path_graph(151))
@example(from_edges(3, []))
def test_k_shell_equals_one_node_at_a_time_reference(g):
    shells = k_shell(g)
    assert shells.dtype == np.int32
    assert np.array_equal(shells, reference_k_shell(g))


@settings(max_examples=100, deadline=None)
@given(k_shell_graphs(), st.sampled_from([1, 2, 5, 16]))
@example(generate_barabasi_albert(300, 3, 1), 1)
@example(complete_graph(20), 7)
@example(from_edges(40, [(0, v) for v in range(1, 30)]), 3)
def test_k_shell_is_the_same_at_every_chunk_size(g, entries):
    # a round's rows are gathered in chunks of about _PEEL_ENTRIES entries;
    # a neighbor queued by one chunk must be left out of the later ones
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(graph, "_PEEL_ENTRIES", entries)
        shells = k_shell(g)
    assert np.array_equal(shells, reference_k_shell(g))


def test_k_shell_traced_peak_memory():
    # about 0.11 MB here with chunks of rows: the degree, shell and queued
    # arrays and one round's nodes. Gathering a whole round's rows at once
    # peaked at 0.34 MB (it grows with 2m), the one-node-at-a-time loop at
    # 0.089 MB.
    g = generate_barabasi_albert(5000, 5, 1)
    tracemalloc.start()
    try:
        shells = k_shell(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(shells, reference_k_shell(g))
    assert peak < 130_000


def test_k_shell_cycle_is_two_regular():
    assert k_shell(cycle_graph(5)).tolist() == [2] * 5


def test_k_shell_tree_is_all_ones():
    tree = from_edges(6, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5)])
    assert k_shell(tree).tolist() == [1] * 6


def test_k_shell_k4_plus_pendant():
    edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4)]
    assert k_shell(from_edges(5, edges)).tolist() == [3, 3, 3, 3, 1]


def test_k_shell_matches_brute_force_on_small_graphs():
    rng = random.Random(3)
    for _ in range(60):
        g = random_graph(rng.randrange(1, 9), rng.uniform(0.1, 0.9), rng)
        assert k_shell(g).tolist() == brute_force_k_shell(g)


# ---------------------------------------------------------------------------
# connected components


def test_components_path():
    labels, sizes = connected_components(path_graph(3))
    assert labels.tolist() == [0, 0, 0]
    assert sizes == [3]


def test_components_two_pairs():
    labels, sizes = connected_components(from_edges(4, [(0, 1), (2, 3)]))
    assert labels.tolist() == [0, 0, 1, 1]
    assert sizes == [2, 2]


def test_components_isolated_nodes():
    labels, sizes = connected_components(from_edges(3, [(0, 1)]))
    assert labels.tolist() == [0, 0, 1]
    assert sizes == [2, 1]


def frontier_neighbors(g, frontier):
    """The CSR rows of every frontier node, concatenated in frontier order,
    gathered in one indexing step: entry k lies in the row of node v at
    indptr[v] + (k - offset of v's row in the output).
    """
    starts = g.indptr[frontier]
    lens = g.indptr[frontier + 1] - starts
    return g.indices[np.arange(lens.sum()) + np.repeat(starts - (np.cumsum(lens) - lens), lens)]


def reference_components(g):
    """Connected components by one level-synchronous BFS per unlabelled
    start node, in node order (the oracle for the hooking kernel)."""
    n = g.node_count
    labels = np.full(n, -1, dtype=np.int64)
    sizes = []
    for start in range(n):
        if labels[start] != -1:
            continue
        comp = len(sizes)
        labels[start] = comp
        frontier = np.array([start], dtype=np.int32)
        count = 1
        while frontier.size:
            nbrs = frontier_neighbors(g, frontier)
            nbrs = nbrs[labels[nbrs] == -1]
            if nbrs.size == 0:
                break
            frontier = np.unique(nbrs)
            labels[frontier] = comp
            count += frontier.size
        sizes.append(count)
    return labels, sizes


_SHUFFLED_PATH = list(range(300))
random.Random(41).shuffle(_SHUFFLED_PATH)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=2, max_value=40).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                max_size=2 * n,
            ),
            st.permutations(range(n)),
        )
    )
)
@example((2, [(0, 1)], [0, 1]))
@example((2, [], [0, 1]))
@example((300, [(i, i + 1) for i in range(299)], _SHUFFLED_PATH))
def test_components_match_bfs_oracle(case):
    # sparse random edge sets leave several components and isolated nodes;
    # the permutation interleaves their ids
    n, pairs, perm = case
    g = from_edges(n, [(perm[u], perm[v]) for u, v in pairs])
    labels, sizes = connected_components(g)
    expected_labels, expected_sizes = reference_components(g)
    assert labels.dtype == np.int64
    assert np.array_equal(labels, expected_labels)
    assert sizes == expected_sizes


def test_components_labels_consistent_with_reachability():
    rng = random.Random(17)
    for _ in range(10):
        g = random_graph(10, 0.15, rng)
        labels, _ = connected_components(g)
        dists = kernel_distances(g)
        for s in range(10):
            for v in range(10):
                reachable = dists[s][v] != UNREACHABLE
                assert (labels[v] == labels[s]) == reachable


# ---------------------------------------------------------------------------
# dataset stats


def test_stats_k5():
    stats = dataset_stats(complete_graph(5))
    assert (stats.node_count, stats.edge_count) == (5, 10)
    assert stats.mean_degree == 4.0
    assert stats.max_degree == 4
    assert stats.density == 1.0


def test_stats_requires_two_nodes():
    with pytest.raises(ValueError):
        dataset_stats(from_edges(1, []))


def test_stats_mean_degree_invariant():
    g = generate_barabasi_albert(50, 2, 2)
    stats = dataset_stats(g)
    assert stats.mean_degree == pytest.approx(2 * g.edge_count / g.node_count)
    assert stats.density == pytest.approx(
        2 * g.edge_count / (g.node_count * (g.node_count - 1))
    )
