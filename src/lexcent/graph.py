"""Graph representation, edge-list ingestion, synthetic generation, and
structural primitives (a bit-packed all-sources BFS, connected components,
k-shell).

Graphs are undirected, unweighted, and simple, with node ids 0..n-1.
Adjacency is stored in CSR form (``indptr``/``indices``) with each node's
neighbor list sorted ascending; a Graph is immutable after construction and
safe to share across threads.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import numbers
from dataclasses import dataclass
from typing import IO, Iterable, Iterator

import numpy as np

COMMENT_PREFIXES = ("#", "%")
# characters load_edge_list reads at a time, before completing the last line
_BLOCK_CHARS = 1 << 13
# adjacency entries k_shell gathers at a time (one row may be longer)
_PEEL_ENTRIES = 1 << 10


def _is_int(value) -> bool:
    """True for Python and numpy integers; False for bools, floats and the rest."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _check_int(name: str, value, minimum: int | None = None, maximum: int | None = None) -> None:
    """Raise a ValueError naming ``name`` unless value is an integer (see
    _is_int) within the bounds given; a maximum comes with a minimum."""
    if not (_is_int(value) and (minimum is None or value >= minimum)
            and (maximum is None or value <= maximum)):
        bound = f" between {minimum} and {maximum}" if maximum is not None else (
            "" if minimum is None else f" >= {minimum}")
        raise ValueError(f"{name} must be an integer{bound}, got {value!r}")


def _check_real(name: str, value, low, high=None, *, low_closed: bool = False) -> None:
    """Raise a ValueError naming ``name`` unless value is a finite real
    number (an integer or a float, not a bool) above ``low``, or equal to it
    when low_closed, and at most ``high`` when one is given."""
    real = (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and -math.inf < value < math.inf)
    above = real and (value >= low if low_closed else value > low)
    if above and (high is None or value <= high):
        return
    if high is None:
        bound = f"{'>=' if low_closed else '>'} {low}"
    else:
        bound = f"in {'[' if low_closed else '('}{low}, {high}]"
    raise ValueError(f"{name} must be a finite number {bound}, got {value!r}")


def _check_bool(name: str, value) -> None:
    """Raise a ValueError naming ``name`` unless value is True or False."""
    if not isinstance(value, bool):
        raise ValueError(f"{name} must be true or false, got {value!r}")


class EdgeListParseError(ValueError):
    """Malformed edge-list input; carries the offending 1-based line number."""

    def __init__(self, message: str, line_number: int):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable undirected simple graph with contiguous 0-based node ids.

    Attributes:
        node_count: number of nodes n.
        indptr: int64 array of length n+1, CSR row offsets.
        indices: int32 array of neighbor ids, sorted within each node.
        edge_count: number of undirected edges (half the adjacency entries).
        labels: original node labels in id order when the graph was loaded
            with relabeling, else None.
    """

    node_count: int
    indptr: np.ndarray
    indices: np.ndarray
    edge_count: int
    labels: tuple | None = None

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbor ids of v (a read-only view, do not mutate)."""
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def degree(self, v: int) -> int:
        return int(self.indptr[v + 1] - self.indptr[v])

    def edges(self) -> Iterable[tuple[int, int]]:
        """Yield each undirected edge once as (u, v) with u < v, sorted."""
        u, v = _edge_endpoints(self)
        yield from zip(u.tolist(), v.tolist())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.node_count == other.node_count
            and self.edge_count == other.edge_count
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
        )

    def __repr__(self) -> str:
        return f"Graph(n={self.node_count}, m={self.edge_count})"


@dataclass(frozen=True)
class DatasetStats:
    node_count: int
    edge_count: int
    mean_degree: float
    max_degree: int
    density: float


def from_edges(node_count: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a Graph from (u, v) pairs of integer node ids in 0..node_count-1;
    self-loops and duplicate edges are dropped. Bools and floats are not node
    ids, and an id out of range is an error even on a self-loop."""
    if node_count < 0:
        raise ValueError("node_count must be non-negative")
    pairs = list(edges)
    try:
        well_formed = set(map(len, pairs)) <= {2}
    except TypeError:
        well_formed = False
    if not well_formed:
        index, pair = next(
            (i, p) for i, p in enumerate(pairs) if not (hasattr(p, "__len__") and len(p) == 2)
        )
        raise ValueError(f"edge {index} is {pair!r}, not a pair of node ids")
    ends = list(itertools.chain.from_iterable(pairs))
    # _is_int depends only on a value's type, so one value per type decides
    bad = [v for v in dict(zip(map(type, ends), ends)).values() if not _is_int(v)]
    if bad:
        raise ValueError(f"node ids must be integers, got {bad[0]!r}")
    arr = np.array(pairs, dtype=np.int64).reshape(len(pairs), 2)
    outside = ((arr < 0) | (arr >= node_count)).any(axis=1)
    if outside.any():
        u, v = arr[outside.argmax()].tolist()
        raise ValueError(f"edge ({u}, {v}) out of range for n={node_count}")
    u, v = arr[arr[:, 0] != arr[:, 1]].T
    return _csr(node_count, u, v)


def _csr(n: int, u: np.ndarray, v: np.ndarray) -> Graph:
    """The simple graph on nodes 0..n-1 with the edges (u[k], v[k]), from
    int64 endpoint arrays without self-loops; an edge given more than once,
    in either orientation, is one edge."""
    # one key src * n + dst per adjacency entry, both directions of each edge,
    # written in place into one array; the sorted distinct keys are the CSR
    # entries in row order, and each row's neighbors ascending
    m = u.size
    keys = np.empty(2 * m, dtype=np.int64)
    np.add(np.multiply(u, n, out=keys[:m]), v, out=keys[:m])
    np.add(np.multiply(v, n, out=keys[m:]), u, out=keys[m:])
    keys = _sorted_distinct(keys)
    # src, then dst in the keys' own memory, so no two of them are alive
    # beside the keys at once
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys // n, minlength=n), out=indptr[1:])
    dst = np.remainder(keys, n, out=keys).astype(np.int32)
    return Graph(n, indptr, dst, dst.size // 2)


def _sorted_distinct(values: np.ndarray) -> np.ndarray:
    """The distinct entries of a 1-d array in ascending order, as np.unique
    gives them; sorts ``values`` in place. np.unique would build a hash table
    and import numpy.ma for its masked-array check."""
    values.sort()
    first = np.empty(values.size, dtype=bool)
    first[:1] = True
    np.not_equal(values[1:], values[:-1], out=first[1:])
    return values[first]


def load_edge_list(source: str | IO[str], relabel: bool = False) -> Graph:
    """Parse an edge-list text into a Graph.

    One edge per line as two whitespace-separated tokens; lines starting with
    '#' or '%' and blank lines are ignored, and lines are numbered as
    str.splitlines cuts the text. Duplicate edges and self-loops are dropped
    (a summary warning is logged). Without ``relabel``, every token goes
    through int() and must give a non-negative id; the graph spans
    0..max_id. With ``relabel``, arbitrary labels are mapped to 0..n-1 in
    sorted order and the original labels are retained on the returned Graph:
    numeric order when every label is an integer written as str(int(label))
    gives it back, so "01", "+1" and "1" are three string labels, and
    lexicographic order otherwise.

    The source is read a block at a time, and while every token is an int64
    id (a numeric label, under relabel) each block's endpoints go into one
    int64 array; no list of the lines and no tuple per edge is held.
    """
    _check_bool("relabel", relabel)
    # int64 endpoints, two per edge, one array per block; from the first pair
    # that is not two ids, every endpoint as a string token instead
    chunks: list[np.ndarray] = []
    tokens: list[str] | None = None
    lineno = 0
    for block in _blocks(source):
        ends: list[int] = []
        for line in block.splitlines():
            lineno += 1
            pair = line.split()
            if not pair or pair[0].startswith(COMMENT_PREFIXES):
                continue
            if len(pair) != 2:
                raise EdgeListParseError(
                    f"expected 2 node tokens, got {len(pair)}: {line.strip()!r}", lineno
                )
            if tokens is None:
                a, b = pair
                try:
                    u, v = int(a), int(b)
                    ids_ok = not relabel or (str(u) == a and str(v) == b)
                except ValueError:
                    ids_ok = False
                if ids_ok:
                    ends.append(u)
                    ends.append(v)
                    continue
                tokens = _as_tokens(chunks, ends)
            tokens += pair
        if tokens is None:
            try:
                chunks.append(np.array(ends, dtype=np.int64))
            except OverflowError:
                tokens = _as_tokens(chunks, ends)
    if tokens is None and not any(map(len, chunks)):
        raise ValueError("empty edge list: no edges found in input")

    labels: tuple | None = None
    if tokens is not None:
        ids, labels = _token_ids(tokens, relabel)
        del tokens
    else:
        ids = np.concatenate(chunks)
        del chunks
        if relabel:
            distinct = _sorted_distinct(ids.copy())
            ids = np.searchsorted(distinct, ids)
            labels = tuple(distinct.tolist())
    if labels is None:
        if (ids < 0).any():
            raise ValueError("negative node ids are not allowed without relabel")
        n = int(ids.max()) + 1
        ids = ids.astype(np.int64, copy=False)  # OverflowError outside int64
    else:
        n = len(labels)

    u, v = ids[0::2], ids[1::2]
    keep = u != v
    kept = int(np.count_nonzero(keep))
    self_loops = u.size - kept
    u, v = u[keep], v[keep]
    # _csr's keys are the peak of a load; the endpoints are freed before it
    del ids, keep
    g = _csr(n, u, v)
    duplicates = kept - g.edge_count
    if self_loops or duplicates:
        # logging is imported here, so that a load that drops nothing does not load it
        import logging

        logging.getLogger(__name__).warning(
            "dropped %d self-loop(s) and %d duplicate edge(s) while loading",
            self_loops,
            duplicates,
        )
    if labels is not None:
        g = dataclasses.replace(g, labels=labels)
    return g


def _blocks(source: str | IO[str]) -> Iterator[str]:
    """Consecutive pieces of a text or open text stream, each of about
    _BLOCK_CHARS characters and ending at a line break, so that each piece's
    splitlines() are the text's next lines."""
    if isinstance(source, str):
        start = 0
        while start < len(source):
            end = source.find("\n", start + _BLOCK_CHARS) + 1 or len(source)
            yield source[start:end]
            start = end
    else:
        # a stream whose lines end at "\r" alone can end a block inside a
        # "\r\n", which splitlines already counted as one line break
        after_cr = False
        while block := source.read(_BLOCK_CHARS):
            block += source.readline()
            yield block[1:] if after_cr and block[0] == "\n" else block
            after_cr = block[-1] == "\r"


def _as_tokens(chunks: list[np.ndarray], ends: list[int]) -> list[str]:
    """The endpoints parsed so far as tokens: int() reads str(id) back as the
    same id, and under relabel str(id) is the token itself."""
    return [str(x) for chunk in chunks for x in chunk.tolist()] + list(map(str, ends))


def _is_numeric_label(token: str) -> bool:
    """True when int() accepts the token and str() of the result gives it
    back: "-3" and "12" are numeric labels, "+1", "01", "1_0" and "²" not."""
    try:
        return str(int(token)) == token
    except ValueError:
        return False


def _token_ids(tokens: list[str], relabel: bool) -> tuple[np.ndarray, tuple | None]:
    """Endpoint ids, and labels under relabel, of an edge list given as its
    endpoint tokens, when some token is not an int64 id (a numeric label,
    under relabel). Without relabel the ids are an object array of Python
    ints, for the caller's checks."""
    if relabel:
        distinct = set(tokens)
        numeric = all(map(_is_numeric_label, distinct))
        ordered = sorted(distinct, key=int if numeric else None)
        index = {tok: i for i, tok in enumerate(ordered)}
        ids = np.fromiter(map(index.__getitem__, tokens), dtype=np.int64, count=len(tokens))
        return ids, tuple(map(int, ordered)) if numeric else tuple(ordered)
    values = []
    for a, b in zip(tokens[0::2], tokens[1::2]):
        try:
            values += int(a), int(b)
        except ValueError:
            raise ValueError(
                f"non-integer node tokens ({a!r}, {b!r}); load with relabel=True"
            ) from None
    return np.array(values, dtype=object), None


def save_edge_list(g: Graph, stream: IO[str]) -> None:
    """Write one 'u v' line per edge, u < v, sorted; round-trips via load."""
    for u, v in g.edges():
        stream.write(f"{u} {v}\n")


def generate_barabasi_albert(n: int, m: int, rng_seed: int) -> Graph:
    """Preferential-attachment graph: m isolated seed nodes, then each new
    node attaches to m distinct existing nodes with probability proportional
    to current degree (the first new node's targets are the initial nodes).

    Deterministic for a fixed rng_seed; always has m*(n-m) edges.
    """
    _check_barabasi_albert(n, m, rng_seed)
    rng = np.random.default_rng(rng_seed)
    # one entry per edge endpoint, in the order the edges are made: node
    # m + i's m targets, then m copies of m + i. Sampling uniformly from the
    # entries made so far is sampling nodes proportionally to degree.
    repeated = np.empty((n - m, 2, m), dtype=np.int64)
    targets, sources = repeated[:, 0], repeated[:, 1]
    sources[:] = np.arange(m, n)[:, None]
    targets[0] = np.arange(m)
    flat = repeated.reshape(-1)
    for i in range(1, n - m):
        # drawing the k candidates still needed in one call yields the values
        # k one-at-a-time draws would; a dict keeps first draws in order
        picked: dict[int, None] = {}
        while len(picked) < m:
            draws = rng.integers(0, 2 * m * i, size=m - len(picked))
            picked.update(dict.fromkeys(flat.take(draws).tolist()))
        targets[i] = list(picked)
    return _csr(n, targets.reshape(-1), sources.reshape(-1))


def _check_barabasi_albert(n: int, m: int, rng_seed: int) -> None:
    _check_int("n", n)
    _check_int("m", m)
    _check_int("rng_seed", rng_seed, 0)
    if m < 1 or m >= n:
        raise ValueError(f"require 1 <= m < n, got m={m}, n={n}")


def _bfs_blocks(g: Graph, max_depth: int | None = None, sources: np.ndarray | None = None):
    """Breadth-first search from each of ``sources`` (distinct node ids,
    every node by default), 64 sources at a time.

    Yields (block, levels) per block of 64 consecutive entries of
    ``sources``; only the last block can hold fewer. Source block[j] owns
    bit j of one uint64 word per node, so one level expands all 64 searches
    at once: each node ORs the frontier words of its CSR row (one reduceat
    over the adjacency), and the bits it had not seen yet are its new
    frontier bits. ``levels`` yields (depth, nodes, bits) for depth = 1, 2,
    ... while some source still reaches a new node, and stops after
    ``max_depth`` levels when one is given: ``nodes`` are ascending ids, and
    bit j of bits[k] is set iff nodes[k] lies at distance ``depth`` from
    block[j]. Unreachable nodes appear in no level. A source's levels do not
    depend on which other sources share its block. Memory is O(n) words per
    block; consume each block's levels before advancing to the next block.
    """
    n = g.node_count
    # reduceat over an empty row would return the next row's first entry (or
    # run past the end), so only non-empty rows are reduced
    has = g.indptr[1:] > g.indptr[:-1]
    starts = g.indptr[:-1][has]

    def levels(block: np.ndarray):
        seen = np.zeros(n, dtype=np.uint64)
        seen[block] = np.left_shift(np.uint64(1), np.arange(block.size, dtype=np.uint64))
        front, nxt = seen, np.zeros(n, dtype=np.uint64)
        depth = 0
        while max_depth is None or depth < max_depth:
            nxt[has] = np.bitwise_or.reduceat(front.take(g.indices), starts)
            front = nxt & ~seen
            nodes = np.flatnonzero(front)
            if nodes.size == 0:
                return
            depth += 1
            seen |= front
            yield depth, nodes, front.take(nodes)

    if sources is None:
        sources = np.arange(n)
    for first in range(0, len(sources), 64):
        block = sources[first : first + 64]
        yield block, levels(block)


def _source_bits(words: np.ndarray) -> np.ndarray:
    """(len(words), 64) uint8 matrix whose entry [k, j] is bit j of words[k]."""
    octets = words.astype("<u8", copy=False).view(np.uint8)
    return np.unpackbits(octets, bitorder="little").reshape(-1, 64)


def k_shell(g: Graph) -> np.ndarray:
    """k-core decomposition by iterative peeling.

    For k = 0, 1, 2, ... remove (cascading) every node whose remaining degree
    is <= k; a node's shell index is the k at which it was removed. Each
    round of the cascade peels all such nodes at once and takes one off
    their live neighbors' degrees; the decomposition is unique, so the
    shells are those of peeling one node at a time. A round gathers its
    nodes' CSR rows in chunks of about _PEEL_ENTRIES entries, and a neighbor
    whose degree a chunk brings to k is queued for the next round at once,
    so later chunks leave it out; no array outgrows n or a chunk.
    """
    n = g.node_count
    indptr, indices = g.indptr, g.indices
    deg = np.diff(indptr)
    shell = np.zeros(n, dtype=np.int32)
    # not yet removed, nor queued for removal in the round under way
    live = np.ones(n, dtype=bool)
    remaining = n
    k = 0
    while remaining:
        peel = np.flatnonzero(live & (deg <= k))
        live[peel] = False
        while peel.size:
            shell[peel] = k
            remaining -= peel.size
            # the peeled nodes' CSR rows, one after another: row i is entries
            # ends[i] .. ends[i + 1] - 1, gathered a chunk of rows at a time
            ends = np.zeros(peel.size + 1, dtype=np.int64)
            indptr[1:].take(peel, out=ends[1:])
            ends[1:] -= indptr.take(peel)
            np.cumsum(ends, out=ends)
            found = []
            start = 0
            while start < peel.size:
                stop = peel.size
                if ends[-1] - ends[start] > _PEEL_ENTRIES:
                    cut = int(np.searchsorted(ends, ends[start] + _PEEL_ENTRIES, "right")) - 1
                    stop = max(cut, start + 1)
                first = indptr.take(peel[start:stop])
                first -= ends[start:stop]
                pos = np.repeat(first, ends[start + 1 : stop + 1] - ends[start:stop])
                pos += np.arange(ends[start], ends[stop])
                nbrs = indices.take(pos)
                del pos
                nbrs = nbrs.compress(live.take(nbrs))
                np.subtract.at(deg, nbrs, 1)
                batch = _sorted_distinct(nbrs.compress(deg.take(nbrs) <= k))
                live[batch] = False
                found.append(batch)
                start = stop
            del peel, ends
            peel = found[0] if len(found) == 1 else np.concatenate(found)
        k += 1
    return shell


def _edge_endpoints(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Each undirected edge once as parallel (u, v) arrays with u < v, in
    CSR order (ascending u, then ascending v)."""
    src = np.repeat(np.arange(g.node_count, dtype=np.int32), np.diff(g.indptr))
    upper = src < g.indices
    return src[upper], g.indices[upper]


def _min_labels(n: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """The smallest node id in each node's connected component, for nodes
    0..n-1 joined by the edges (src[k], dst[k]).

    Min-label hooking with pointer jumping: every label points at a node id no
    larger than its own, each round hooks the root of every edge's larger
    label onto the smaller one, then jumps pointers until each node holds its
    root. Edges whose endpoints already share a root are dropped for good, and
    every round with a remaining edge removes at least one root.
    """
    label = np.arange(n, dtype=np.int64)
    while src.size:
        lu, lv = label[src], label[dst]
        cross = lu != lv
        if not cross.any():
            break
        src, dst, lu, lv = src[cross], dst[cross], lu[cross], lv[cross]
        np.minimum.at(label, lu, lv)
        np.minimum.at(label, lv, lu)
        while True:
            jumped = label[label]
            if np.array_equal(jumped, label):
                break
            label = jumped
    return label


def connected_components(g: Graph) -> tuple[np.ndarray, list[int]]:
    """Label nodes by connected component.

    Returns (labels, sizes): labels are dense from 0 in order of each
    component's smallest node id; sizes[c] is the node count of component c.
    """
    roots = _min_labels(g.node_count, *_edge_endpoints(g))
    _, labels = np.unique(roots, return_inverse=True)
    return labels.astype(np.int64), np.bincount(labels).tolist()


def dataset_stats(g: Graph) -> DatasetStats:
    """Node/edge counts, mean and max degree, and density of a graph."""
    n, m = g.node_count, g.edge_count
    if n < 2:
        raise ValueError("dataset_stats requires at least 2 nodes")
    return DatasetStats(
        node_count=n,
        edge_count=m,
        mean_degree=2.0 * m / n,
        max_degree=int(g.degrees().max()),
        density=2.0 * m / (n * (n - 1)),
    )
