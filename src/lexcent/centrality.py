"""The five per-node centrality measures: degree (DC), eigenvector (EC),
closeness (CC), betweenness (BC), and gravity (GC).

All functions are pure with respect to the immutable Graph and return a
CentralityVector whose ``params`` record the exact settings used. No output
file writes them: the CLI records a run's settings only in run_config.json.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .graph import (
    Graph, _bfs_blocks, _check_bool, _check_int, _check_real, _source_bits,
    connected_components, k_shell,
)

MEASURES = ("DC", "EC", "CC", "BC", "GC")

# (node, source) terms that gravity looks up and sums per step
_GRAVITY_CHUNK_ELEMENTS = 1 << 13

CC_COMPONENT_SCALED = "component_scaled"
CC_PAPER_LITERAL = "paper_literal"
CC_CONVENTIONS = (CC_COMPONENT_SCALED, CC_PAPER_LITERAL)


class PowerIterationError(RuntimeError):
    """Eigenvector iteration did not converge; carries the last iterate so a
    caller may inspect or accept it."""

    def __init__(self, message: str, scores: np.ndarray, iterations: int, delta: float):
        super().__init__(message)
        self.scores = scores
        self.iterations = iterations
        self.delta = delta


@dataclass(frozen=True)
class CentralityVector:
    """Scores for one measure: scores[i] is node i's value."""

    measure: str
    scores: np.ndarray
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.measure not in MEASURES:
            raise ValueError(f"unknown measure {self.measure!r}")


def _check_measure(measure: str) -> str:
    """The measure's tag, upper-cased; a non-string or unknown measure is a
    ValueError."""
    if not isinstance(measure, str):
        raise ValueError(f"measure must be a string, got {measure!r}")
    tag = measure.upper()
    if tag not in MEASURES:
        raise ValueError(f"unknown measure {measure!r}")
    return tag


@dataclass(frozen=True)
class _MeasureSettings:
    """The measure settings, each default written here once. Building one
    checks every setting (an unknown one is a TypeError); compute_centrality,
    the LSC readers and the CLI all check settings here, before any work."""

    cc_convention: str = CC_COMPONENT_SCALED
    ec_tol: float = 1e-8
    ec_max_iter: int = 1000
    bc_normalized: bool = True
    gc_radius: int = 3
    gc_exponent: int = 2

    def __post_init__(self):
        if self.cc_convention not in CC_CONVENTIONS:
            raise ValueError(f"unknown closeness convention {self.cc_convention!r}")
        _check_real("ec_tol", self.ec_tol, 0)
        _check_int("ec_max_iter", self.ec_max_iter, 1)
        _check_int("gc_radius", self.gc_radius, 1)
        _check_int("gc_exponent", self.gc_exponent)
        _check_bool("bc_normalized", self.bc_normalized)


def degree_centrality(g: Graph) -> CentralityVector:
    """DC(i) = degree(i) / (n - 1)."""
    if g.node_count < 2:
        raise ValueError("degree centrality requires at least 2 nodes")
    scores = g.degrees().astype(np.float64) / (g.node_count - 1)
    return CentralityVector("DC", scores, {})


def eigenvector_centrality(
    g: Graph, tol: float = _MeasureSettings.ec_tol, max_iter: int = _MeasureSettings.ec_max_iter
) -> CentralityVector:
    """Dominant-eigenvector scores by power iteration.

    Starts from the uniform positive vector and renormalizes to unit
    Euclidean norm each step. Iteration multiplies by A + I rather than A
    alone: the shift leaves eigenvectors unchanged but breaks the +/-lambda
    oscillation that plain adjacency multiplication suffers on bipartite
    graphs. Converged when the max per-entry change drops below ``tol`` and
    the eigen-residual ||A x - lambda x||_inf is below 10*tol; lambda is the
    Rayleigh quotient of A at the final iterate and is stored in params.

    On a disconnected graph the limit concentrates on the component(s) of
    largest spectral radius; near-zero entries elsewhere are valid scores.
    """
    _MeasureSettings(ec_tol=tol, ec_max_iter=max_iter)
    n = g.node_count
    if g.edge_count == 0:
        raise ValueError("eigenvector centrality is undefined on an edgeless graph")
    rows = np.repeat(np.arange(n), np.diff(g.indptr))
    nbr = g.indices

    def matvec(vec: np.ndarray) -> np.ndarray:
        return np.bincount(rows, weights=vec[nbr], minlength=n)

    x = np.full(n, 1.0 / math.sqrt(n))
    delta = math.inf
    iterations = 0
    for iterations in range(1, max_iter + 1):
        ax = matvec(x)
        y = ax + x
        y /= np.linalg.norm(y)
        delta = float(np.max(np.abs(y - x)))
        x = y
        if delta < tol:
            ax = matvec(x)
            lam = float(x @ ax)
            if float(np.max(np.abs(ax - lam * x))) < 10.0 * tol:
                break
    else:
        raise PowerIterationError(
            f"no convergence within {max_iter} iterations (last delta {delta:.3e})",
            scores=x,
            iterations=max_iter,
            delta=delta,
        )
    params = {
        "tol": tol,
        "max_iter": max_iter,
        "iterations": iterations,
        "eigenvalue": lam,
        "shift": 1.0,
        "start": "uniform",
    }
    return CentralityVector("EC", x, params)


def closeness_centrality(
    g: Graph, convention: str = _MeasureSettings.cc_convention
) -> CentralityVector:
    """Closeness from exact BFS distances.

    component_scaled: ((r-1)/S) * ((r-1)/(n-1)) where S is the sum of
    distances to the r-1 other reachable nodes -- well defined on
    disconnected graphs and bounded by 1. paper_literal: n / S over reachable
    nodes only. Isolated nodes score 0 under both.

    S and r-1 are exact integers summed per level of the bit-packed
    all-sources BFS, so each score is the same double as a per-source BFS
    gives.
    """
    _MeasureSettings(cc_convention=convention)
    _check_closeness(g)
    scores = _closeness_at(g, np.arange(g.node_count), convention)
    return CentralityVector("CC", scores, {"convention": convention})


def _check_closeness(g: Graph) -> None:
    if g.node_count < 2:
        raise ValueError("closeness centrality requires at least 2 nodes")


def _closeness_at(g: Graph, sources: np.ndarray, convention: str) -> np.ndarray:
    """Closeness of each of ``sources`` (distinct node ids), in that order;
    a source's score does not depend on which other sources are asked for."""
    n = g.node_count
    total = np.zeros(n, dtype=np.int64)
    reached = np.zeros(n, dtype=np.int64)
    for block, levels in _bfs_blocks(g, sources=sources):
        for depth, _, bits in levels:
            count = _source_bits(bits).sum(axis=0, dtype=np.int64)[: block.size]
            total[block] += depth * count
            reached[block] += count
    total, reached = total[sources], reached[sources]
    scores = np.zeros(len(sources))
    some = total > 0
    if convention == CC_PAPER_LITERAL:
        scores[some] = n / total[some]
    else:
        r1 = reached[some]
        scores[some] = (r1 / total[some]) * (r1 / (n - 1))
    return scores


def betweenness_centrality(
    g: Graph, normalized: bool = _MeasureSettings.bc_normalized
) -> CentralityVector:
    """Exact shortest-path betweenness by Brandes' dependency accumulation,
    run level-synchronously from each source.

    Shortest-path multiplicities give fractional credit; endpoints are
    excluded. Each unordered pair is counted once. Normalization divides by
    (n-1)(n-2)/2.

    The forward pass expands one BFS level at a time over the CSR gather of
    the frontier's rows. A level lists its nodes by first appearance in that
    gather, which is the order a FIFO queue visits them, and path counts
    (sigma) sum over the DAG edges in gather order. The backward pass walks
    the levels from the deepest and adds each dependency term in reverse
    queue order of the child, so every score is the same double as the
    queue-and-stack formulation gives. Work per level grows with the
    level's adjacency entries, never with n. A source stops once it has
    reached its whole component, so no level gathers only to find nothing.
    """
    _MeasureSettings(bc_normalized=normalized)
    n = g.node_count
    if normalized and n < 3:
        raise ValueError("normalized betweenness requires at least 3 nodes")
    indptr, degrees = g.indptr, g.degrees()
    # an int64 copy, so gathered neighbor ids index without a conversion
    indices = g.indices.astype(np.int64)
    unseen = np.ones(n, dtype=bool)
    # per reached node: the smallest gather index naming it, then its
    # position within its level
    slot = np.zeros(n, dtype=np.int64)
    # the per-level gathers fill these buffers, allocated once per call: a
    # fresh allocation per level would make BC's time depend on how the
    # allocator was left by whatever the process ran before
    steps = np.arange(max(n, indices.size))
    nbr_buf = np.empty(indices.size, dtype=np.int64)
    fresh_buf = np.empty(indices.size, dtype=bool)
    bc = np.zeros(n)
    labels, sizes = connected_components(g)
    component_size = np.asarray(sizes)[labels].tolist()
    for s in range(n):
        unseen[s] = False
        frontier = np.array([s], dtype=np.int64)
        levels = [frontier]
        sigmas = [np.ones(1)]
        dag: list[tuple[np.ndarray, np.ndarray]] = []  # (parent, child) positions
        reached = 1
        while reached < component_size[s]:
            # the frontier's CSR rows in frontier order: entry k of a row
            # that starts at output offset o is indices[indptr[v] + k - o]
            lens = degrees.take(frontier)
            ends = np.cumsum(lens)
            total = ends[-1]
            pos = np.repeat(indptr.take(frontier) - (ends - lens), lens)
            pos += steps[:total]
            # mode="clip" (the ids are in range) lets take write straight
            # into the buffer; with out= the default mode copies through a
            # temporary
            nbrs = indices.take(pos, out=nbr_buf[:total], mode="clip")
            del pos  # so the parent ids below can reuse its memory
            fresh = unseen.take(nbrs, out=fresh_buf[:total], mode="clip")
            child = nbrs.compress(fresh)
            parent = np.repeat(steps[: frontier.size], lens).compress(fresh)
            entry = steps[: child.size]
            slot[child] = child.size
            np.minimum.at(slot, child, entry)
            frontier = child.compress(slot.take(child) == entry)
            slot[frontier] = steps[: frontier.size]
            child = slot.take(child)
            unseen[frontier] = False
            reached += frontier.size
            sigmas.append(
                np.bincount(child, weights=sigmas[-1].take(parent), minlength=frontier.size)
            )
            levels.append(frontier)
            dag.append((parent, child))
        # the source's own dependency is never added, so the walk stops at
        # depth 1 and adds that level's deltas last
        delta = np.zeros(levels[-1].size)
        for d in range(len(dag) - 1, 0, -1):
            bc[levels[d + 1]] += delta
            coeff = (1.0 + delta) / sigmas[d + 1]
            parent, child = dag[d]
            # descending child position as an ascending unsigned key, which
            # numpy radix-sorts when it fits 8 or 16 bits; a child's edges
            # all have distinct parents, so each parent's terms keep their
            # order whatever the sort does with equal keys
            top = levels[d + 1].size - 1
            key = (top - child).astype(np.min_scalar_type(top))
            order = np.argsort(key, kind="stable")
            parent, child = parent.take(order), child.take(order)
            delta = np.bincount(
                parent,
                weights=sigmas[d].take(parent) * coeff.take(child),
                minlength=levels[d].size,
            )
        if dag:
            bc[levels[1]] += delta
        unseen[np.concatenate(levels)] = True
    bc /= 2.0  # undirected: every pair was accumulated from both endpoints
    if normalized:
        bc /= (n - 1) * (n - 2) / 2.0
    return CentralityVector("BC", bc, {"normalized": normalized})


def gravity_centrality(
    g: Graph,
    radius: int = _MeasureSettings.gc_radius,
    exponent: int = _MeasureSettings.gc_exponent,
) -> CentralityVector:
    """Gravity-style influence: sum of ks_i * ks_j / d(i,j)^exponent over every
    node j within ``radius`` hops of i, with ks the k-shell index.

    Follows the measure's reference implementations term for term: each
    term is Python's ``(ks_i * ks_j) / (d**exponent)``, evaluated once per
    pair of shell values and distance, and each source adds its terms one
    at a time in ascending node order. The bit-packed BFS runs ``radius``
    levels for 64 sources at once and keeps only each (node, source)
    distance, in the smallest unsigned type that holds min(radius, n) (one
    byte below 256). Terms are then
    looked up in a flat (distance, shell, shell) table, distance 0 giving
    0.0, a few thousand at a time, and a running sum down each source's
    column adds them in ascending node order (adding 0.0 for out-of-radius
    nodes is exact), so scores are bitwise those of a per-source loop.
    """
    _MeasureSettings(gc_radius=radius, gc_exponent=exponent)
    scores = _gravity_at(g, np.arange(g.node_count), radius, exponent)
    return CentralityVector("GC", scores, {"radius": radius, "exponent": exponent})


def _gravity_at(g: Graph, sources: np.ndarray, radius: int, exponent: int) -> np.ndarray:
    """Gravity of each of ``sources`` (distinct node ids), in that order;
    a source's score does not depend on which other sources are asked for."""
    n = g.node_count
    shell_values, shell_of = np.unique(k_shell(g), return_inverse=True)
    ks: list[int] = shell_values.tolist()
    s = len(ks)
    # table[(d * s + b) * s + a]: the term of a source in shell ks[a] and a
    # node in shell ks[b] at distance d, 0.0 at d = 0; a distance's terms are
    # added when the first block reaches it
    table = np.zeros(s * s)
    node_key = shell_of * s
    dtype = np.min_scalar_type(min(radius, n))
    scores = np.zeros(n)
    for block, levels in _bfs_blocks(g, max_depth=radius, sources=sources):
        # dist[v, j]: the distance from block[j] to v, 0 if beyond radius
        dist = np.zeros((n, block.size), dtype=dtype)
        for depth, nodes, bits in levels:
            if table.size <= depth * s * s:
                table = np.concatenate(
                    (table, [ks_i * ks_j / depth**exponent for ks_j in ks for ks_i in ks])
                )
            dist[nodes] += _source_bits(bits)[:, : block.size] * dtype.type(depth)
        # ``width`` nodes at a time, ascending; run[0] carries each source's
        # running total into the next chunk
        width = max(1, _GRAVITY_CHUNK_ELEMENTS // block.size)
        run = np.zeros((width + 1, block.size))
        for lo in range(0, n, width):
            hi = min(lo + width, n)
            key = np.multiply(dist[lo:hi], s * s, dtype=np.intp)
            key += node_key[lo:hi, None]
            key += shell_of[block]
            part = run[: hi - lo + 1]
            table.take(key, out=part[1:], mode="clip")
            np.cumsum(part, axis=0, out=part)
            run[0] = part[-1]
        scores[block] = run[0]
    return scores[sources]


def compute_centrality(g: Graph, measure: str, **settings) -> CentralityVector:
    """Dispatch a measure tag (case-insensitive) to its implementation. The
    tag and every setting (cc_convention, ec_tol, ec_max_iter, bc_normalized,
    gc_radius, gc_exponent; defaults as in _MeasureSettings) are checked
    before any work, whichever measure reads them."""
    s = _MeasureSettings(**settings)
    tag = _check_measure(measure)
    if tag == "DC":
        return degree_centrality(g)
    if tag == "EC":
        return eigenvector_centrality(g, tol=s.ec_tol, max_iter=s.ec_max_iter)
    if tag == "CC":
        return closeness_centrality(g, convention=s.cc_convention)
    if tag == "BC":
        return betweenness_centrality(g, normalized=s.bc_normalized)
    return gravity_centrality(g, radius=s.gc_radius, exponent=s.gc_exponent)


def _scores_reader(g: Graph, measure: str, **settings) -> Callable[[np.ndarray], np.ndarray]:
    """Check the tag and every setting as compute_centrality does, and
    return read, where read(nodes) gives the measure's scores at ``nodes``
    (distinct node ids), in that order, as compute_centrality would.

    Nothing is computed until read is called. CC and GC search from
    ``nodes`` only, and DC, EC and BC are computed in full; every score is
    bitwise the full vector's.
    """
    s = _MeasureSettings(**settings)
    tag = _check_measure(measure)
    if tag == "CC":
        _check_closeness(g)
        return lambda nodes: _closeness_at(g, nodes, s.cc_convention)
    if tag == "GC":
        return lambda nodes: _gravity_at(g, nodes, s.gc_radius, s.gc_exponent)
    return lambda nodes: compute_centrality(g, tag, **settings).scores[nodes]
