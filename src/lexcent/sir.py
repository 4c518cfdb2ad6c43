"""Discrete-time SIR spreading simulation on a graph.

Dynamics per synchronous step: every infectious node first attempts to
infect each currently susceptible neighbor with independent probability beta
(multiple simultaneous exposures collapse into one state change), then every
node that was infectious at the start of the step recovers with probability
gamma. Newly infected nodes become infectious at the next step. A run ends
when no infectious nodes remain, or after max_steps.

With gamma = 1 and no step cap every infectious node tries each edge to a
susceptible neighbor exactly once, so the final outbreak from a seed has the
distribution of the seed's cluster in a bond percolation that opens each edge
with probability beta (Newman, PRE 66, 016128, 2002; Kenah & Robins, PRE 76,
036113, 2007). score_all_nodes then scores every node from one percolation
sample per replication: the same distribution as spreading_score, with the
samples shared across nodes.

Random streams are derived per replication: replication r seeded at node v
draws from a stream keyed by (rng_seed, v, r); multi-seed curve replications
and the percolation sample of replication r draw from (rng_seed, r). Results
are therefore bit-identical no matter how the work is ordered or parallelized.
"""

from __future__ import annotations

import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import IO, Iterable, Sequence

import numpy as np

from .graph import Graph, _edge_endpoints, _min_labels

SUSCEPTIBLE, INFECTIOUS, RECOVERED = 0, 1, 2


def _is_int(value) -> bool:
    """True for Python and numpy integers; False for bools, floats and the rest."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class SirParams:
    beta: float
    gamma: float = 1.0
    replications: int = 1000
    rng_seed: int = 0
    max_steps: int | None = None

    def __post_init__(self):
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must be in [0, 1], got {self.beta}")
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError(f"gamma must be in (0, 1], got {self.gamma}")
        if not _is_int(self.replications) or self.replications < 1:
            raise ValueError(f"replications must be an integer >= 1, got {self.replications!r}")
        if self.max_steps is not None and (not _is_int(self.max_steps) or self.max_steps < 0):
            raise ValueError(f"max_steps must be an integer >= 0, got {self.max_steps!r}")
        if not _is_int(self.rng_seed) or self.rng_seed < 0:
            raise ValueError(f"rng_seed must be an integer >= 0, got {self.rng_seed!r}")


@dataclass(frozen=True)
class SirResult:
    """mean_score is the mean over replications of the final ever-infected
    (recovered + still-infectious) count; curve, when present, is the mean
    cumulative ever-infected count at each step t = 0..max_steps."""

    mean_score: float
    score_std: float
    per_replication_scores: tuple[int, ...] | None = None
    curve: np.ndarray | None = None


def _stream(rng_seed: int, key: tuple[int, ...]) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=rng_seed, spawn_key=key))


def _spread(
    adj: list[np.ndarray],
    n: int,
    seeds: np.ndarray,
    beta: float,
    gamma: float,
    max_steps: int | None,
    rng: np.random.Generator,
    curve: list[int] | None,
) -> int:
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


def _check_seeds(g: Graph, seeds: Iterable[int]) -> np.ndarray:
    seeds = list(seeds)
    if not all(_is_int(s) for s in seeds):
        raise ValueError(f"seed ids must be integers, got {seeds!r}")
    arr = np.unique(np.asarray(seeds, dtype=np.int64))
    if arr.size == 0:
        raise ValueError("seed set must not be empty")
    if arr.min() < 0 or arr.max() >= g.node_count:
        raise ValueError(f"seed ids out of range for n={g.node_count}")
    return arr.astype(np.int32)


def run_single(
    g: Graph,
    seeds: Iterable[int],
    params: SirParams,
    rng: np.random.Generator,
) -> tuple[int, list[int]]:
    """One simulation run with the given random stream.

    Returns (final ever-infected count, cumulative curve). The curve starts
    at |seeds| and gains one entry per executed step; when max_steps is set
    it is padded to length max_steps + 1 with the final value.
    """
    seed_arr = _check_seeds(g, seeds)
    curve = [int(seed_arr.size)]
    final = _spread(
        g.adjacency_lists(), g.node_count, seed_arr,
        params.beta, params.gamma, params.max_steps, rng, curve,
    )
    if params.max_steps is not None and len(curve) < params.max_steps + 1:
        curve.extend([final] * (params.max_steps + 1 - len(curve)))
    return final, curve


def spreading_score(
    g: Graph,
    seed: int,
    params: SirParams,
    keep_replications: bool = False,
) -> SirResult:
    """Mean final spread size over ``params.replications`` independent runs
    with node ``seed`` as the sole initially infectious node."""
    _check_seeds(g, [seed])
    return _node_score(g.adjacency_lists(), g.node_count, seed, params, keep_replications)


def _node_score(
    adj: list[np.ndarray], n: int, seed: int, params: SirParams, keep_replications: bool
) -> SirResult:
    """spreading_score for a checked seed on prebuilt adjacency lists."""
    seed_arr = np.array([seed], dtype=np.int32)
    finals = np.empty(params.replications, dtype=np.int64)
    for r in range(params.replications):
        rng = _stream(params.rng_seed, (seed, r))
        finals[r] = _spread(adj, n, seed_arr, params.beta, params.gamma,
                            params.max_steps, rng, None)
    std = float(finals.std(ddof=1)) if params.replications > 1 else 0.0
    return SirResult(
        mean_score=float(finals.mean()),
        score_std=std,
        per_replication_scores=tuple(int(v) for v in finals) if keep_replications else None,
    )


def spread_curve(g: Graph, seeds: Iterable[int], params: SirParams) -> SirResult:
    """Mean cumulative ever-infected count at each step for a fixed seed set;
    requires max_steps. Replication r draws from the (rng_seed, r) stream."""
    if params.max_steps is None:
        raise ValueError("spread_curve requires max_steps")
    seed_arr = _check_seeds(g, seeds)
    adj = g.adjacency_lists()
    n = g.node_count
    steps = params.max_steps
    curve_sum = np.zeros(steps + 1, dtype=np.float64)
    finals = np.empty(params.replications, dtype=np.int64)
    for r in range(params.replications):
        rng = _stream(params.rng_seed, (r,))
        curve = [int(seed_arr.size)]
        finals[r] = _spread(adj, n, seed_arr, params.beta, params.gamma,
                            steps, rng, curve)
        if len(curve) < steps + 1:
            curve.extend([curve[-1]] * (steps + 1 - len(curve)))
        curve_sum += curve
    std = float(finals.std(ddof=1)) if params.replications > 1 else 0.0
    return SirResult(
        mean_score=float(finals.mean()),
        score_std=std,
        curve=curve_sum / params.replications,
    )


def score_all_nodes(
    g: Graph, params: SirParams, threads: int = 1
) -> list[SirResult]:
    """Spreading scores for every node, in node order; each has the same
    distribution as spreading_score's.

    At gamma = 1 without max_steps, replication r is one bond-percolation
    sample shared by all nodes (see the module docstring) and ``threads`` is
    not used. Otherwise every node runs its own spreading_score replications
    on ``threads`` workers. Either way the result is independent of
    evaluation order and of ``threads``.
    """
    if params.gamma == 1.0 and params.max_steps is None:
        return _percolation_scores(g, params)
    adj = g.adjacency_lists()
    n = g.node_count

    def score(v: int) -> SirResult:
        return _node_score(adj, n, v, params, False)

    if threads <= 1:
        return [score(v) for v in range(n)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(score, range(n)))


def _percolation_scores(g: Graph, params: SirParams) -> list[SirResult]:
    """Replication r opens each undirected edge (u < v, in CSR order) whose
    draw from the (rng_seed, r) stream is below beta and gives every node the
    size of its open cluster; means and ddof=1 stds come from exact integer
    sums of the sizes and of their squares."""
    n, reps = g.node_count, params.replications
    src, dst = _edge_endpoints(g)
    total = np.zeros(n, dtype=np.int64)
    total_sq = np.zeros(n, dtype=np.int64)
    for r in range(reps):
        is_open = _stream(params.rng_seed, (r,)).random(src.size) < params.beta
        roots = _min_labels(n, src[is_open], dst[is_open])
        size = np.bincount(roots)[roots]
        total += size
        total_sq += size * size
    if reps > 1:
        # reps * sum(x^2) - sum(x)^2 in Python integers: exact, cannot overflow
        spread = reps * total_sq.astype(object) - total.astype(object) ** 2
        stds = np.sqrt(spread.astype(np.float64) / (reps * (reps - 1)))
    else:
        stds = np.zeros(n)
    return [
        SirResult(mean_score=float(t / reps), score_std=float(sd))
        for t, sd in zip(total, stds)
    ]


def mean_scores(results: Sequence[SirResult]) -> np.ndarray:
    return np.array([r.mean_score for r in results])


def write_scores_csv(results: Sequence[SirResult], stream: IO[str]) -> None:
    """CSV with header node,mean_score,std."""
    stream.write("node,mean_score,std\n")
    for node, res in enumerate(results):
        stream.write(f"{node},{res.mean_score:.12g},{res.score_std:.12g}\n")


def write_curve_csv(result: SirResult, stream: IO[str]) -> None:
    """CSV with header t,mean_cumulative_infected."""
    if result.curve is None:
        raise ValueError("result has no curve")
    stream.write("t,mean_cumulative_infected\n")
    for t, value in enumerate(result.curve):
        stream.write(f"{t},{value:.12g}\n")
