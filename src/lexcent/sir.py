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
036113, 2007). score_all_nodes then takes every node's mean and std from
one percolation sample per replication, shared by all nodes: the
distribution of spreading_score's.

Random streams are derived per replication: replication r seeded at node v
draws from a stream keyed by (rng_seed, v, r); multi-seed curve replications
and the percolation sample of replication r draw from (rng_seed, r). Results
are therefore bit-identical no matter how the work is ordered or batched.

Curves, spreading_score, run_single and score_all_nodes at gamma < 1 or with
max_steps run one simulator, _simulate, which returns every run's final size
and the summed cumulative curve, padded to max_steps + 1 when there is a
step cap. It advances a block of replications together: the block's
frontier is a list of (run, node) pairs and one CSR gather per step
collects every run's contacts. Each run still consumes its own stream
exactly as a run simulated alone would. Per step it draws, in one call,
one uniform per susceptible contact in frontier order (infection) followed,
when gamma < 1, by one per frontier node (recovery); Generator.random(a + b)
yields the same values as random(a) then random(b), so this is the draw
sequence of a per-run loop that makes the two calls separately. A run's
next frontier is its surviving nodes in their previous order, then its new
infections in ascending node order. Results are therefore bitwise equal to
that per-run loop, which tests/test_sir.py keeps as the oracle
reference_spread.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .graph import (
    Graph, _check_int, _check_real, _edge_endpoints, _is_int, _min_labels, _sorted_distinct,
)

SUSCEPTIBLE, INFECTIOUS, RECOVERED = 0, 1, 2


@dataclass(frozen=True)
class SirParams:
    beta: float
    gamma: float = 1.0
    replications: int = 1000
    rng_seed: int = 0
    max_steps: int | None = None

    def __post_init__(self):
        _check_real("beta", self.beta, 0, 1, low_closed=True)
        _check_real("gamma", self.gamma, 0, 1)
        _check_int("replications", self.replications, 1)
        if self.max_steps is not None:
            _check_int("max_steps", self.max_steps, 0)
        _check_int("rng_seed", self.rng_seed, 0)


@dataclass(frozen=True)
class SirResult:
    """One seed set's summary: the mean and std over replications of the
    final ever-infected count and, for spread_curve, the mean cumulative
    ever-infected count at each step t = 0..max_steps."""

    mean_score: float
    score_std: float
    curve: np.ndarray | None = None


def _stream(rng_seed: int, key: tuple[int, ...]) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=rng_seed, spawn_key=key))


def _check_seeds(g: Graph, seeds: Iterable[int]) -> np.ndarray:
    seeds = list(seeds)
    if not all(_is_int(s) for s in seeds):
        raise ValueError(f"seed ids must be integers, got {seeds!r}")
    arr = _sorted_distinct(np.array(seeds, dtype=np.int64))
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
    finals, curve = _simulate(g, [(_check_seeds(g, seeds), rng)], params)
    return int(finals[0]), curve


def spreading_score(g: Graph, seed: int, params: SirParams) -> SirResult:
    """Mean final spread size over ``params.replications`` independent runs
    with node ``seed`` as the sole initially infectious node."""
    finals = _node_scores(g, _check_seeds(g, [seed]).tolist(), params)[0]
    return SirResult(*map(float, _mean_std(finals)))


def spread_curve(g: Graph, seeds: Iterable[int], params: SirParams) -> SirResult:
    """Mean cumulative ever-infected count at each step for a fixed seed set;
    requires max_steps. Replication r draws from the (rng_seed, r) stream."""
    if params.max_steps is None:
        raise ValueError("spread_curve requires max_steps")
    seed_arr = _check_seeds(g, seeds)
    runs = ((seed_arr, _stream(params.rng_seed, (r,))) for r in range(params.replications))
    finals, curve = _simulate(g, runs, params)
    # sums of integers below 2**53 are exact, so the mean does not depend on
    # the order in which the runs were added
    mean, std = map(float, _mean_std(finals))
    return SirResult(mean, std, np.array(curve, dtype=np.float64) / params.replications)


def score_all_nodes(g: Graph, params: SirParams) -> tuple[np.ndarray, np.ndarray]:
    """(means, stds): every node's mean score and ddof=1 std, float64 arrays
    in node order, with spreading_score's distribution.

    At gamma = 1 without max_steps, replication r is one bond-percolation
    sample shared by all nodes (see the module docstring). Otherwise node v
    gets exactly spreading_score's pair.
    """
    if params.gamma == 1.0 and params.max_steps is None:
        return _percolation_scores(g, params)
    # as many nodes per _simulate call as fill one block, so finals stay small
    per_call = max(1, _block_runs(g) // params.replications)
    means, stds = np.empty(g.node_count), np.empty(g.node_count)
    for first in range(0, g.node_count, per_call):
        last = min(first + per_call, g.node_count)
        finals = _node_scores(g, range(first, last), params)
        means[first:last], stds[first:last] = _mean_std(finals)
    return means, stds


def _node_scores(g: Graph, nodes: Sequence[int], params: SirParams) -> np.ndarray:
    """Final sizes, one row per node of ``nodes`` and one column per
    replication; replication r of node v runs from v alone on the
    (rng_seed, v, r) stream."""
    runs = (
        (np.array([v], dtype=np.int32), _stream(params.rng_seed, (v, r)))
        for v in nodes
        for r in range(params.replications)
    )
    return _simulate(g, runs, params)[0].reshape(len(nodes), params.replications)


def _mean_std(finals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and ddof=1 std over the last axis (replications); std 0 for one."""
    return finals.mean(axis=-1), finals.std(axis=-1, ddof=int(finals.shape[-1] > 1))


# Elements one simulation step may touch per block: a step gathers at most
# 2m contacts per run and the state array holds n bytes per run.
_STEP_ELEMENTS = 1 << 20


def _block_runs(g: Graph) -> int:
    """Runs per block: at most _STEP_ELEMENTS // max(n, 2m), and at least 1."""
    return max(1, _STEP_ELEMENTS // max(g.node_count, g.indices.size, 1))


def _simulate(
    g: Graph,
    runs: Iterable[tuple[np.ndarray, np.random.Generator]],
    params: SirParams,
) -> tuple[np.ndarray, list[int]]:
    """(finals, curve) of every (seeds, rng) run: finals holds each run's
    final ever-infected count, in run order; curve[t] is the ever-infected
    count after step t summed over all runs, where a run that has ended
    counts its final size. curve runs to the last step any run executed,
    padded to max_steps + 1 entries when params.max_steps is set.

    ``seeds`` is a checked int32 seed array and ``rng`` the run's own stream;
    runs are consumed lazily, one block of _block_runs(g) at a time.
    """
    # int32 CSR offsets keep the per-contact gather index at 4 bytes
    offsets = g.indptr.astype(np.int32) if g.indices.size < 2**31 else g.indptr
    runs = iter(runs)
    finals = [np.empty(0, dtype=np.int64)]
    curve: list[int] = []
    while block := list(itertools.islice(runs, _block_runs(g))):
        seeds, rngs = zip(*block)
        ever, series = _simulate_block(g, offsets, seeds, rngs, params.beta, params.gamma,
                                       params.max_steps)
        finals.append(ever)
        # every earlier block is padded to len(curve), so curve[-1] is the
        # sum of their final sizes
        curve.extend([curve[-1] if curve else 0] * (len(series) - len(curve)))
        for t in range(len(curve)):
            curve[t] += series[min(t, len(series) - 1)]
    if params.max_steps is not None:
        curve.extend([curve[-1]] * (params.max_steps + 1 - len(curve)))
    return np.concatenate(finals), curve


def _simulate_block(
    g: Graph,
    offsets: np.ndarray,
    seeds: Sequence[np.ndarray],
    rngs: Sequence[np.random.Generator],
    beta: float,
    gamma: float,
    max_steps: int | None,
) -> tuple[np.ndarray, list[int]]:
    """Advance len(rngs) runs together; returns their final ever-infected
    counts and the block's summed ever-infected count after each step.

    The frontier is the pair of int32 arrays (frun, fnode), grouped by run
    and, within a run, in the order of a run simulated alone; fcount holds
    each run's frontier size. The state of node v in run i is state[i*n + v];
    these keys stay below max(_STEP_ELEMENTS, n), so int32 holds them.
    """
    n = g.node_count
    b = len(rngs)
    deg = np.diff(offsets)
    recovers = gamma < 1.0
    fcount = np.array([s.size for s in seeds], dtype=np.int64)
    frun = np.repeat(np.arange(b, dtype=np.int32), fcount)
    fnode = np.concatenate(seeds)
    state = np.zeros(b * n, dtype=np.uint8)
    state[frun * n + fnode] = INFECTIOUS
    ever = fcount.copy()
    series = [int(fcount.sum())]
    # draw-order mask for each run's [infection draws, recovery draws]
    halves = np.tile(np.array([True, False]), b)
    # take() and compress() rather than [] below: with int32 indices and
    # boolean masks, [] indexing is two to three times slower here
    while fnode.size and (max_steps is None or len(series) <= max_steps):
        # contacts: the CSR rows of the frontier in frontier order, as keys
        lens = deg.take(fnode)
        ends = np.cumsum(lens, dtype=offsets.dtype)
        src = np.repeat(offsets.take(fnode) - ends + lens, lens)
        src += np.arange(src.size, dtype=src.dtype)
        contacts = np.repeat(frun * n, lens)
        contacts += g.indices.take(src)
        del src
        contacts = contacts.compress(state.take(contacts) == SUSCEPTIBLE)
        per_run = np.bincount(contacts // n, minlength=b)
        need = per_run + fcount if recovers else per_run
        draws = np.empty(int(need.sum()))
        live = np.flatnonzero(need)
        stop = 0
        for i, k in zip(live.tolist(), need[live].tolist()):
            rngs[i].random(out=draws[stop:stop + k])
            stop += k
        infects = draws < beta
        if recovers:
            first = np.repeat(halves, np.column_stack((per_run, fcount)).ravel())
            recovered = draws.compress(~first) < gamma
            infects = infects.compress(first)
        del draws
        # unique keys ascending: by run, then each run's new nodes ascending
        new = np.sort(contacts.compress(infects))
        if new.size > 1:
            new = new.compress(np.concatenate(([True], new[1:] != new[:-1])))
        fkey = frun * n + fnode
        state[fkey.compress(recovered) if recovers else fkey] = RECOVERED
        state[new] = INFECTIOUS
        nrun = new // n
        nnode = new - nrun * n
        ncount = np.bincount(nrun, minlength=b)
        ever += ncount
        series.append(series[-1] + int(new.size))
        if recovers:
            # each run's survivors in their old order, then its new nodes
            keep = ~recovered
            frun = np.concatenate([frun.compress(keep), nrun])
            fnode = np.concatenate([fnode.compress(keep), nnode])
            order = np.argsort(frun, kind="stable")
            frun, fnode = frun.take(order), fnode.take(order)
            fcount = np.bincount(frun, minlength=b)
        else:
            frun, fnode, fcount = nrun, nnode, ncount
    return ever, series


def _percolation_scores(g: Graph, params: SirParams) -> tuple[np.ndarray, np.ndarray]:
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
    # reps * sum(x^2) - sum(x)^2 in Python ints: exact, and 0 for one replication
    spread = reps * total_sq.astype(object) - total.astype(object) ** 2
    stds = np.sqrt(spread.astype(np.float64) / (reps * max(reps - 1, 1)))
    return total / reps, stds
