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
step cap. It steps a pool of run slots together, sized from the graph so a
step touches a bounded number of elements; a slot whose run ends takes the
next run at once. The frontier holds every slot's (slot, node) keys, grouped
by slot, and one CSR gather per step collects every run's contacts. Each run
still consumes its own stream exactly as a run simulated alone would. Per
step it draws, in one call, one uniform per susceptible contact in frontier
order (infection) followed, when gamma < 1, by one per frontier node
(recovery); Generator.random(a + b) yields the same values as random(a)
then random(b), so this is the draw sequence of a per-run loop that makes
the two calls separately. The step reads the recovery draws by their
positions and maps each infection hit back to its contact by the slot's
offset. A run's next frontier is its surviving nodes in their previous
order, then its new infections in ascending node order. Results are
therefore bitwise equal to that per-run loop, which tests/test_sir.py keeps
as the oracle reference_spread.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .graph import (
    Graph, _check_int, _check_real, _edge_endpoints, _is_int, _min_labels, _sorted_distinct,
)


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
    # many runs per _simulate call, so the pool's slots refill across nodes,
    # while a call's int64 finals stay within _STEP_ELEMENTS bytes
    per_call = max(1, _STEP_ELEMENTS // (8 * params.replications))
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


# Elements one simulation step may touch: a step gathers at most 2m
# contacts per run slot and the susceptible array holds n bytes per slot.
_STEP_ELEMENTS = 1 << 20


def _block_runs(g: Graph) -> int:
    """Run slots in _simulate's pool: at most _STEP_ELEMENTS // max(n, 2m),
    and at least 1."""
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

    ``seeds`` is a checked int32 seed array and ``rng`` the run's own stream.
    Runs are consumed lazily into a pool of _block_runs(g) slots; a slot
    whose run ends takes the next run before the next step. Node v of slot
    s's run is key s*n + v, also in the boolean ``susceptible`` array, whose
    row a new run resets. The frontier is grouped by slot and, within a
    slot, in the order of a run simulated alone; so is every per-step array
    of keys taken from it, and a searchsorted against the slot bases splits
    such an array by slot. A step's draws hold each slot's infection draws,
    then its recovery draws, slot after slot: recovery draws are read by
    position, and an infection hit at draw position p of slot s is contact
    p minus the frontier entries of the slots before s.

    A run's cumulative count grows only by its new infections, so curve is
    the running sum of ``gained``: every run's seed count at age 0 and, at
    each later age, the new infections of the runs that reached it.
    """
    n, beta, gamma, max_steps = g.node_count, params.beta, params.gamma, params.max_steps
    recovers = gamma < 1.0
    # int32 CSR offsets and keys keep the per-contact arrays at 4 bytes;
    # keys stay below slots * n <= max(_STEP_ELEMENTS, n)
    offsets = g.indptr.astype(np.int32) if g.indices.size < 2**31 else g.indptr
    deg = np.diff(offsets)
    slots = _block_runs(g)
    key_type = np.int32 if slots * n < 2**31 else np.int64
    base = np.arange(slots + 1, dtype=key_type) * key_type(n)
    susceptible = np.ones(slots * n, dtype=bool)
    fill = [None] * slots  # each slot's rng.random, None for an idle slot
    run_of = [0] * slots  # the index of each slot's run in ``runs``
    age = np.zeros(slots, dtype=np.int64)
    ever = np.zeros(slots, dtype=np.int64)
    gained = np.zeros(1 if max_steps is None else max_steps + 1, dtype=np.int64)
    finals: list[int] = []
    runs = iter(runs)
    # the next frontier's survivors and new infections, grouped by slot
    surv = new = np.empty(0, dtype=key_type)
    ended = range(slots)
    # take() and compress() rather than [] below: with int32 indices and
    # boolean masks, [] indexing is two to three times slower here
    while True:
        seeds = []
        for s in ended:
            if fill[s] is not None:
                finals[run_of[s]] = int(ever[s])
                fill[s] = None
            # max_steps = 0 ends a run at once, so the slot takes the next
            for start, rng in runs:
                finals.append(start.size)
                gained[0] += start.size
                if max_steps != 0:
                    row = susceptible[base[s]:base[s + 1]]
                    row[:] = True
                    row[start] = False
                    seeds.append(start + base[s])
                    fill[s], run_of[s], age[s], ever[s] = rng.random, len(finals) - 1, 0, start.size
                    break
        # each slot's survivors in their old order, then its new infections
        # ascending, then a new run's seeds ascending
        fkey = np.concatenate([surv, new, *seeds])
        if surv.size or seeds:
            fkey = fkey.take(np.argsort(fkey // n, kind="stable"))
        if not fkey.size:
            break
        fbound = np.searchsorted(fkey, base)  # frontier entries before slot s
        fcount = np.diff(fbound)

        # contacts: the CSR rows of the frontier in frontier order, as keys
        fbase = np.repeat(base[:-1], fcount)
        fnode = fkey - fbase
        lens = deg.take(fnode)
        ends = np.cumsum(lens, dtype=offsets.dtype)
        src = np.repeat(offsets.take(fnode) - ends + lens, lens)
        src += np.arange(src.size, dtype=src.dtype)
        contacts = np.repeat(fbase, lens)
        contacts += g.indices.take(src)
        del src, fbase, fnode
        contacts = contacts.compress(susceptible.take(contacts))
        cbound = np.searchsorted(contacts, base)  # contacts before slot s
        dbound = cbound + fbound if recovers else cbound
        draws = np.empty(int(dbound[-1]))
        live = np.flatnonzero(dbound[1:] > dbound[:-1])
        for s, lo, hi in zip(live.tolist(), dbound[live].tolist(), dbound[live + 1].tolist()):
            fill[s](out=draws[lo:hi])
        if recovers:
            # frontier entry i of slot s has its recovery draw at
            # cbound[s + 1] + i, after the slot's infection draws
            rpos = np.repeat(cbound[1:], fcount)
            rpos += np.arange(rpos.size)
            survives = draws.take(rpos) >= gamma
            draws.put(rpos, 1.0)  # never below beta, so never an infection hit
            del rpos
        hits = np.flatnonzero(draws < beta)
        del draws
        if recovers:
            hits -= np.repeat(fbound[:-1], np.diff(np.searchsorted(hits, dbound)))
        # unique keys ascending: by slot, then each run's new nodes ascending
        new = np.sort(contacts.take(hits))
        del contacts, hits
        if new.size > 1:
            new = new.compress(np.concatenate(([True], new[1:] != new[:-1])))
        susceptible.put(new, False)
        ncount = np.diff(np.searchsorted(new, base))
        if recovers:
            surv = fkey.compress(survives)
        scount = np.diff(np.searchsorted(surv, base))

        # every slot with a frontier took a step; its run ends with no
        # frontier left or at max_steps
        active = fcount > 0
        age += active
        ever += ncount
        if age.max() == gained.size:  # without a step cap: an age no run had reached
            gained = np.append(gained, 0)
        np.add.at(gained, age, ncount)
        over = active & (scount + ncount == 0)
        if max_steps is not None:
            capped = active & (age == max_steps)
            if capped.any():
                over |= capped
                surv = surv.compress(np.repeat(~capped, scount))
                new = new.compress(np.repeat(~capped, ncount))
        ended = np.flatnonzero(over).tolist()
    return np.array(finals, dtype=np.int64), np.cumsum(gained).tolist()


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
