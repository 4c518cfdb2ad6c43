"""Workload table and input generation for the lexcent benchmark.

Each workload is one `lexcent` CLI command built from the run's seed. The
program sees only the generated inputs: a `ba:<n>:<m>:<seed>` generator spec
or an edge-list file written here. Why each workload exists, and which
change is predicted to move it, is recorded in NOTES.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks

BA_N, BA_M = 1000, 10

# Monte-Carlo replications per workload, scaled down from the paper's
# settings so that one run of `--seconds` holds several CLI invocations.
EVAL_REPS = 100
GROUNDTRUTH_REPS = 300
CURVE_REPS = 3000
CURVE_STEPS = 50
CURVE_TOP = 10

# Shape of the sparse6k edge list: a BA(4000, 2) giant component plus small
# trees, about 6000 nodes and 9800 edges in all.
SPARSE_GIANT_N = 4000
SPARSE_GIANT_M = 2
SPARSE_TREE_NODES = 2000
SPARSE_TREE_SIZES = (2, 20)
SPARSE_LABEL_RANGE = 10**6


@dataclass(frozen=True)
class Workload:
    name: str

    def graph_args(self, seed: int, inputs: Path) -> list[str]:
        """The CLI graph-source flags, shared by the command and set-up."""
        if self.name == "lsc-curve-sparse6k":
            return ["--graph", str(inputs / "sparse6k.txt")]
        return ["--generate", f"ba:{BA_N}:{BA_M}:{seed}"]

    def command(self, seed: int, inputs: Path) -> list[str]:
        """CLI arguments (after `lexcent`) of the measured command."""
        graph = self.graph_args(seed, inputs)
        if self.name == "evaluate-ba1000":
            return ["evaluate", *graph, "--beta", "0.01", "--reps", str(EVAL_REPS),
                    "--seed", str(seed), "--threads", "1"]
        if self.name == "groundtruth-ba1000":
            return ["sir", *graph, "--beta", "0.01", "--gamma", "1",
                    "--reps", str(GROUNDTRUTH_REPS), "--seed", str(seed),
                    "--threads", "1"]
        return ["sir", *graph, "--seeds-from", "lsc", "--top", str(CURVE_TOP),
                "--beta", "0.1", "--gamma", "0.5", "--steps", str(CURVE_STEPS),
                "--reps", str(CURVE_REPS), "--seed", str(seed), "--threads", "1"]

    def setup_command(self, seed: int, inputs: Path) -> list[str]:
        """`lexcent stats` on the same graph source: import, generate or
        parse, CSR build, and nothing else."""
        return ["stats", *self.graph_args(seed, inputs)]

    def prepare(self, seed: int, inputs: Path) -> None:
        """Write the workload's input files, if it has any."""
        if self.name == "lsc-curve-sparse6k":
            inputs.mkdir(parents=True, exist_ok=True)
            (inputs / "sparse6k.txt").write_text(sparse_edge_list(seed))

    def check(self, out: Path, stdout: str, seed: int, inputs: Path) -> None:
        """Full output checks on one invocation; raises checks.CheckError."""
        from lexcent import generate_barabasi_albert, load_edge_list

        if self.name == "evaluate-ba1000":
            checks.check_evaluate(out, BA_N)
        elif self.name == "groundtruth-ba1000":
            checks.check_groundtruth(out, generate_barabasi_albert(BA_N, BA_M, seed))
        else:
            graph = load_edge_list((inputs / "sparse6k.txt").read_text(), relabel=True)
            checks.check_curve(out, stdout, graph, CURVE_STEPS, CURVE_TOP,
                               checks.lsc_top(graph, CURVE_TOP))


WORKLOADS = {
    name: Workload(name)
    for name in ("evaluate-ba1000", "groundtruth-ba1000", "lsc-curve-sparse6k")
}


def _barabasi_albert_edges(n: int, m: int, rng: np.random.Generator) -> list[tuple[int, int]]:
    """Preferential attachment: node t >= m links to m distinct earlier nodes
    drawn proportionally to degree (the first to nodes 0..m-1)."""
    edges: list[tuple[int, int]] = []
    endpoints: list[int] = []
    for new in range(m, n):
        if not endpoints:
            targets = list(range(m))
        else:
            targets = []
            while len(targets) < m:
                candidate = endpoints[int(rng.integers(len(endpoints)))]
                if candidate not in targets:
                    targets.append(candidate)
        for t in targets:
            edges.append((t, new))
        endpoints.extend(targets)
        endpoints.extend([new] * m)
    return edges


def sparse_graph(seed: int) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """(labels, edges) of the sparse6k graph for a seed: node i carries the
    integer label labels[i]; edges are (i, j) over node indices.

    A BA(4000, 2) giant component, then random trees of 2 to 20 nodes over
    the remaining 2000 nodes, so the graph is disconnected. Labels are
    distinct integers drawn from [0, 10**6), hence not contiguous.
    """
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(6000,)))
    edges = _barabasi_albert_edges(SPARSE_GIANT_N, SPARSE_GIANT_M, rng)
    start = SPARSE_GIANT_N
    end = SPARSE_GIANT_N + SPARSE_TREE_NODES
    lo, hi = SPARSE_TREE_SIZES
    while start < end:
        size = min(int(rng.integers(lo, hi + 1)), end - start)
        if size < 2:  # a lone leftover node joins the previous tree
            edges.append((start - 1, start))
            start += 1
            continue
        for k in range(1, size):
            edges.append((start + int(rng.integers(k)), start + k))
        start += size
    labels = rng.choice(SPARSE_LABEL_RANGE, size=end, replace=False)
    return labels, edges


def sparse_edge_list(seed: int) -> str:
    """Edge-list text of the sparse6k graph: a comment line, then one
    `label label` line per edge in shuffled order and orientation."""
    labels, edges = sparse_graph(seed)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(6001,)))
    order = rng.permutation(len(edges))
    flips = rng.random(len(edges)) < 0.5
    lines = [f"# sparse6k benchmark graph, seed {seed}: BA(4000,2) plus small trees"]
    for idx, flip in zip(order.tolist(), flips.tolist()):
        u, v = edges[idx]
        if flip:
            u, v = v, u
        lines.append(f"{labels[u]} {labels[v]}")
    return "\n".join(lines) + "\n"
