"""Per-layer metrics from the spans of one traced run.

Layers are named after the modules under src/lexcent. Self time is a span's
duration minus its child spans, so the self times of one thread's spans add
up to the time spent inside traced functions. Metrics named `*_s` are self
times unless NOTES.md says they are inclusive.
"""

from __future__ import annotations

from collections import defaultdict

from tracer import self_times

MEASURE_FUNCTIONS = {
    "centrality.degree_centrality": "DC",
    "centrality.eigenvector_centrality": "EC",
    "centrality.closeness_centrality": "CC",
    "centrality.betweenness_centrality": "BC",
    "centrality.gravity_centrality": "GC",
}

BUILD_FUNCTIONS = (
    "cli._load_graph",
    "graph.load_edge_list",
    "graph.from_edges",
    "graph.generate_barabasi_albert",
)


def _is_write(name: str) -> bool:
    function = name.split(".", 1)[1]
    return function.startswith("write_") or function in ("_write", "_write_labels")


def layer_metrics(spans: list[dict], traced_wall: float) -> dict[str, float]:
    """Per-layer metrics that come from the spans alone."""
    own = self_times(spans)
    count: dict[str, int] = defaultdict(int)
    inclusive: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    attrs: dict[str, int] = defaultdict(int)
    for s in spans:
        name = s["name"]
        count[name] += 1
        inclusive[name] += s["end"] - s["start"]
        self_s[name] += own[s["id"]]
        for key in ("replications", "iterations"):
            attrs[f"{name}:{key}"] += s.get(key, 0)

    m: dict[str, float] = {}
    m["graph.build_s"] = (
        sum(self_s[f] for f in BUILD_FUNCTIONS)
        + sum(v for k, v in self_s.items() if k.startswith("datasets."))
    )
    m["graph.bfs_calls"] = count["graph.bfs_distances"]
    m["graph.bfs_s"] = self_s["graph.bfs_distances"]
    m["graph.k_shell_calls"] = count["graph.k_shell"]
    m["graph.k_shell_s"] = self_s["graph.k_shell"]

    for function, tag in MEASURE_FUNCTIONS.items():
        m[f"centrality.{tag}.calls"] = count[function]
        m[f"centrality.{tag}.s"] = (
            self_s[function] + self_s[f"centrality.compute_centrality[{tag}]"]
        )
    ec = "centrality.eigenvector_centrality"
    m["centrality.EC.iterations"] = attrs[f"{ec}:iterations"] / count[ec] if count[ec] else 0

    m["ranking.lsc_calls"] = count["ranking.lsc"]
    m["ranking.lsc_s"] = inclusive["ranking.lsc"]
    m["ranking.round_s"] = self_s["ranking.build_ranking_matrix"]
    m["ranking.sort_s"] = self_s["ranking.lexical_sort"]
    gc = "centrality.gravity_centrality"
    if count["ranking.lsc"] and count[gc]:
        m["ranking.lsc_over_gc"] = (inclusive["ranking.lsc"] / count["ranking.lsc"]) / (
            inclusive[gc] / count[gc]
        )
    else:
        m["ranking.lsc_over_gc"] = 0.0

    score = "sir.spreading_score"
    m["sir.score_all_nodes_s"] = inclusive["sir.score_all_nodes"]
    m["sir.spreading_score_calls"] = count[score]
    m["sir.replications"] = attrs[f"{score}:replications"]
    m["sir.reps_per_s"] = (
        attrs[f"{score}:replications"] / inclusive[score] if inclusive[score] else 0.0
    )
    m["sir.spread_curve_s"] = inclusive["sir.spread_curve"]
    m["sir.curve_reps"] = attrs["sir.spread_curve:replications"]

    m["evaluation.evaluate_dataset_s"] = self_s["evaluation.evaluate_dataset"]
    m["evaluation.kendall_tau_calls"] = count["evaluation.kendall_tau"]
    m["evaluation.kendall_tau_s"] = inclusive["evaluation.kendall_tau"]
    m["evaluation.top_x_overlap_s"] = inclusive["evaluation.top_x_overlap"]
    m["evaluation.rank_vs_score_s"] = inclusive["evaluation.rank_vs_score_series"]

    m["cli.write_s"] = sum(v for k, v in self_s.items() if _is_write(k))
    m["cli.unaccounted_s"] = traced_wall - sum(own.values())
    return m
