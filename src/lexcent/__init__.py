"""lexcent: lexical sorting centrality and SIR spreading evaluation.

Rank graph nodes by reverse-lexicographic comparison of rounded centrality
tuples (degree, eigenvector, closeness by default), benchmark the ranking
against Monte-Carlo SIR spreading scores, and compare with the classic
centrality measures.
"""

from .centrality import (
    CentralityVector,
    PowerIterationError,
    betweenness_centrality,
    closeness_centrality,
    compute_centrality,
    degree_centrality,
    eigenvector_centrality,
    gravity_centrality,
)
from .evaluation import (
    BenchmarkResult,
    EvalReport,
    benchmark_runtime,
    evaluate_dataset,
    kendall_tau,
    kendall_tau_pairwise,
    rank_vs_score_series,
    top_x_overlap,
)
from .graph import (
    DatasetStats,
    EdgeListParseError,
    Graph,
    connected_components,
    dataset_stats,
    from_edges,
    generate_barabasi_albert,
    k_shell,
    load_edge_list,
)
from .ranking import (
    NodeRanking,
    RankingMatrix,
    build_ranking_matrix,
    lexical_sort,
    lsc,
    ranking_from_scores,
)
from .sir import SirParams, score_all_nodes, spread_curve

__version__ = "0.1.0"

__all__ = [
    "BenchmarkResult",
    "CentralityVector",
    "DatasetStats",
    "EdgeListParseError",
    "EvalReport",
    "Graph",
    "NodeRanking",
    "PowerIterationError",
    "RankingMatrix",
    "SirParams",
    "benchmark_runtime",
    "betweenness_centrality",
    "build_ranking_matrix",
    "closeness_centrality",
    "compute_centrality",
    "connected_components",
    "dataset_stats",
    "degree_centrality",
    "eigenvector_centrality",
    "evaluate_dataset",
    "from_edges",
    "generate_barabasi_albert",
    "gravity_centrality",
    "k_shell",
    "kendall_tau",
    "kendall_tau_pairwise",
    "lexical_sort",
    "load_edge_list",
    "lsc",
    "rank_vs_score_series",
    "ranking_from_scores",
    "score_all_nodes",
    "spread_curve",
    "top_x_overlap",
]
