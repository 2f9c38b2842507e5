"""PageRank solvers and the paper's baselines."""

from .exact import PowerIterationResult, exact_pagerank, pagerank_operator
from .graphlab_pr import GraphLabPageRankResult, graphlab_pagerank
from .montecarlo import monte_carlo_pagerank, simulate_walkers
from .sparsified import sparsified_pagerank, sparsify_uniform

__all__ = [
    "exact_pagerank",
    "pagerank_operator",
    "PowerIterationResult",
    "GraphLabPageRankResult",
    "graphlab_pagerank",
    "sparsify_uniform",
    "sparsified_pagerank",
    "monte_carlo_pagerank",
    "simulate_walkers",
]
