"""Accuracy metrics for top-k PageRank approximations."""

from .accuracy import (
    exact_identification,
    l1_error,
    linf_error,
    mass_captured,
    normalized_mass_captured,
    optimal_mass,
)
from .comparison import (
    mean_true_rank,
    top_k_jaccard,
    topk_jaccard,
    topk_kendall_tau,
)
from .ranking import ndcg_at_k, rank_biased_overlap

__all__ = [
    "mass_captured",
    "optimal_mass",
    "normalized_mass_captured",
    "exact_identification",
    "l1_error",
    "linf_error",
    "top_k_jaccard",
    "topk_jaccard",
    "topk_kendall_tau",
    "mean_true_rank",
    "ndcg_at_k",
    "rank_biased_overlap",
]
