"""Accuracy metrics for top-k PageRank approximations."""

from .accuracy import (
    exact_identification,
    mass_captured,
    normalized_mass_captured,
    optimal_mass,
    top_k_jaccard,
)

__all__ = [
    "mass_captured",
    "optimal_mass",
    "normalized_mass_captured",
    "exact_identification",
    "top_k_jaccard",
]
