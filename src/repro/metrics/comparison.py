"""Ranking-comparison utilities beyond the paper's two headline metrics.

Useful when analysing *how* an approximation degrades: overlap of the
top-k sets, rank correlation among the vertices both rankings place in
their top-k, and the average true rank of the reported list.
"""

from __future__ import annotations

import numpy as np

from ..core.estimator import top_k_indices
from ..errors import ConfigError

__all__ = [
    "top_k_jaccard",
    "topk_jaccard",
    "topk_kendall_tau",
    "mean_true_rank",
]


def top_k_jaccard(a: np.ndarray, b: np.ndarray) -> float:
    """Jaccard overlap of two vertex-id sets (order ignored)."""
    set_a, set_b = set(map(int, a)), set(map(int, b))
    if not set_a and not set_b:
        return 1.0
    return len(set_a & set_b) / len(set_a | set_b)


def topk_jaccard(estimate: np.ndarray, truth: np.ndarray, k: int) -> float:
    """Jaccard similarity of the two top-k sets."""
    if k < 1:
        raise ConfigError("k must be positive")
    return top_k_jaccard(
        top_k_indices(np.asarray(estimate), k),
        top_k_indices(np.asarray(truth), k),
    )


def topk_kendall_tau(estimate: np.ndarray, truth: np.ndarray, k: int) -> float:
    """Kendall tau between the orderings on the *common* top-k vertices.

    Returns 1.0 when fewer than two vertices are common (no discordance
    is observable).
    """
    if k < 1:
        raise ConfigError("k must be positive")
    estimate = np.asarray(estimate, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    common = np.intersect1d(
        top_k_indices(estimate, k), top_k_indices(truth, k)
    )
    if common.size < 2:
        return 1.0
    est_order = np.argsort(-estimate[common], kind="stable")
    true_scores = truth[common][est_order]
    concordant = 0
    discordant = 0
    for i in range(true_scores.size - 1):
        later = true_scores[i + 1 :]
        concordant += int((true_scores[i] > later).sum())
        discordant += int((true_scores[i] < later).sum())
    total = concordant + discordant
    if total == 0:
        return 1.0
    return (concordant - discordant) / total


def mean_true_rank(estimate: np.ndarray, truth: np.ndarray, k: int) -> float:
    """Average (1-based) true rank of the estimate's top-k vertices.

    A perfect estimate scores ``(k + 1) / 2``.
    """
    if k < 1:
        raise ConfigError("k must be positive")
    estimate = np.asarray(estimate, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    true_rank = np.empty(truth.size, dtype=np.int64)
    true_rank[np.argsort(-truth, kind="stable")] = np.arange(1, truth.size + 1)
    chosen = top_k_indices(estimate, k)
    return float(true_rank[chosen].mean())
