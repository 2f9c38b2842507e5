"""Top-k accuracy metrics (Section 2.1.1 of the paper).

Two headline metrics:

* **Mass captured** (Definition 2): take the k vertices the estimate
  ranks highest and sum their *true* PageRank.  Maximized by the true
  vector itself, so the normalized form divides by ``mu_k(pi)`` — the
  quantity plotted in Figures 2a, 3, 5, 6 and 7.
* **Exact identification**: fraction of the estimated top-k that belong
  to the true top-k (Figure 2b).

:func:`top_k_jaccard` compares two reported top-k sets with each other
(a churning graph's list stability from one refresh to the next).
"""

from __future__ import annotations

import numpy as np

from ..core.estimator import top_k_indices
from ..errors import ConfigError

__all__ = [
    "mass_captured",
    "optimal_mass",
    "normalized_mass_captured",
    "exact_identification",
    "top_k_jaccard",
]


def _validate(estimate: np.ndarray, truth: np.ndarray, k: int) -> None:
    if estimate.shape != truth.shape:
        raise ConfigError(
            f"estimate and truth must align, got {estimate.shape} vs "
            f"{truth.shape}"
        )
    if k < 1:
        raise ConfigError("k must be positive")


def mass_captured(estimate: np.ndarray, truth: np.ndarray, k: int) -> float:
    """mu_k(v): true mass of the estimate's top-k set (Definition 2)."""
    estimate = np.asarray(estimate, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    _validate(estimate, truth, k)
    chosen = top_k_indices(estimate, k)
    return float(truth[chosen].sum())


def optimal_mass(truth: np.ndarray, k: int) -> float:
    """mu_k(pi): the best mass any k-set can capture."""
    truth = np.asarray(truth, dtype=np.float64)
    if k < 1:
        raise ConfigError("k must be positive")
    return float(truth[top_k_indices(truth, k)].sum())


def normalized_mass_captured(
    estimate: np.ndarray, truth: np.ndarray, k: int
) -> float:
    """mu_k(v) / mu_k(pi) in [0, 1]; the paper's accuracy axis."""
    best = optimal_mass(truth, k)
    if best <= 0:
        raise ConfigError("true distribution has no mass in its top-k")
    return mass_captured(estimate, truth, k) / best


def exact_identification(
    estimate: np.ndarray, truth: np.ndarray, k: int
) -> float:
    """|top-k(estimate) ∩ top-k(truth)| / k (Figure 2b's metric)."""
    estimate = np.asarray(estimate, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    _validate(estimate, truth, k)
    found = np.intersect1d(
        top_k_indices(estimate, k), top_k_indices(truth, k)
    )
    return found.size / float(min(k, truth.size))


def top_k_jaccard(a: np.ndarray, b: np.ndarray) -> float:
    """Jaccard overlap of two vertex-id sets (order ignored)."""
    set_a, set_b = set(map(int, a)), set(map(int, b))
    if not set_a and not set_b:
        return 1.0
    return len(set_a & set_b) / len(set_a | set_b)
