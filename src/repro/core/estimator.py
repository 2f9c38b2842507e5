"""The FrogWild PageRank estimator (Definition 5 of the paper).

Each vertex accumulates a counter ``c(i)`` of frogs that stopped on it
(deaths during the run plus survivors at the cut-off).  The estimate is
``pi_hat(i) = c(i) / N`` and the top-k answer is the k largest entries.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError

__all__ = ["PageRankEstimate", "top_k_indices"]


def top_k_indices(values: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` largest entries, sorted by decreasing value.

    Ties break on the lower vertex id so output is deterministic.
    """
    values = np.asarray(values)
    if k < 0:
        raise ConfigError("k must be non-negative")
    k = min(k, values.size)
    if k == 0:
        return np.empty(0, dtype=np.int64)
    # argsort on (-value, index): stable mergesort on negated values.
    order = np.argsort(-values, kind="stable")
    return order[:k].astype(np.int64)


class PageRankEstimate:
    """Normalized frog-stop counts, i.e. the estimator pi_hat_N.

    Parameters
    ----------
    counts:
        Per-vertex stop counters ``c(i)``, length n.
    num_frogs:
        The number N of walkers launched; the estimator denominator.
    """

    def __init__(self, counts: np.ndarray, num_frogs: int) -> None:
        counts = np.asarray(counts, dtype=np.int64)
        if counts.ndim != 1:
            raise ConfigError("counts must be one-dimensional")
        if num_frogs < 1:
            raise ConfigError("num_frogs must be positive")
        if counts.min(initial=0) < 0:
            raise ConfigError("counts must be non-negative")
        self._counts = counts
        self._num_frogs = int(num_frogs)

    @classmethod
    def merge(cls, estimates: "list[PageRankEstimate]") -> "PageRankEstimate":
        """Sum independent estimates of the same chain into one.

        Frogs are independent walkers, so an N-frog estimate split into
        disjoint sub-populations (the sharded serving backend runs each
        on its own sub-cluster) recombines exactly: counters add and the
        denominator is the total frog count.  All inputs must cover the
        same vertex universe.
        """
        if not estimates:
            raise ConfigError("need at least one estimate to merge")
        n = estimates[0].num_vertices
        if any(e.num_vertices != n for e in estimates):
            raise ConfigError("cannot merge estimates of different graphs")
        counts = np.zeros(n, dtype=np.int64)
        for estimate in estimates:
            counts += estimate.counts
        return cls(counts, sum(e.num_frogs for e in estimates))

    @property
    def counts(self) -> np.ndarray:
        """Raw stop counters ``c``."""
        return self._counts

    @property
    def num_frogs(self) -> int:
        return self._num_frogs

    @property
    def num_vertices(self) -> int:
        return self._counts.size

    @property
    def total_stopped(self) -> int:
        """Total counted frogs (== N in multinomial scatter mode)."""
        return int(self._counts.sum())

    def vector(self) -> np.ndarray:
        """The estimate pi_hat as a float vector summing to
        ``total_stopped / N`` (== 1 when no frogs were lost)."""
        return self._counts / self._num_frogs

    def distribution(self) -> np.ndarray:
        """pi_hat renormalized to sum exactly to 1 (when non-degenerate)."""
        total = self._counts.sum()
        if total == 0:
            return np.full(self._counts.size, 1.0 / self._counts.size)
        return self._counts / total

    def top_k(self, k: int) -> np.ndarray:
        """Vertex ids of the estimated top-k, by decreasing count.

        Equal to ``top_k_indices(counts, k)``, ranking only the nonzero
        counters when they already fill the answer: a personalized
        estimate stops frogs on a few hundred to a few thousand of n
        vertices, counters are non-negative, and the ascending support
        keeps the lower-id tie-break.
        """
        support = np.flatnonzero(self._counts)
        if support.size < k:
            return top_k_indices(self._counts, k)
        return support[top_k_indices(self._counts[support], k)]

    def top_k_with_scores(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """``(vertex ids, pi_hat scores)`` of the top-k, by decreasing
        count — the serving layer's answer payload."""
        top = self.top_k(k)
        return top, self._counts[top] / self._num_frogs

    def standard_errors(self) -> np.ndarray:
        """Per-vertex binomial standard error of pi_hat.

        Treating each frog's stop position as an independent categorical
        sample (exact at ps = 1 by Theorem 1's analysis), the estimator
        of vertex i has SE ``sqrt(p_i (1 - p_i) / N)``.  Partial
        synchronization adds positive correlation, so these are slightly
        optimistic for ps < 1 — the (1 - ps^2) p_meet term of Lemma 18
        quantifies the gap.
        """
        p = self.distribution()
        return np.sqrt(p * (1.0 - p) / self._num_frogs)

    def separation_z(self, k: int) -> float:
        """z-score separating rank k from rank k+1.

        A large value means the boundary of the reported top-k set is
        statistically solid; below ~2 the (k+1)-th vertex is within
        noise of the k-th and more frogs (Remark 6) are advisable.
        Returns ``inf`` when k covers all vertices.
        """
        if k < 1:
            raise ConfigError("k must be positive")
        if k >= self.num_vertices:
            return float("inf")
        order = top_k_indices(self._counts, k + 1)
        kth, next_one = order[k - 1], order[k]
        p = self.distribution()
        gap = p[kth] - p[next_one]
        se = np.sqrt(
            self.standard_errors()[kth] ** 2
            + self.standard_errors()[next_one] ** 2
        )
        if se == 0:
            return float("inf") if gap > 0 else 0.0
        return float(gap / se)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PageRankEstimate(n={self.num_vertices}, "
            f"N={self._num_frogs}, stopped={self.total_stopped})"
        )
