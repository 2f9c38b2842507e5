"""The FrogWild PageRank estimator (Definition 5 of the paper).

Each vertex accumulates a counter ``c(i)`` of frogs that stopped on it
(deaths during the run plus survivors at the cut-off).  The estimate is
``pi_hat(i) = c(i) / N`` and the top-k answer is the k largest entries.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..cluster.replication import _narrow
from ..errors import ConfigError

__all__ = ["PageRankEstimate", "RankedEstimate", "top_k_indices"]


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
    if values.dtype.kind in "iu":
        # Rank a signed copy: negation wraps on unsigned input (a zero
        # would sort first).  Counters below 2**15 — every lane's, at
        # the served frog budgets — rank as int16, where numpy's stable
        # sort is a radix sort (~5x its int64 timsort); same order.
        low, high = values.min(), values.max()
        if high > np.iinfo(np.int64).max:
            raise ConfigError("unsigned values beyond int64 cannot be ranked")
        narrow = -(2**15) < low and high < 2**15
        values = values.astype(np.int16 if narrow else np.int64)
    # argsort on (-value, index): a stable sort of the negated values.
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

    Only :attr:`counts`, :attr:`num_vertices`, :meth:`ranked` and
    ``_support`` read the stored vector; every other method goes through
    those four, so :class:`RankedEstimate` changes the storage by
    overriding them.
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

    @staticmethod
    def merge(estimates: "Sequence[PageRankEstimate]") -> "RankedEstimate":
        """Sum independent estimates of the same chain into one, ranked.

        Frogs are independent walkers, so an N-frog estimate split into
        disjoint sub-populations (each shard of a sharded serving
        backend runs one) recombines exactly: counters add and the
        denominator is the total frog count.  All inputs must cover the
        same vertex universe.

        The merge reads each part as its id-ordered ``(id, count)``
        records and builds no n-vector: it concatenates them, sorts the
        ids stably (timsort merges the S sorted runs), sums each id's
        group with ``np.add.reduceat`` and ranks the sums once.  A
        one-part merge is that part's ranking.
        """
        if not estimates:
            raise ConfigError("need at least one estimate to merge")
        n = estimates[0].num_vertices
        if any(e.num_vertices != n for e in estimates):
            raise ConfigError("cannot merge estimates of different graphs")
        supports = [estimate._support() for estimate in estimates]
        ids, counts = supports[0]
        if len(supports) > 1:
            ids = np.concatenate([part[0] for part in supports])
            # Widen first: two int32 parts may sum past 2**31.
            counts = np.concatenate(
                [part[1] for part in supports], dtype=np.int64
            )
            order = np.argsort(ids, kind="stable")
            ids, counts = ids[order], counts[order]
            first = np.ones(ids.size, dtype=bool)
            first[1:] = ids[1:] != ids[:-1]
            starts = np.flatnonzero(first)
            ids, counts = ids[starts], np.add.reduceat(counts, starts)
        # Ascending ids keep the lower-id tie-break of the stable sort.
        order = top_k_indices(counts, counts.size)
        return RankedEstimate(
            ids[order],
            counts[order],
            sum(estimate.num_frogs for estimate in estimates),
            n,
        )

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
        return int(self.counts.sum())

    def vector(self) -> np.ndarray:
        """The estimate pi_hat as a float vector summing to
        ``total_stopped / N`` (== 1 when no frogs were lost)."""
        return self.counts / self._num_frogs

    def distribution(self) -> np.ndarray:
        """pi_hat renormalized to sum exactly to 1 (when non-degenerate)."""
        counts = self.counts
        total = counts.sum()
        if total == 0:
            return np.full(counts.size, 1.0 / counts.size)
        return counts / total

    def _support(self) -> tuple[np.ndarray, np.ndarray]:
        """The nonzero counters as ``(ids, counts)`` in id order: what
        :meth:`merge` reads of an estimate."""
        ids = np.flatnonzero(self._counts != 0)
        return ids, self._counts[ids]

    def ranked(self) -> "RankedEstimate":
        """The same estimate as its ranked support (see
        :class:`RankedEstimate`): one ``flatnonzero`` of the nonzero
        mask plus one stable ``argsort`` of the nonzero counters."""
        return PageRankEstimate.merge([self])

    def top_k(self, k: int) -> np.ndarray:
        """Vertex ids of the estimated top-k, by decreasing count, as a
        fresh int64 array.

        Equal to ``top_k_indices(counts, k)``: a prefix of the ranked
        support, then — for k beyond it — the zero-count vertices in id
        order.  The dense form ranks on every call, so a caller asking
        more than once should keep :meth:`ranked` and ask that.
        """
        if k < 0:
            raise ConfigError("k must be non-negative")
        ranked = self.ranked()
        k = min(k, ranked.num_vertices)
        top = ranked.ranked_ids[:k].astype(np.int64)
        missing = k - top.size
        if missing == 0:
            return top
        # The first ``missing`` ids outside the support all lie below k
        # (at most support-size of the ids under k are taken).
        free = np.ones(k, dtype=bool)
        free[top[top < k]] = False
        return np.concatenate((top, np.flatnonzero(free)[:missing]))

    def top_k_with_scores(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """``(vertex ids, pi_hat scores)`` of the top-k, by decreasing
        count — the serving layer's answer payload, two fresh arrays."""
        ranked = self.ranked()
        top = ranked.top_k(k)
        scores = ranked.ranked_counts[:k] / ranked.num_frogs
        if scores.size < top.size:
            scores = np.concatenate((scores, np.zeros(top.size - scores.size)))
        return top, scores

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
        order = top_k_indices(self.counts, k + 1)
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


class RankedEstimate(PageRankEstimate):
    """The same estimator, stored as its ranked support.

    The estimator is N frogs' stop counters, so a personalized estimate
    has at most N nonzero entries of n.  This form keeps only those —
    at most 16 bytes per frog instead of 8 per vertex — already in rank
    order, so ``top_k(k)`` is a prefix copy for every k.  It is what
    the serving backends return and the only thing the answer cache
    stores of an estimate.  Build it with
    :meth:`PageRankEstimate.ranked`.

    It overrides exactly the four accessors the base class derives
    everything else from: :attr:`counts` (here an O(n) materialisation,
    like every dense view built on it — ``vector()``, ``distribution()``,
    ... — for tests and diagnostics; nothing on the serving path calls
    them), :attr:`num_vertices`, :meth:`ranked` (itself) and
    ``_support`` (its records re-sorted by id, for :meth:`merge`).

    Parameters
    ----------
    ranked_ids:
        The distinct vertex ids with a nonzero counter, by decreasing
        count, lower id first among equals.
    ranked_counts:
        Their positive counters, aligned with ``ranked_ids``.
    num_frogs:
        The number N of walkers launched; the estimator denominator.
    num_vertices:
        The size n of the vertex universe.
    """

    def __init__(
        self,
        ranked_ids: np.ndarray,
        ranked_counts: np.ndarray,
        num_frogs: int,
        num_vertices: int,
    ) -> None:
        ids = np.asarray(ranked_ids, dtype=np.int64)
        counts = np.asarray(ranked_counts, dtype=np.int64)
        if ids.ndim != 1 or ids.shape != counts.shape:
            raise ConfigError("ranked ids/counts must be equal-length 1-d")
        if num_frogs < 1:
            raise ConfigError("num_frogs must be positive")
        if ids.size and not 0 <= ids.min() <= ids.max() < num_vertices:
            raise ConfigError(f"ranked ids must lie in [0, {num_vertices})")
        if counts.min(initial=1) < 1:
            raise ConfigError("ranked counts must be positive")
        step = counts[1:] - counts[:-1]
        if (step > 0).any() or (ids[1:] <= ids[:-1])[step == 0].any():
            raise ConfigError(
                "records must be in rank order: decreasing count, "
                "lower id first among equals"
            )
        self._ranked_ids = _narrow(ids)
        self._ranked_counts = _narrow(counts)
        self._ranked_ids.flags.writeable = False
        self._ranked_counts.flags.writeable = False
        self._num_frogs = int(num_frogs)
        self._num_vertices = int(num_vertices)

    @property
    def ranked_ids(self) -> np.ndarray:
        """Vertex ids with a nonzero counter, in rank order (read-only;
        int32 whenever they fit)."""
        return self._ranked_ids

    @property
    def ranked_counts(self) -> np.ndarray:
        """Counters of :attr:`ranked_ids`, aligned with it."""
        return self._ranked_counts

    @property
    def num_vertices(self) -> int:
        return self._num_vertices

    @property
    def counts(self) -> np.ndarray:
        """The dense counter vector ``c``, materialised (O(n))."""
        counts = np.zeros(self._num_vertices, dtype=np.int64)
        counts[self._ranked_ids] = self._ranked_counts
        return counts

    def _support(self) -> tuple[np.ndarray, np.ndarray]:
        order = np.argsort(self._ranked_ids)
        return self._ranked_ids[order], self._ranked_counts[order]

    def ranked(self) -> "RankedEstimate":
        """Itself: ``top_k`` of this form never ranks again."""
        return self

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RankedEstimate(n={self._num_vertices}, "
            f"N={self._num_frogs}, support={self._ranked_ids.size})"
        )


class _IdOrderedEstimate(PageRankEstimate):
    """The same estimator, stored as its support in id order: one lane
    of a process-pool worker's result frame, as it arrived.

    :meth:`PageRankEstimate.merge` reads these records as they are, so
    the frame is checked here, once: ids strictly increasing within
    ``[0, num_vertices)`` and every count positive.  A refused frame is
    a :class:`~repro.errors.ConfigError`.
    """

    def __init__(
        self,
        ids: np.ndarray,
        counts: np.ndarray,
        num_frogs: int,
        num_vertices: int,
    ) -> None:
        ids = np.asarray(ids, dtype=np.int64)
        counts = np.asarray(counts, dtype=np.int64)
        if ids.ndim != 1 or ids.shape != counts.shape:
            raise ConfigError("frame ids/counts must be equal-length 1-d")
        if num_frogs < 1:
            raise ConfigError("num_frogs must be positive")
        if (ids[1:] <= ids[:-1]).any():
            raise ConfigError("frame ids must be strictly increasing")
        if ids.size and not (0 <= ids[0] and ids[-1] < num_vertices):
            raise ConfigError(f"frame ids must lie in [0, {num_vertices})")
        if counts.min(initial=1) < 1:
            raise ConfigError("frame counts must be positive")
        self._ids = ids
        self._stop_counts = counts
        self._num_frogs = int(num_frogs)
        self._num_vertices = int(num_vertices)

    @property
    def num_vertices(self) -> int:
        return self._num_vertices

    @property
    def counts(self) -> np.ndarray:
        """The dense counter vector ``c``, materialised (O(n))."""
        counts = np.zeros(self._num_vertices, dtype=np.int64)
        counts[self._ids] = self._stop_counts
        return counts

    def _support(self) -> tuple[np.ndarray, np.ndarray]:
        return self._ids, self._stop_counts
