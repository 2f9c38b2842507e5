"""The FrogWild PageRank estimator (Definition 5 of the paper).

Each vertex accumulates a counter ``c(i)`` of frogs that stopped on it
(deaths during the run plus survivors at the cut-off).  The estimate is
``pi_hat(i) = c(i) / N`` and the top-k answer is the k largest entries.
N frogs stop on at most N vertices, so an estimate holds only its
nonzero counters, as id-ordered ``(id, count)`` records.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..cluster.replication import _narrow
from ..errors import ConfigError
from .config import check_positive_int
from .kernels.fused import count_keys

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


def _read_only(values: np.ndarray) -> np.ndarray:
    """A read-only view of ``values``; the caller's array keeps its own
    flags."""
    view = values.view()
    view.flags.writeable = False
    return view


def _whole(values, name: str) -> np.ndarray:
    """``values`` as int64; a fractional or non-finite entry is refused,
    not truncated."""
    values = np.asarray(values)
    if values.dtype.kind not in "biu" and not (
        np.isfinite(values) & (np.floor(values) == values)
    ).all():
        raise ConfigError(f"{name} must be whole numbers")
    return values.astype(np.int64, copy=False)


class PageRankEstimate:
    """Normalized frog-stop counts, i.e. the estimator pi_hat_N.

    The estimate holds its nonzero counters as ``(id, count)`` records
    (int32 whenever they fit), the frog count N and the vertex count n:
    at most 8 bytes per frog, never an n-vector.  The records are born
    in id order; the first :meth:`top_k` / :meth:`top_k_with_scores`
    call re-holds them in rank order, so every later answer is a prefix
    slice and a ranked estimate still holds 8 bytes per record.
    :attr:`records` hands them out in id order either way.
    :attr:`counts` and the views built on it (``vector()``,
    ``distribution()``, ``standard_errors()``, ``separation_z()``)
    materialise the dense vector when called, for figures, tests and
    diagnostics; nothing on the serving path calls them.

    Parameters
    ----------
    counts:
        Per-vertex stop counters ``c(i)``, length n (whole numbers).
    num_frogs:
        The number N of walkers launched; the estimator denominator.

    :meth:`from_records` builds one from the records directly.
    """

    def __init__(self, counts: np.ndarray, num_frogs: int) -> None:
        counts = _whole(counts, "counts")
        if counts.ndim != 1:
            raise ConfigError("counts must be one-dimensional")
        if counts.min(initial=0) < 0:
            raise ConfigError("counts must be non-negative")
        ids = np.flatnonzero(counts != 0)
        self._hold(ids, counts[ids], num_frogs, counts.size)

    @classmethod
    def from_records(
        cls,
        ids: np.ndarray,
        counts: np.ndarray,
        num_frogs: int,
        num_vertices: int,
    ) -> "PageRankEstimate":
        """The estimate whose nonzero counters are ``counts`` at ``ids``.

        The records are checked once: ids strictly increasing within
        ``[0, num_vertices)`` and every count a positive whole number.
        Anything else is a :class:`~repro.errors.ConfigError`.
        """
        ids = _whole(ids, "ids")
        counts = _whole(counts, "counts")
        if ids.ndim != 1 or ids.shape != counts.shape:
            raise ConfigError("record ids/counts must be equal-length 1-d")
        if (ids[1:] <= ids[:-1]).any():
            raise ConfigError("record ids must be strictly increasing")
        if ids.size and not (0 <= ids[0] and ids[-1] < num_vertices):
            raise ConfigError(f"record ids must lie in [0, {num_vertices})")
        if counts.min(initial=1) < 1:
            raise ConfigError("record counts must be positive")
        estimate = cls.__new__(cls)
        estimate._hold(ids, counts, num_frogs, num_vertices)
        return estimate

    def _hold(self, ids, counts, num_frogs, num_vertices) -> None:
        check_positive_int("num_frogs", num_frogs)
        # One attribute, swapped whole by the ranking: (ids, counts,
        # ranked), in rank order once ranked, else in id order.
        self._held = (
            _read_only(_narrow(ids)), _read_only(_narrow(counts)), False
        )
        self._num_frogs = int(num_frogs)
        self._num_vertices = int(num_vertices)

    @staticmethod
    def merge(estimates: "Sequence[PageRankEstimate]") -> "PageRankEstimate":
        """Sum independent estimates of the same chain into one.

        Frogs are independent walkers, so an N-frog estimate split into
        disjoint sub-populations (each shard of a sharded serving
        backend runs one) recombines exactly: counters add and the
        denominator is the total frog count.  All inputs must cover the
        same vertex universe.

        The parts' records are concatenated and summed by id with
        :func:`~repro.core.kernels.fused.count_keys`, the runner's own
        keyed sum; no n-vector is built.
        """
        if not estimates:
            raise ConfigError("need at least one estimate to merge")
        n = estimates[0].num_vertices
        if any(e.num_vertices != n for e in estimates):
            raise ConfigError("cannot merge estimates of different graphs")
        ids, counts = estimates[0].records
        if len(estimates) > 1:
            ids, counts = count_keys(
                np.concatenate([e.records[0] for e in estimates]),
                n,
                # Widened: two int32 parts may sum past 2**31.
                weights=np.concatenate(
                    [e.records[1] for e in estimates], dtype=np.int64
                ),
            )
        return PageRankEstimate.from_records(
            ids, counts, sum(e.num_frogs for e in estimates), n
        )

    @property
    def records(self) -> tuple[np.ndarray, np.ndarray]:
        """The nonzero counters as read-only ``(ids, counts)`` in id
        order (re-sorted on each call once the estimate is ranked)."""
        ids, counts, ranked = self._held
        if not ranked:
            return ids, counts
        order = ids.argsort(kind="stable")
        return _read_only(ids[order]), _read_only(counts[order])

    @property
    def counts(self) -> np.ndarray:
        """The dense counter vector ``c``, materialised (O(n))."""
        ids, stop_counts, _ = self._held
        counts = np.zeros(self._num_vertices, dtype=np.int64)
        counts[ids] = stop_counts
        return counts

    @property
    def num_frogs(self) -> int:
        return self._num_frogs

    @property
    def num_vertices(self) -> int:
        return self._num_vertices

    @property
    def total_stopped(self) -> int:
        """Total counted frogs (== N in multinomial scatter mode)."""
        return int(self._held[1].sum())

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

    def _ranked(self) -> tuple[np.ndarray, np.ndarray]:
        """The records by decreasing count, the lower id first among
        equals (the id-ordered records go through a stable sort); the
        first call re-holds them in this order and drops the id order.
        Two threads racing here rank the same records twice and store
        equal arrays, so the check needs no lock."""
        ids, counts, ranked = self._held
        if not ranked:
            order = top_k_indices(counts, counts.size)
            ids, counts = _read_only(ids[order]), _read_only(counts[order])
            self._held = (ids, counts, True)
        return ids, counts

    def top_k(self, k: int) -> np.ndarray:
        """Vertex ids of the estimated top-k, by decreasing count, as a
        fresh int64 array.

        Equal to ``top_k_indices(counts, k)``: a prefix of the ranked
        records, then — for k beyond them — the zero-count vertices in
        id order.
        """
        if k < 0:
            raise ConfigError("k must be non-negative")
        k = min(k, self._num_vertices)
        top = self._ranked()[0][:k].astype(np.int64)
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
        top = self.top_k(k)
        scores = self._ranked()[1][:k] / self._num_frogs
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
        kth, next_one = self.top_k(k + 1)[k - 1:]
        p = self.distribution()
        gap = p[kth] - p[next_one]
        errors = self.standard_errors()
        se = np.sqrt(errors[kth] ** 2 + errors[next_one] ** 2)
        if se == 0:
            return float("inf") if gap > 0 else 0.0
        return float(gap / se)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PageRankEstimate(n={self._num_vertices}, "
            f"N={self._num_frogs}, support={self._held[0].size})"
        )
