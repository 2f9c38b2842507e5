"""Query normalization and batch coalescing.

A :class:`RankingQuery` is the service's wire format: seed vertices, an
optional restart-weight vector, the wanted ``k`` and an optional
config override.  The :class:`QueryCoalescer` groups pending queries
into batches the batched runner can execute — with one hard rule:
**mixed configs never share a batch**.  All populations of one
:class:`~repro.core.batched.BatchedFrogWildRunner` share ``iterations``,
``p_teleport``, ``scatter_mode`` and ``erasure_model``, so a query that
overrides any of them must ride a different traversal; coalescing them
anyway would silently change the semantics of its batchmates' answers.

The coalescer was always meant to be drained by a scheduler rather
than synchronously: every entry may carry an *arrival* timestamp and an
opaque *payload* (the service attaches the caller's future), and
:meth:`QueryCoalescer.pop_batch` is the dispatch rule of
:class:`~repro.serving.scheduler.BatchScheduler` on every clock: a free
server takes a full batch first, else the oldest group's slice; a busy
server takes a group only once its oldest query has waited out the
max-delay deadline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

from ..core import FrogWildConfig
from ..core.config import check_positive_int, check_seed_set
from ..errors import ConfigError

__all__ = ["RankingQuery", "PendingQuery", "QueryCoalescer"]


@dataclass(frozen=True)
class RankingQuery:
    """One personalized top-k request.

    ``seeds`` are the teleport vertices (the walk restarts there, per
    Lemma 16); ``None`` means births uniform over all n vertices, i.e.
    global PageRank, held without an n-sized seed tuple.  ``weights``
    optionally skews the restart law over the seeds; ``k`` is the
    answer length; ``config`` overrides the service default — a query
    carrying its own config is never batched with queries of a
    different one.
    """

    seeds: tuple[int, ...] | None
    k: int = 10
    weights: tuple[float, ...] | None = None
    config: FrogWildConfig | None = None

    def __post_init__(self) -> None:
        check_positive_int("k", self.k)
        if self.seeds is None:
            if self.weights is not None:
                raise ConfigError("weights need a seed set")
            return
        # Refused at construction, not mid-dispatch inside a batch that
        # its batchmates are riding; n is unknown here, so the service
        # checks the ids against it at submit.
        seeds, weights = check_seed_set(self.seeds, self.weights)
        object.__setattr__(self, "seeds", tuple(seeds.tolist()))
        if weights is not None:
            object.__setattr__(self, "weights", tuple(weights.tolist()))

    def effective_config(self, default: FrogWildConfig) -> FrogWildConfig:
        """The config this query actually runs under."""
        return self.config if self.config is not None else default

    def cache_key(self, default: FrogWildConfig) -> Hashable:
        """Identity of this query's *estimate* (k excluded: any k is a
        prefix of the same cached, ranked estimate)."""
        return (self.seeds, self.weights, self.effective_config(default))


@dataclass(frozen=True)
class PendingQuery:
    """One enqueued query plus its scheduling metadata.

    ``arrival`` is the clock reading at enqueue time (the deadline
    anchor; ``None`` means "due immediately"); ``payload`` is opaque to
    the coalescer — the service threads the caller's future through it.
    """

    query: RankingQuery
    arrival: float | None = None
    payload: object = None


class QueryCoalescer:
    """Groups pending queries into config-pure, size-bounded batches.

    Queries accumulate via :meth:`add` and leave via
    :meth:`drain_entries` as ``(config, entries)`` batches of
    :class:`PendingQuery`: FIFO within a config, never mixing configs,
    never exceeding ``max_batch_size`` (the batched runner's sweet spot
    — beyond it per-population work dominates and latency grows
    without amortization gains).

    A scheduler also drains selectively: :meth:`pop_batch` removes the
    one batch its dispatch rule sends and :meth:`pop_payload_entries`
    one caller's entries, both returning the full :class:`PendingQuery`
    entries so payloads survive the trip.
    """

    def __init__(self, max_batch_size: int = 16) -> None:
        if max_batch_size < 1:
            raise ConfigError("max_batch_size must be positive")
        self.max_batch_size = max_batch_size
        self._pending: dict[FrogWildConfig, list[PendingQuery]] = {}

    def add(
        self,
        query: RankingQuery,
        default: FrogWildConfig,
        arrival: float | None = None,
        payload: object = None,
    ) -> None:
        """Enqueue one query under its effective config."""
        config = query.effective_config(default)
        self._pending.setdefault(config, []).append(
            PendingQuery(query, arrival, payload)
        )

    def pending_count(self) -> int:
        return sum(len(entries) for entries in self._pending.values())

    def drain_entries(
        self,
    ) -> list[tuple[FrogWildConfig, list[PendingQuery]]]:
        """Empty the queue, keeping per-entry scheduling metadata."""
        batches: list[tuple[FrogWildConfig, list[PendingQuery]]] = []
        for config, entries in self._pending.items():
            for lo in range(0, len(entries), self.max_batch_size):
                batches.append((config, entries[lo:lo + self.max_batch_size]))
        self._pending.clear()
        return batches

    def pop_batch(
        self, now: float, max_delay_s: float | None, busy: bool
    ) -> tuple[FrogWildConfig, list[PendingQuery], str] | None:
        """Remove and return the one batch the dispatch rule sends now.

        A free server takes a full slice of any group first (kind
        ``"fill"``), else the oldest group's first ``max_batch_size``
        entries (``"idle"``).  A busy server takes the oldest group's
        slice only once its oldest entry has waited ``max_delay_s``
        (``"deadline"``).  With ``max_delay_s=None`` only full slices
        leave, and only to a free server.  A group's remainder stays
        queued with its arrivals intact; ``None`` when nothing leaves.
        """
        if not busy:
            for config, entries in self._pending.items():
                if len(entries) >= self.max_batch_size:
                    return config, self._take(config), "fill"
        if max_delay_s is None or not self._pending:
            return None
        deadlines = {
            config: self._group_deadline(entries, max_delay_s)
            for config, entries in self._pending.items()
        }
        config = min(deadlines, key=deadlines.__getitem__)
        if busy and deadlines[config] > now:
            return None
        return config, self._take(config), "deadline" if busy else "idle"

    def _take(self, config: FrogWildConfig) -> list[PendingQuery]:
        """Pop one group's first ``max_batch_size`` entries."""
        entries = self._pending[config]
        batch = entries[: self.max_batch_size]
        rest = entries[self.max_batch_size:]
        if rest:
            self._pending[config] = rest
        else:
            del self._pending[config]
        return batch

    @staticmethod
    def _group_deadline(
        entries: list[PendingQuery], max_delay_s: float
    ) -> float:
        """When this group becomes due: its earliest arrival plus the
        delay; any entry without an arrival makes it due immediately."""
        arrivals = [entry.arrival for entry in entries]
        if any(arrival is None for arrival in arrivals):
            return float("-inf")
        return min(arrivals) + max_delay_s

    def pop_payload_entries(
        self, payloads: set
    ) -> list[tuple[FrogWildConfig, list[PendingQuery]]]:
        """Remove and return only the entries carrying these payloads.

        The synchronous service path flushes exactly the entries its
        own call depends on; other callers' entries stay queued with
        their arrivals intact.
        """
        batches: list[tuple[FrogWildConfig, list[PendingQuery]]] = []
        for config in list(self._pending):
            entries = self._pending[config]
            mine = [e for e in entries if e.payload in payloads]
            if not mine:
                continue
            rest = [e for e in entries if e.payload not in payloads]
            if rest:
                self._pending[config] = rest
            else:
                del self._pending[config]
            for lo in range(0, len(mine), self.max_batch_size):
                batches.append((config, mine[lo:lo + self.max_batch_size]))
        return batches

    def next_deadline(self, max_delay_s: float) -> float | None:
        """Earliest instant any pending group becomes due, or ``None``.

        Entries enqueued without an arrival timestamp are due
        immediately and report a deadline of ``-inf``.
        """
        deadlines = [
            self._group_deadline(entries, max_delay_s)
            for entries in self._pending.values()
        ]
        return min(deadlines) if deadlines else None
