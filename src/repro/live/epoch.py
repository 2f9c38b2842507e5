"""Versioned, atomically swappable backend state.

A refresh must never tear a query: a batch that started executing on
the graph's epoch N has to finish on epoch N even if epoch N+1 is
published mid-run, and a batch dispatched after the publish must run
wholly on N+1.  :class:`EpochManager` realizes that invariant as an
:class:`~repro.serving.ExecutionBackend` *proxy*:

* every :meth:`EpochManager.run_batch` call **pins** the current epoch
  exactly once, at entry, and executes the entire batch on that epoch's
  backend;
* :meth:`EpochManager.publish` swaps the current-epoch reference under
  a lock and returns; it never blocks on, aborts, or mutates a pinned
  in-flight batch;
* a superseded epoch is **retired** once no batch is pinned to it any
  more — at the publish if none is, else when the last pinned batch
  finishes.  Retiring calls the backend's ``retire()``, if it has one:
  a process pool's epoch then detaches and unlinks its shared arenas,
  which until then stay attached so a pinned batch can still run on
  them.

Because a query occupies exactly one lane of exactly one batch (the
service's coalescer guarantees it), per-batch epoch purity implies
per-query epoch purity: no query is ever answered by a mix of two graph
versions, and none is dropped by a swap — futures pending in the
scheduler simply dispatch on whatever epoch is current when their batch
leaves the queue.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Sequence

from ..core import FrogWildConfig
from ..errors import ConfigError
from ..graph import DiGraph
from ..serving import BatchOutcome, ExecutionBackend, RankingQuery

__all__ = ["Epoch", "EpochManager", "retire_backend"]


def retire_backend(backend: ExecutionBackend) -> None:
    """Release what a superseded epoch's backend holds, if anything."""
    retire = getattr(backend, "retire", None)
    if callable(retire):
        retire()


@dataclass(frozen=True)
class Epoch:
    """One immutable served-graph version.

    ``epoch_id`` is the :class:`~repro.dynamic.DynamicDiGraph` version
    counter captured at snapshot time (the value mixed into cache keys);
    ``sequence`` is the publish ordinal (0 for the construction epoch).
    """

    epoch_id: int
    sequence: int
    graph: DiGraph
    backend: ExecutionBackend

    @property
    def num_edges(self) -> int:
        return self.graph.num_edges


class EpochManager:
    """Atomically swappable :class:`~repro.serving.ExecutionBackend`.

    Implements the backend protocol itself, so a
    :class:`~repro.serving.RankingService` can hold one manager for its
    whole lifetime while the epochs underneath it come and go.  Also
    exposes :meth:`generation` — the current epoch id — which the
    service picks up automatically as its cache-generation provider, so
    cached rankings invalidate exactly when a new epoch is published.
    """

    def __init__(self, epoch: Epoch) -> None:
        self._lock = threading.Lock()
        self._current = epoch
        self.epochs_published = 1
        #: Batches and queries executed per epoch sequence number.
        self.batches_per_epoch: dict[int, int] = {}
        self.queries_per_epoch: dict[int, int] = {}
        #: Batches answered from a partial shard merge (fail-soft
        #: process pools under ``on_shard_failure="partial"``), per
        #: epoch sequence number.
        self.partial_batches_per_epoch: dict[int, int] = {}
        #: Batches executing right now, per pinned epoch's sequence
        #: number (no entry: none).
        self._pins: dict[int, int] = {}
        #: Publishes that landed while at least one batch was pinned to
        #: an earlier epoch — the exact situation the swap-only publish
        #: path exists for (a refresh finishing while queries execute).
        #: Those batches finish on their pinned epoch.
        self.publishes_mid_flight = 0

    # ------------------------------------------------------------------
    @property
    def current(self) -> Epoch:
        with self._lock:
            return self._current

    @property
    def num_shards(self) -> int:
        return self.current.backend.num_shards

    def generation(self) -> int:
        """Cache-generation provider: the current epoch id."""
        return self.current.epoch_id

    # ------------------------------------------------------------------
    def publish(self, epoch: Epoch) -> Epoch:
        """Swap in a new epoch atomically; returns the one it replaced.

        In-flight batches pinned to the previous epoch are unaffected —
        they hold their own reference and finish on it.  The previous
        epoch is retired here if no batch is pinned to it.
        """
        with self._lock:
            previous = self._current
            if epoch.graph.num_vertices != previous.graph.num_vertices:
                raise ConfigError(
                    "epochs must share one vertex universe: got "
                    f"{epoch.graph.num_vertices} vertices, serving "
                    f"{previous.graph.num_vertices}"
                )
            if epoch.epoch_id < previous.epoch_id:
                raise ConfigError(
                    f"epoch id regressed: {epoch.epoch_id} < "
                    f"{previous.epoch_id} (graph versions are monotone)"
                )
            if epoch.sequence != previous.sequence + 1:
                raise ConfigError(
                    f"epoch sequence must advance by one: got "
                    f"{epoch.sequence} after {previous.sequence}"
                )
            self._current = epoch
            self.epochs_published += 1
            if self._pins:
                self.publishes_mid_flight += 1
            drained = previous.sequence not in self._pins
        if drained:
            retire_backend(previous.backend)
        return previous

    # ------------------------------------------------------------------
    def run_batch(
        self, config: FrogWildConfig, queries: Sequence[RankingQuery]
    ) -> BatchOutcome:
        """Execute one batch wholly on the epoch current at entry.

        The epoch is pinned exactly once; a concurrent publish only
        affects batches dispatched after it.  The last batch to finish
        on a superseded epoch retires it.  Every answered lane is
        stamped with the epoch it ran on (``report.extra["epoch"]``)
        so provenance survives into cached answers.
        """
        with self._lock:
            epoch = self._current
            self._pins[epoch.sequence] = self._pins.get(epoch.sequence, 0) + 1
        try:
            outcome = epoch.backend.run_batch(config, queries)
        finally:
            with self._lock:
                left = self._pins.pop(epoch.sequence) - 1
                if left:
                    self._pins[epoch.sequence] = left
                drained = not left and epoch is not self._current
            if drained:
                retire_backend(epoch.backend)
        degraded = tuple(getattr(outcome, "degraded_shards", ()) or ())
        for lane in outcome.lanes:
            lane.report.extra["epoch"] = float(epoch.epoch_id)
            lane.report.extra["epoch_sequence"] = float(epoch.sequence)
            if degraded:
                # Fail-soft partial merge: record how many shards this
                # lane's answer is missing, next to the epoch it ran on
                # — provenance for degraded answers survives caching
                # exactly like epoch provenance does.
                lane.report.extra["degraded_shards"] = float(
                    len(degraded)
                )
        with self._lock:
            self.batches_per_epoch[epoch.sequence] = (
                self.batches_per_epoch.get(epoch.sequence, 0) + 1
            )
            self.queries_per_epoch[epoch.sequence] = (
                self.queries_per_epoch.get(epoch.sequence, 0) + len(queries)
            )
            if degraded:
                self.partial_batches_per_epoch[epoch.sequence] = (
                    self.partial_batches_per_epoch.get(epoch.sequence, 0)
                    + 1
                )
        return outcome

    def close(self) -> None:
        """Release the current epoch's backend, if it is releasable.

        The process-pool execution path reuses one
        :class:`~repro.serving.ProcessPoolBackend` across epochs
        (refreshes remap its workers in place), so closing the current
        epoch's backend closes every worker this manager ever served
        with.  Backends without a ``close`` are unaffected.
        """
        closer = getattr(self.current.backend, "close", None)
        if callable(closer):
            closer()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        epoch = self.current
        return (
            f"EpochManager(epoch={epoch.epoch_id}, "
            f"sequence={epoch.sequence}, published={self.epochs_published})"
        )
