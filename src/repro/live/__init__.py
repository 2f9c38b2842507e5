"""Live-graph refresh: serve a churning graph without tearing queries.

The serving stack (:mod:`repro.serving`) ranks a frozen snapshot; the
dynamic stack (:mod:`repro.dynamic`) churns a mutable edge set.  This
package is the bridge — the paper's OSN pitch taken to its serving
conclusion: the graph changes constantly, so the *served* graph must
follow, incrementally, while user traffic keeps flowing.  Four pieces:

* :class:`IncrementalIngress` — places the edges of a
  :class:`~repro.dynamic.DynamicDiGraph` across machines with the
  deterministic stable hash
  (:func:`~repro.cluster.stable_hash_machines`): surviving edges keep
  their machine, so a deployment ships only what changed, with a
  tracked reuse ratio and a full re-salted repartition fallback when
  load imbalance drifts past a threshold.
* :class:`IncrementalReplication` — each machine's *derived*
  structures: the master/mirror and grouped adjacency tables
  (:class:`~repro.cluster.ReplicationTable`) are built from every new
  snapshot's placement, with the per-ingress kernel-table cache
  pre-seeded so a fresh epoch serves its first batch warm.
* :class:`EpochManager` — versioned, atomically swappable backend
  state behind the :class:`~repro.serving.ExecutionBackend` seam.
* :class:`LiveRankingService` — a :class:`~repro.serving.RankingService`
  wired to all of it: :meth:`~LiveRankingService.refresh` applies a
  delta, reconciles placements, snapshots, rebuilds tables, and
  publishes the next epoch, whose id doubles as the cache generation so
  stale top-k entries invalidate exactly on refresh.  It is the only
  way an epoch is built; a caller that wants the build off its ingest
  thread calls it from a thread of its own.

**The epoch-swap invariant.**  Every batch pins its epoch exactly once,
at dispatch (:meth:`EpochManager.run_batch` reads the current epoch a
single time and executes the whole batch on that epoch's backend).
:meth:`EpochManager.publish` swaps the current-epoch reference
atomically and never touches a pinned batch — in-flight lanes finish on
epoch N while batches dispatched after the publish run wholly on N+1.
A query occupies exactly one lane of exactly one batch, so no query is
ever dropped by a swap or answered by a mix of two graph versions.
"""

from .epoch import Epoch, EpochManager
from .ingress import IncrementalIngress, IncrementalReplication, IngressUpdate
from .service import LiveRankingService, RefreshUpdate

__all__ = [
    "Epoch",
    "EpochManager",
    "IncrementalIngress",
    "IncrementalReplication",
    "IngressUpdate",
    "LiveRankingService",
    "RefreshUpdate",
]
