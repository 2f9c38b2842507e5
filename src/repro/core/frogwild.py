"""The FrogWild! algorithm (Section 2.2 of the paper) and its tables.

N frogs are born on uniformly random vertices.  Each superstep every
frog first dies with probability ``p_T`` (realizing teleportation per
Lemma 16 — death plus the uniform birth equals a restart), then hops
along a uniformly random *enabled* out-edge.  An out-edge is enabled
when the mirror hosting it was synchronized this barrier — the paper's
``ps`` patch (see :func:`~repro.engine.sync.sync_coins`) —
with the configured erasure model repairing all-erased vertices.  After
``t`` supersteps all surviving frogs stop and are counted; the counter
vector normalized by N is the PageRank estimate (Definition 5).

There is one superstep, :class:`~repro.core.batched.BatchedFrogWildRunner`'s,
and a single run is its B = 1 lane: :func:`~repro.core.run_frogwild`
lives beside it in :mod:`repro.core.batched` with the births
(``_births``), and the multinomial edge pick (``_pick_enabled_edges``)
is a pass of :mod:`repro.core.kernels.fused`.  This module holds the
per-ingress flat tables that superstep reads (:class:`_KernelTables`,
:func:`prime_ingress_caches`), the malloc pin every run sets
(:func:`_keep_scratch_on_the_heap`) and the result type.

Implementation notes mirrored from the paper (Section 3.3):

* frogs are anonymous, so all frogs crossing a machine boundary toward
  the same destination vertex travel as one ``(vertex, count)`` record;
* there are no teleport messages at all — deaths are local;
* in ``multinomial`` scatter mode the K surviving frogs of a vertex are
  split uniformly over enabled edges (frog-conserving, the paper's
  actual implementation); ``binomial`` mode follows the pseudocode
  literally with an independent Bin(K, 1/(d_out ps)) per enabled edge.

Cost model.  A superstep costs O(frontier rows x machines + frogs): the
per-row work is one cell per (row, machine) — coin, group width, repair
— and the per-frog work is one hop draw.  The fused passes are
literally that shape: they gather the rows' (rows x machines) block of
the dense group widths and reduce it (:mod:`repro.core.kernels.fused`;
the block is 0.81 full on the R-MAT scale-15 benchmark graph, 0.35-0.43
on ``twitter_like(50k)``, at 16 machines).  The multinomial scatter
resolves each frog's draw against the running sum of the enabled group
widths (``kernels.fused._pick_enabled_edges``), so the out-edges of the frontier
are not touched at all while they outnumber the frogs — on an R-MAT
scale-15 graph a served batch moves 21-29k frogs per superstep over
9-11k rows whose enabled out-edges number 1.4-1.7M.  Only when the
enabled edges E are within a small multiple of the frogs F
(``E <= 8 F``, e.g. 400k frogs on a 50k-vertex graph, E/F = 1.1-1.6)
is the enabled edge list materialized, nonzero cells only, because one
gather per frog then beats a binary search per frog.  The ``binomial``
mode flips a coin per enabled edge by definition and always expands
them.  Disabled groups are never expanded in either mode.
"""

from __future__ import annotations

import ctypes
import functools
from dataclasses import dataclass

import numpy as np

from ..engine import ClusterState, CostLedger, RunReport, mirror_matrix
from .estimator import PageRankEstimate

__all__ = ["FrogWildResult"]


@dataclass(frozen=True)
class FrogWildResult:
    """Estimate plus execution report of one FrogWild run.

    ``ledger`` carries the raw per-population cost attribution when the
    run was a lane of a batched execution (None for a single run, whose
    report is the whole execution); the sharded serving backend merges
    shard lanes through it.
    """

    estimate: PageRankEstimate
    report: RunReport
    state: ClusterState
    ledger: CostLedger | None = None


@functools.cache
def _keep_scratch_on_the_heap() -> None:
    """Pin glibc's mmap/trim thresholds above a superstep's scratch.

    A superstep allocates dozens of 1-7 MB temporaries.  glibc maps a
    request above its mmap threshold afresh, and that threshold floats
    with the largest block freed so far: whether a run re-faulted ~50 MB
    per op (13,000 minor faults, +12% wall on ``global-topk``) hung on
    what an unrelated table build had left behind.  Set once (32 MB is
    glibc's ceiling; trim at its own 2x rule) they stop floating.
    glibc-specific; harmless where ``mallopt`` is missing or ignores it."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


class _KernelTables:
    """Flat read-only views of the partitioned graph used per superstep.

    Built once per *ingress* (see :func:`_kernel_tables`) and shared by
    every run on it; every array indexes the
    (vertex, machine)-sorted out-edge grouping of
    :class:`~repro.cluster.ReplicationTable`.  The table arrays are
    aliased, not copied, so they keep the table's dtypes: the one rule
    of :func:`repro.cluster.replication._narrow` (int32 whenever the
    values fit; int64 in a table attached from older arrays) and int32
    machine ids.  Only ``group_sizes`` is computed here.  The fused
    passes widen what they scale or index per frog
    (:mod:`repro.core.kernels.fused`).
    """

    __slots__ = (
        "masters",
        "vertex_ptr",
        "group_machine",
        "group_start",
        "group_sizes",
        "edge_target",
        "edge_host",
        "out_degree",
    )

    def __init__(self, replication, out_degree: np.ndarray) -> None:
        og = replication.out_groups
        self.masters = replication.masters
        self.vertex_ptr = og.vertex_ptr
        self.group_machine = og.group_machine
        self.group_start = og.group_start
        self.group_sizes = og.group_sizes()
        self.edge_target = og.sorted_other
        self.edge_host = og.edge_machine_sorted
        self.out_degree = np.asarray(out_degree, dtype=np.int64)


def _kernel_tables(state: ClusterState) -> _KernelTables:
    """The per-ingress cached :class:`_KernelTables` of ``state``.

    The tables derive purely from the replication tables, so states
    sharing one ingress (the serving layer builds a fresh accounting
    state per dispatched batch) share one build instead of paying the
    flat-view construction on every batch.
    """
    return state.ingress_cache(
        "kernel_tables",
        lambda: _KernelTables(state.replication, state.graph.out_degree()),
    )


def prime_ingress_caches(replication, graph) -> None:
    """Pre-seed ``replication``'s per-ingress derived-structure cache.

    Fills the entries :meth:`~repro.engine.ClusterState.ingress_cache`
    would otherwise build lazily on the first batch after an ingress
    appears: the flat kernel tables, the dense group widths of the fused
    passes and the mirror bitmap.  The live refresh pipeline
    (:class:`~repro.live.IncrementalReplication`) calls this off the
    query path after building a table, so a freshly published epoch
    serves its first batch with warm tables.  Idempotent: existing
    cache entries are kept.
    """
    from .kernels.layout import DenseGroupTables

    cache = replication._ingress_cache
    if "kernel_tables" not in cache:
        cache["kernel_tables"] = _KernelTables(
            replication, graph.out_degree()
        )
    if "dense_groups" not in cache:
        cache["dense_groups"] = DenseGroupTables(
            cache["kernel_tables"], replication.num_machines
        )
    if "mirror_matrix" not in cache:
        cache["mirror_matrix"] = mirror_matrix(replication)
