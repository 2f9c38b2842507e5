"""The FrogWild! algorithm (Section 2.2 of the paper): its tables and laws.

N frogs are born on uniformly random vertices.  Each superstep every
frog first dies with probability ``p_T`` (realizing teleportation per
Lemma 16 — death plus the uniform birth equals a restart), then hops
along a uniformly random *enabled* out-edge.  An out-edge is enabled
when the mirror hosting it was synchronized this barrier — the paper's
``ps`` patch (see :class:`~repro.engine.sync.MirrorSynchronizer`) —
with the configured erasure model repairing all-erased vertices.  After
``t`` supersteps all surviving frogs stop and are counted; the counter
vector normalized by N is the PageRank estimate (Definition 5).

There is one superstep, :class:`~repro.core.batched.BatchedFrogWildRunner`'s,
and a single run is its B = 1 lane: :func:`~repro.core.run_frogwild`
lives beside it in :mod:`repro.core.batched`.  This module holds what
that superstep reads: the per-ingress flat tables
(:class:`_KernelTables`, :func:`prime_ingress_caches`), the birth law
(:func:`_births`), the multinomial edge pick
(:func:`_pick_enabled_edges`) and the result type.

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
widths (:func:`_pick_enabled_edges`), so the out-edges of the frontier
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

from ..engine import ClusterState, CostLedger, MirrorSynchronizer, RunReport
from ..errors import EngineError
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


def _ranges_to_indices(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenate ``arange(s, s + l)`` for every (s, l) pair, vectorized."""
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(lengths)[:-1]])
    return (
        np.repeat(starts - offsets, lengths) + np.arange(total, dtype=np.int64)
    )


class _KernelTables:
    """Flat read-only views of the partitioned graph used per superstep.

    Built once per *ingress* (see :func:`_kernel_tables`) and shared by
    every run on it; every array indexes the
    (vertex, machine)-sorted out-edge grouping of
    :class:`~repro.cluster.ReplicationTable`.
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
        self.group_machine = og.group_machine.astype(np.int64)
        self.group_start = og.group_start
        self.group_sizes = og.group_sizes()
        self.edge_target = og.sorted_other
        self.edge_host = og.edge_machine_sorted.astype(np.int64)
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
        cache["mirror_matrix"] = MirrorSynchronizer.mirror_matrix_for(
            replication
        )


def _check_start_distribution(
    law: np.ndarray | None, n: int
) -> np.ndarray | None:
    """``law`` as a float64 birth law over ``n`` vertices (None: uniform)."""
    if law is None:
        return None
    law = np.asarray(law, np.float64)
    if law.shape != (n,):
        raise EngineError("start_distribution must have one entry per vertex")
    if law.min() < 0 or not np.isclose(law.sum(), 1.0):
        raise EngineError(
            "start_distribution must be a probability distribution"
        )
    return law


def _births(
    rng: np.random.Generator,
    n: int,
    num_frogs: int,
    law: np.ndarray | None,
) -> np.ndarray:
    """Birth vertices of ``num_frogs`` frogs under ``law`` (None: uniform).

    Inverse-cdf sampling over the law's support only: the running sum
    of the nonzero entries holds the same floats as the dense running
    sum ``rng.choice(n, size, p=law)`` builds (adding 0.0 is exact), and
    the uniforms are the same ``rng.random`` call, so births and rng
    state equal ``rng.choice``'s.  The only O(n) work left is the one
    ``flatnonzero`` scan; ``rng.choice`` re-validates, sums and divides
    the dense vector on every call (0.5 ms at n = 32768 for 3 seeds).
    """
    if law is None:
        return rng.integers(0, n, size=num_frogs)
    support = np.flatnonzero(law)
    cdf = np.cumsum(law[support])
    cdf /= cdf[-1]
    return support[cdf.searchsorted(rng.random(num_frogs), side="right")]


# Enabled out-edges per hopping frog above which the multinomial pick
# searches the group table instead of listing the edges (the branches
# cross between 5 and 9 on the reference host: listing wins by 2x at
# E/F = 1.3, the search by 3-4x at E/F = 40-75).
_EDGES_PER_FROG_SEARCH = 8


def _pick_enabled_edges(
    width: np.ndarray,
    group_start: np.ndarray,
    enabled_counts: np.ndarray,
    row_of_frog: np.ndarray,
    draw: np.ndarray,
) -> np.ndarray:
    """The out-edge each hopping frog takes: uniform over its row's
    enabled edges, ``draw`` in [0, 1) choosing by position.

    ``width`` / ``group_start`` describe machine groups of the scatter
    rows flattened in (row, machine) order — enabled out-edges behind
    each and its first edge id.  A disabled group reads width 0, as
    does a machine without a group in the fused passes' (rows x
    machines) block.
    ``enabled_counts`` are the enabled out-edges per row and
    ``row_of_frog`` (non-decreasing) the row each draw belongs to.
    Frog f takes the ``floor(draw[f] * enabled_counts[row])``-th
    enabled edge of its row, i.e. position ``pick`` of the concatenated
    enabled edge list of all rows.

    That list has one entry per enabled out-edge of the frontier, which
    on a skewed graph is far more than the frogs that choose from it.
    When it is, ``pick`` is resolved against the running sum of the
    widths instead — O(frogs log groups), no per-edge array — and when
    the frogs are as many as the edges, listing the edges once and
    gathering is cheaper; the listing skips the zero-width cells, which
    on a low-fill block are most of them.  Both branches return the
    same array; the rule reads only the two sizes.
    """
    row_end = np.cumsum(enabled_counts)
    pick = (row_end - enabled_counts)[row_of_frog] + (
        draw * enabled_counts[row_of_frog]
    ).astype(np.int64)
    if row_end[-1] <= _EDGES_PER_FROG_SEARCH * draw.size:
        cells = np.flatnonzero(width)
        return _ranges_to_indices(group_start[cells], width[cells])[pick]
    cum = np.cumsum(width)
    g = np.searchsorted(cum, pick, side="right")
    return group_start[g] + (pick - (cum[g] - width[g]))


