"""The FrogWild! algorithm (Section 2.2 of the paper).

N frogs are born on uniformly random vertices.  Each superstep every
frog first dies with probability ``p_T`` (realizing teleportation per
Lemma 16 — death plus the uniform birth equals a restart), then hops
along a uniformly random *enabled* out-edge.  An out-edge is enabled
when the mirror hosting it was synchronized this barrier — the paper's
``ps`` patch (see :class:`~repro.engine.sync.MirrorSynchronizer`) —
with the configured erasure model repairing all-erased vertices.  After
``t`` supersteps all surviving frogs stop and are counted; the counter
vector normalized by N is the PageRank estimate (Definition 5).

The runner is the simulator's equivalent of the paper's GraphLab vertex
program plus engine patch; it shares every accounting primitive with the
baseline engine so the network/CPU/time comparisons are apples-to-apples.

Implementation notes mirrored from the paper (Section 3.3):

* frogs are anonymous, so all frogs crossing a machine boundary toward
  the same destination vertex travel as one ``(vertex, count)`` record;
* there are no teleport messages at all — deaths are local;
* in ``multinomial`` scatter mode the K surviving frogs of a vertex are
  split uniformly over enabled edges (frog-conserving, the paper's
  actual implementation); ``binomial`` mode follows the pseudocode
  literally with an independent Bin(K, 1/(d_out ps)) per enabled edge.

The superstep kernel is factored into module-level helpers; the tables
(:class:`_KernelTables`), the birth law (``_births``) and the edge pick
(``_pick_enabled_edges``) are shared with :mod:`repro.core.batched`,
which advances B independent frog populations through a single
traversal per superstep.

Cost model.  A superstep costs O(frontier rows x machines + frogs): the
per-row work is one cell per (row, machine) — coin, group width, repair
— and the per-frog work is one hop draw.  The batched runner's fused
passes are literally that shape: they gather the rows' (rows x
machines) block of the dense group widths and reduce it
(:mod:`repro.core.kernels.fused`; the block is 0.81 full on the R-MAT
scale-15 benchmark graph, 0.35-0.43 on ``twitter_like(50k)``, at 16
machines).  This runner still gathers the ragged group list of its
frontier (:func:`_gather_groups`): the dense block was tried here and
lost on ``global-topk`` (127.6 / 136.0 / 133.4 ms against 115.3 /
120.7 / 123.2 without it), so the ragged gather stays until this
runner becomes the B = 1 lane of the batched one.  Either way the
multinomial scatter resolves each frog's draw against the running sum
of the enabled group widths (:func:`_pick_enabled_edges`, one function
taking flat widths and group starts from both runners), so the
out-edges of the frontier are not touched at all while they outnumber
the frogs — on an R-MAT scale-15 graph a served batch moves 21-29k
frogs per superstep over 9-11k rows whose enabled out-edges number
1.4-1.7M.  Only when the enabled edges E are within a small multiple of
the frogs F (``E <= 8 F``, e.g. 400k frogs on a 50k-vertex graph, E/F =
1.1-1.6) is the enabled edge list materialized, because one gather per
frog then beats a binary search per frog.  The ``binomial`` mode flips
a coin per enabled edge by definition and always expands them.
Disabled groups are never expanded in either mode.
"""

from __future__ import annotations

import ctypes
import functools
from dataclasses import dataclass

import numpy as np

from ..cluster import CostModel, EdgePartition, MessageSizeModel
from ..engine import (
    ClusterState,
    CostLedger,
    MirrorSynchronizer,
    RunReport,
    build_cluster,
)
from ..errors import EngineError
from ..graph import DiGraph, sorted_unique
from .config import FrogWildConfig
from .erasures import make_erasure_model
from .estimator import PageRankEstimate

__all__ = ["FrogWildResult", "FrogWildRunner", "run_frogwild"]


@dataclass(frozen=True)
class FrogWildResult:
    """Estimate plus execution report of one FrogWild run.

    ``ledger`` carries the raw per-population cost attribution when the
    run was a lane of a batched execution (None for single runs); the
    sharded serving backend merges shard lanes through it.
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
    the single-query and batched runners; every array indexes the
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


class _GroupView:
    """Machine-grouped out-edges of one scatter set, in (vertex, machine)
    order.

    ``grp_idx`` are rows into the global group tables; ``grp_vertex_pos``
    maps each row to the position of its vertex within the scatter set;
    ``g_count`` is the number of groups per scattering vertex.
    """

    __slots__ = ("grp_idx", "grp_vertex_pos", "grp_machine", "grp_sizes", "g_count")

    def __init__(
        self,
        grp_idx: np.ndarray,
        grp_vertex_pos: np.ndarray,
        grp_machine: np.ndarray,
        grp_sizes: np.ndarray,
        g_count: np.ndarray,
    ) -> None:
        self.grp_idx = grp_idx
        self.grp_vertex_pos = grp_vertex_pos
        self.grp_machine = grp_machine
        self.grp_sizes = grp_sizes
        self.g_count = g_count


def _gather_groups(tables: _KernelTables, sv: np.ndarray) -> _GroupView:
    """Gather the machine-groups of the scattering vertices ``sv``."""
    g_lo = tables.vertex_ptr[sv]
    g_count = tables.vertex_ptr[sv + 1] - g_lo
    grp_idx = _ranges_to_indices(g_lo, g_count)
    grp_vertex_pos = np.repeat(np.arange(sv.size, dtype=np.int64), g_count)
    return _GroupView(
        grp_idx,
        grp_vertex_pos,
        tables.group_machine[grp_idx],
        tables.group_sizes[grp_idx],
        g_count,
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


def _choose_repair_positions(
    rng: np.random.Generator, g_count: np.ndarray, bad: np.ndarray
) -> np.ndarray:
    """Flat group-row positions of one uniform group per ``bad`` vertex.

    Implements the choice half of the At-Least-One-Out-Edge repair
    (Example 10); the caller enables the rows and accounts the forced
    synchronizations.
    """
    pick = (rng.random(bad.size) * g_count[bad]).astype(np.int64)
    block_offsets = np.concatenate([[0], np.cumsum(g_count)[:-1]])
    return block_offsets[bad] + pick


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
    each and its first edge id.  A disabled group is left out (the
    standalone runner) or reads width 0, as does a machine without a
    group in the fused passes' (rows x machines) block.
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
    gathering is cheaper.  Both branches return the same array; the
    rule reads only the two sizes.
    """
    row_end = np.cumsum(enabled_counts)
    pick = (row_end - enabled_counts)[row_of_frog] + (
        draw * enabled_counts[row_of_frog]
    ).astype(np.int64)
    if row_end[-1] <= _EDGES_PER_FROG_SEARCH * draw.size:
        return _ranges_to_indices(group_start, width)[pick]
    cum = np.cumsum(width)
    g = np.searchsorted(cum, pick, side="right")
    return group_start[g] + (pick - (cum[g] - width[g]))


def _scatter_multinomial(
    rng: np.random.Generator,
    tables: _KernelTables,
    view: _GroupView,
    enabled_grp: np.ndarray,
    sv: np.ndarray,
    k_sv: np.ndarray,
    next_frogs: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Split each vertex's K frogs uniformly over its enabled edges."""
    enabled_counts = np.bincount(
        view.grp_vertex_pos,
        weights=enabled_grp * view.grp_sizes,
        minlength=sv.size,
    ).astype(np.int64)
    sendable = enabled_counts > 0
    k_send = np.where(sendable, k_sv, 0)
    total = int(k_send.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)

    frog_vertex = np.repeat(np.arange(sv.size, dtype=np.int64), k_send)
    chosen = _pick_enabled_edges(
        view.grp_sizes[enabled_grp],
        tables.group_start[view.grp_idx[enabled_grp]],
        enabled_counts, frog_vertex, rng.random(total),
    )
    dest = tables.edge_target[chosen]
    host = tables.edge_host[chosen]
    # bincount beats np.add.at on the hot accumulation: one counting
    # pass instead of per-element buffered scatter (bit-identical).
    next_frogs += np.bincount(dest, minlength=next_frogs.size)
    return dest, host


def _scatter_binomial(
    rng: np.random.Generator,
    ps: float,
    tables: _KernelTables,
    view: _GroupView,
    enabled_grp: np.ndarray,
    sv: np.ndarray,
    k_sv: np.ndarray,
    next_frogs: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Paper pseudocode: Bin(K, 1/(d_out ps)) per enabled edge."""
    on = np.flatnonzero(enabled_grp)
    if on.size == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    sizes_on = view.grp_sizes[on]
    candidate = _ranges_to_indices(tables.group_start[view.grp_idx[on]], sizes_on)
    vertex_pos = np.repeat(view.grp_vertex_pos[on], sizes_on)
    k_per_edge = k_sv[vertex_pos]
    p_eff = max(ps, 1e-12)
    prob = np.minimum(
        1.0, 1.0 / (tables.out_degree[sv[vertex_pos]] * p_eff)
    )
    sent = rng.binomial(k_per_edge, prob)
    nonzero = sent > 0
    chosen = candidate[nonzero]
    dest = tables.edge_target[chosen]
    host = tables.edge_host[chosen]
    # Weighted bincount replaces np.add.at; float64 weights are exact
    # for any frog count below 2**53, so results stay bit-identical.
    next_frogs += np.bincount(
        dest, weights=sent[nonzero], minlength=next_frogs.size
    ).astype(np.int64)
    # Replicate per-frog host attribution for CPU/message accounting.
    dest = np.repeat(dest, sent[nonzero])
    host = np.repeat(host, sent[nonzero])
    return dest, host


class FrogWildRunner:
    """Executes FrogWild on a prepared simulated cluster."""

    def __init__(
        self,
        state: ClusterState,
        config: FrogWildConfig,
        start_distribution: np.ndarray | None = None,
    ) -> None:
        """``start_distribution`` overrides the uniform frog births.

        Because deaths restart the (implicit) walk at the birth law
        (Lemma 16), a non-uniform birth distribution computes
        *Personalized* PageRank with that teleport vector — see
        :mod:`repro.core.personalized`.
        """
        _keep_scratch_on_the_heap()
        self.start_distribution = _check_start_distribution(
            start_distribution, state.num_vertices
        )
        self.state = state
        self.config = config
        # Distinct seed stream from the cluster components (partition,
        # master selection) that may have received the same seed value.
        self.rng = np.random.default_rng(
            config.seed if config.seed is None else [104, config.seed]
        )
        # The mirror bitmap and kernel tables are per-ingress caches:
        # copy-on-disable keeps fault injection (repro.faults) from
        # leaking crashed machines into later runs on the same ingress.
        self.synchronizer = MirrorSynchronizer(
            state,
            config.ps,
            self.rng,
            mirror_matrix=MirrorSynchronizer.shared_mirror_matrix(state),
            copy_on_disable=True,
        )
        self.erasure = make_erasure_model(config.erasure_model)
        self.tables = _kernel_tables(state)
        self._masters = self.tables.masters

    # ------------------------------------------------------------------
    def run(self) -> FrogWildResult:
        """Run ``iterations`` supersteps and return the estimate."""
        state = self.state
        cfg = self.config
        n = state.num_vertices
        if n == 0:
            raise EngineError("cannot run FrogWild on an empty graph")

        # init(): frogs born from the start law (uniform by default).
        birth = _births(self.rng, n, cfg.num_frogs, self.start_distribution)
        frogs = np.bincount(birth, minlength=n).astype(np.int64)
        counts = np.zeros(n, dtype=np.int64)

        for step in range(cfg.iterations):
            frogs = self._begin_superstep(step, frogs, counts)
            active_idx = np.flatnonzero(frogs)
            if active_idx.size == 0:
                break
            frogs = self._superstep(active_idx, frogs[active_idx], counts)
            state.end_superstep(int(active_idx.size))

        # Cut-off: survivors are counted where they stand (Process 15).
        counts += frogs
        estimate = PageRankEstimate(counts, cfg.num_frogs)
        return FrogWildResult(estimate, self._report(), state)

    # ------------------------------------------------------------------
    def _superstep(
        self, active_idx: np.ndarray, k_active: np.ndarray, counts: np.ndarray
    ) -> np.ndarray:
        """One death + sync + scatter round; returns next frog vector."""
        state = self.state
        cfg = self.config
        n = state.num_vertices
        rng = self.rng
        tables = self.tables

        # -------------------- apply(): teleport deaths ------------------
        dead = rng.binomial(k_active, cfg.p_teleport)
        # active_idx entries are unique, so a fancy add is exact (and
        # cheaper than np.add.at's buffered scatter).
        counts[active_idx] += dead
        survivors = k_active - dead
        state.charge_many(
            np.bincount(
                self._masters[active_idx],
                weights=k_active,
                minlength=state.num_machines,
            ).astype(np.int64),
            phase="apply",
        )

        moving = survivors > 0
        sv = active_idx[moving]
        k_sv = survivors[moving].astype(np.int64)
        next_frogs = np.zeros(n, dtype=np.int64)
        if sv.size == 0:
            return next_frogs

        # -------------------- <sync>: the ps patch ----------------------
        fresh = self.synchronizer.synchronize(sv)

        # Enabled out-edge groups of the scattering vertices.
        view = _gather_groups(tables, sv)
        enabled_grp = fresh[view.grp_vertex_pos, view.grp_machine]

        enabled_per_vertex = np.bincount(
            view.grp_vertex_pos, weights=enabled_grp, minlength=sv.size
        ).astype(np.int64)
        stranded = enabled_per_vertex == 0
        if stranded.any():
            if self.erasure.repairs_empty:
                # At-Least-One-Out-Edge repair (Example 10): enable one
                # uniform group each and force its synchronization.  A
                # dangling vertex (no out-groups at all) has nothing to
                # repair: its frogs idle in place awaiting teleportation.
                bad = np.flatnonzero(stranded)
                dangling = view.g_count[bad] == 0
                if dangling.any():
                    idle = bad[dangling]
                    next_frogs[sv[idle]] += k_sv[idle]
                    k_sv = k_sv.copy()
                    k_sv[idle] = 0
                    bad = bad[~dangling]
                if bad.size:
                    flat_pos = _choose_repair_positions(
                        rng, view.g_count, bad
                    )
                    enabled_grp = enabled_grp.copy()
                    enabled_grp[flat_pos] = True
                    self.synchronizer.force_sync(
                        sv[bad], view.grp_machine[flat_pos]
                    )
            else:
                # Independent erasures: frogs idle in place this step.
                # sv entries are unique, so the fancy add is exact.
                next_frogs[sv[stranded]] += k_sv[stranded]
                k_sv = k_sv.copy()
                k_sv[stranded] = 0

        # -------------------- scatter(): frog hops ----------------------
        if cfg.scatter_mode == "multinomial":
            dest, host = _scatter_multinomial(
                rng, tables, view, enabled_grp, sv, k_sv, next_frogs
            )
        else:
            dest, host = _scatter_binomial(
                rng, cfg.ps, tables, view, enabled_grp, sv, k_sv, next_frogs
            )

        # CPU: one op per hopped frog on the hosting machine, one per
        # enabled group for the mirror's scatter dispatch.
        if dest.size:
            ops = np.bincount(host, minlength=state.num_machines)
        else:
            ops = np.zeros(state.num_machines, dtype=np.int64)
        ops += np.bincount(
            view.grp_machine[enabled_grp], minlength=state.num_machines
        )
        state.charge_many(ops.astype(np.int64), phase="scatter")

        # Network: combined (vertex, count) records, host -> dest master.
        self._account_frog_messages(dest, host)
        self._post_scatter(dest, host, next_frogs)
        return next_frogs

    # ------------------------------------------------------------------
    # Subclass hooks (fault injection lives in repro.faults)
    # ------------------------------------------------------------------
    def _begin_superstep(
        self, step: int, frogs: np.ndarray, counts: np.ndarray
    ) -> np.ndarray:
        """Pre-superstep hook; returns the (possibly modified) frog
        vector.  The base runner is fault-free: identity."""
        return frogs

    def _post_scatter(
        self, dest: np.ndarray, host: np.ndarray, next_frogs: np.ndarray
    ) -> None:
        """Post-scatter hook, called with the per-frog destination and
        hosting-machine arrays after ``next_frogs`` is updated.  The
        base runner delivers everything: no-op."""

    # ------------------------------------------------------------------
    def _account_frog_messages(self, dest: np.ndarray, host: np.ndarray) -> None:
        """Charge combined frog records: hosting machine -> dest master."""
        if dest.size == 0:
            return
        state = self.state
        n = state.num_vertices
        pair_keys = sorted_unique(host * n + dest)
        host_u = pair_keys // n
        dest_master = self._masters[pair_keys % n].astype(np.int64)
        remote = host_u != dest_master
        if not remote.any():
            return
        records = np.bincount(
            host_u[remote] * state.num_machines + dest_master[remote],
            minlength=state.num_machines**2,
        ).reshape(state.num_machines, state.num_machines)
        state.send_pair_matrix(records, kind="scatter")

    # ------------------------------------------------------------------
    def _report(self) -> RunReport:
        state = self.state
        stats = state.stats
        cfg = self.config
        return RunReport(
            algorithm=f"frogwild(ps={cfg.ps:g})",
            num_machines=state.num_machines,
            supersteps=stats.num_supersteps,
            total_time_s=stats.total_seconds(),
            time_per_iteration_s=stats.seconds_per_step(),
            network_bytes=state.fabric.total_bytes(),
            cpu_seconds=state.cost_model.cpu_seconds(stats.total_cpu_ops()),
            extra={
                "num_frogs": float(cfg.num_frogs),
                "iterations": float(cfg.iterations),
                "ps": float(cfg.ps),
                "replication_factor": state.replication.replication_factor(),
            },
        )


def run_frogwild(
    graph: DiGraph,
    config: FrogWildConfig | None = None,
    num_machines: int = 16,
    partitioner: str = "random",
    cost_model: CostModel | None = None,
    size_model: MessageSizeModel | None = None,
    partition: EdgePartition | None = None,
    state: ClusterState | None = None,
) -> FrogWildResult:
    """Run FrogWild end to end on a simulated cluster.

    Either pass a prebuilt ``state`` (to reuse an ingress across runs,
    as the paper does — ingress is excluded from all measurements) or
    let this build one.
    """
    config = config or FrogWildConfig()
    if state is None:
        state = build_cluster(
            graph,
            num_machines,
            partitioner=partitioner,
            cost_model=cost_model,
            size_model=size_model,
            seed=config.seed,
            partition=partition,
        )
    return FrogWildRunner(state, config).run()
