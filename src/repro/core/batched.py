"""Batched multi-query FrogWild: B frog populations, one fused traversal.

Lemma 16 makes any birth law a teleport vector, so a personalized
top-k query is *just* a frog population with a different start
distribution — the partitioned-graph traversal it rides is identical
for every query.  This module exploits that: a batch of B independent
populations (each with its own teleport vector, frog budget, seed and
``ps``) advances through a **single shared superstep loop**.

The default execution is the **lane-major fused kernel**: frog state is
one ``(B, n)`` int64 matrix advanced in place, and each superstep runs
apply/death, stranded repair and scatter over a single concatenated
``(lane, vertex)`` frontier addressed by lane-offset keys
(``lane * n + vertex``), so every ``bincount``/gather/scatter pass
touches all populations at once instead of once per lane.  Only the
random draws stay per-lane — each population owns an rng seeded exactly
like the single-query runner's and consumes it in the same order — so a
batch of size one is **bit-identical** to
:class:`~repro.core.frogwild.FrogWildRunner` under the same seed, and
every lane of a larger batch is bit-identical to its standalone run.
The pre-fusion per-lane loop survives as the ``kernel="lane-loop"``
reference implementation; ``tests/test_batch_kernel.py`` pins the two
kernels to each other bit for bit and ``benchmarks/bench_batch_kernel.py``
measures the fusion speedup.

Per superstep the batch pays once for

* the machine-grouped topology gather of the concatenated frontier,
* the BSP barrier (one :meth:`~repro.engine.ClusterState.end_superstep`),
* the physical per-machine-pair messages — all populations' sync and
  frog records ride the same wire flush, so per-message headers are
  amortized across the batch.

Two opt-in modes push the sharing onto the records themselves:

* ``config.sync_mode == "shared"`` flips **one** coin stream for the
  whole batch — each barrier emits exactly one sync record per
  (vertex, mirror) regardless of B, at the price of cross-query
  estimator correlation (the populations see the same erasure process);
* ``config.wire_dedupe`` lets lanes targeting the same (hosting
  machine, destination vertex) in one superstep share one physical
  frog record (the record carries per-lane counts).

Both keep cost attribution honest: physical records are split back to
the lanes by exact largest-remainder apportionment
(:func:`~repro.engine.apportion_records`), so per-lane attributed
records always sum to the physical record count.

Cost attribution stays per-population: every lane carries a
:class:`~repro.engine.CostLedger` tallying the CPU ops, records and
messages it alone caused, and its :class:`~repro.engine.RunReport`
prices them as if it had run standalone.  The gap between the summed
standalone bytes and the fabric's actual bytes is the amortization the
batch bought — the quantity ``benchmarks/bench_serving.py`` plots.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from ..cluster import CostModel, EdgePartition, MessageSizeModel
from ..engine import (
    ClusterState,
    CostLedger,
    MirrorSynchronizer,
    RunReport,
    apportion_records,
    build_cluster,
    sync_pair_records,
)
from ..errors import ConfigError, EngineError
from ..graph import DiGraph, sorted_unique
from .config import FrogWildConfig
from .erasures import make_erasure_model
from .estimator import PageRankEstimate
from .frogwild import (
    FrogWildResult,
    _births,
    _choose_repair_positions,
    _gather_groups,
    _kernel_tables,
    _pick_enabled_edges,
    _ranges_to_indices,
    _scatter_binomial,
    _scatter_multinomial,
)
from .kernels import KERNEL_TIERS, CompiledPasses, CompiledTables, resolve_kernel

__all__ = [
    "BatchQuery",
    "BatchedFrogWildResult",
    "BatchedFrogWildRunner",
    "merge_shard_results",
    "run_frogwild_batch",
]

_KERNELS = KERNEL_TIERS


def _charge_stack(
    live: list["_Lane"], stack: np.ndarray, with_ops: bool
) -> None:
    """Attribute a stacked (B, machines, machines) record tensor.

    One vectorized pass computes every lane's off-diagonal record and
    message counts (equivalent to per-lane
    :meth:`~repro.engine.CostLedger.charge_pair_records` calls); sync
    and repair records additionally bill one CPU op per record, like
    the single-query runner.
    """
    num_machines = stack.shape[1]
    off_diagonal = stack.copy()
    diagonal = np.arange(num_machines)
    off_diagonal[:, diagonal, diagonal] = 0
    records = off_diagonal.sum(axis=(1, 2))
    messages = np.count_nonzero(
        off_diagonal.reshape(stack.shape[0], -1), axis=1
    )
    for lane in live:
        count = int(records[lane.index])
        if count:
            lane.ledger.charge_counts(count, int(messages[lane.index]))
            if with_ops:
                lane.ledger.charge_ops(count)


@dataclass(frozen=True, eq=False)
class BatchQuery:
    """One frog population riding a batched execution.

    Every field defaults to the batch-wide :class:`FrogWildConfig`;
    ``start_distribution`` is the per-query teleport/birth law (None
    means uniform, i.e. global PageRank) and ``ps`` may thin this
    population's mirror synchronization independently of its batchmates
    (per-lane sync mode only; shared sync uses one coin stream, hence
    one ``ps``, for the whole batch).
    """

    num_frogs: int | None = None
    start_distribution: np.ndarray | None = None
    seed: int | None = None
    ps: float | None = None
    label: str = ""


@dataclass(frozen=True)
class BatchedFrogWildResult:
    """Per-population results plus the shared-execution report.

    ``results[i]`` is the i-th query's estimate and *attributed* report
    (costs it alone caused, priced standalone); ``report`` is the
    physical execution — its ``network_bytes`` are what actually crossed
    the wire, which is less than the sum of the attributed bytes
    whenever the batch amortized messages.
    """

    results: tuple[FrogWildResult, ...]
    report: RunReport
    state: ClusterState

    def __len__(self) -> int:
        return len(self.results)

    @property
    def estimates(self) -> list[PageRankEstimate]:
        return [result.estimate for result in self.results]

    def top_k(self, k: int) -> list[np.ndarray]:
        """Per-query top-k vertex ids, in query order."""
        return [result.estimate.top_k(k) for result in self.results]

    def attributed_network_bytes(self) -> int:
        """Sum of standalone-priced per-query bytes (>= actual bytes)."""
        return sum(result.report.network_bytes for result in self.results)

    def amortization_ratio(self) -> float:
        """Actual shared bytes over summed standalone bytes (<= 1)."""
        attributed = self.attributed_network_bytes()
        if attributed == 0:
            return 1.0
        return self.report.network_bytes / attributed


class _Lane:
    """Mutable per-population state inside the shared superstep loop."""

    __slots__ = (
        "index",
        "label",
        "num_frogs",
        "ps",
        "seed",
        "start_distribution",
        "rng",
        "synchronizer",
        "ledger",
        "sv",
        "k_sv",
        "finished_at",
        "sim_time_s",
    )

    def __init__(self) -> None:
        self.sv = None
        self.k_sv = None
        self.synchronizer = None
        self.finished_at = None
        self.sim_time_s = 0.0


class BatchedFrogWildRunner:
    """Executes B FrogWild populations on one prepared cluster.

    The frog-count state is a ``(B, n)`` int64 matrix — one row per
    population — advanced in place by a single traversal of the
    partitioned graph per superstep.  All populations share
    ``iterations``, ``p_teleport``, ``scatter_mode``, ``erasure_model``,
    ``sync_mode`` and ``wire_dedupe`` from the batch config (the serving
    layer's coalescer never mixes configs in one batch); frog budget,
    birth law, seed and — in per-lane sync mode — ``ps`` are per-query.

    ``kernel`` selects the superstep implementation: ``"fused"``
    (default) advances all lanes through one concatenated numpy pass,
    ``"compiled"`` runs the same superstep through the Numba-jitted
    single-pass loops of :mod:`repro.core.kernels` (falling back to
    ``"fused"`` with one warning when Numba is absent), and
    ``"lane-loop"`` is the pre-fusion per-lane reference the fused
    kernel is regression-pinned against.  All tiers produce
    bit-identical results (the compiled tier consumes the exact same
    per-lane numpy random streams and only replaces deterministic
    passes); shared sync and wire dedupe require the fused or compiled
    kernel.
    """

    def __init__(
        self,
        state: ClusterState,
        config: FrogWildConfig,
        queries: Sequence[BatchQuery],
        kernel: str = "fused",
    ) -> None:
        if not queries:
            raise ConfigError("a batch needs at least one query")
        kernel = resolve_kernel(kernel)
        self.state = state
        self.config = config
        self.kernel = kernel
        self.shared_sync_mode = config.sync_mode == "shared"
        self.wire_dedupe = config.wire_dedupe
        if kernel == "lane-loop" and (
            self.shared_sync_mode or self.wire_dedupe
        ):
            raise ConfigError(
                "shared sync and wire dedupe are fused-kernel modes; "
                "the lane-loop reference kernel supports only the "
                "default per-lane configuration"
            )
        self.tables = _kernel_tables(state)
        self.erasure = make_erasure_model(config.erasure_model)
        size_model = state.fabric.size_model
        # One mirror bitmap shared by every population's synchronizer
        # (and across batches: it is the per-ingress cached bitmap, so
        # synchronizers fork a private copy before any disable).
        mirror_matrix = MirrorSynchronizer.shared_mirror_matrix(state)
        self._mirror_matrix = mirror_matrix
        n = state.num_vertices
        self.lanes: list[_Lane] = []
        for index, query in enumerate(queries):
            lane = _Lane()
            lane.index = index
            lane.label = query.label
            lane.num_frogs = (
                config.num_frogs if query.num_frogs is None else query.num_frogs
            )
            if lane.num_frogs < 1:
                raise ConfigError("num_frogs must be positive")
            lane.ps = config.ps if query.ps is None else query.ps
            if not 0.0 <= lane.ps <= 1.0:
                raise ConfigError(f"ps must lie in [0, 1], got {lane.ps}")
            if self.shared_sync_mode and lane.ps != config.ps:
                raise ConfigError(
                    "shared sync flips one coin stream for the whole "
                    "batch, so per-query ps overrides are not allowed "
                    f"(query {index} wants ps={lane.ps:g}, batch uses "
                    f"ps={config.ps:g})"
                )
            lane.seed = config.seed if query.seed is None else query.seed
            distribution = query.start_distribution
            if distribution is not None:
                distribution = np.asarray(distribution, np.float64)
                if distribution.shape != (n,):
                    raise EngineError(
                        "start_distribution must have one entry per vertex"
                    )
                if distribution.min() < 0 or not np.isclose(
                    distribution.sum(), 1.0
                ):
                    raise EngineError(
                        "start_distribution must be a probability distribution"
                    )
            lane.start_distribution = distribution
            # Same stream derivation as the single-query runner, so a
            # B=1 batch replays its exact coin sequence.
            lane.rng = np.random.default_rng(
                lane.seed if lane.seed is None else [104, lane.seed]
            )
            if not self.shared_sync_mode:
                lane.synchronizer = MirrorSynchronizer(
                    state,
                    lane.ps,
                    lane.rng,
                    mirror_matrix=mirror_matrix,
                    copy_on_disable=True,
                )
            lane.ledger = CostLedger(
                record_bytes=size_model.record_bytes(),
                message_header_bytes=size_model.message_header_bytes,
            )
            self.lanes.append(lane)
        if self.shared_sync_mode:
            # One coin stream for the whole batch, on its own seed
            # stream (105) so it never collides with lane streams (104)
            # or cluster-component streams.
            self.shared_sync = MirrorSynchronizer(
                state,
                config.ps,
                np.random.default_rng(
                    config.seed if config.seed is None else [105, config.seed]
                ),
                mirror_matrix=mirror_matrix,
                copy_on_disable=True,
            )
        else:
            self.shared_sync = None
        # Lane-major frog state: row b is population b's frog counts.
        self.frogs = np.zeros((len(self.lanes), n), dtype=np.int64)
        self.counts = np.zeros((len(self.lanes), n), dtype=np.int64)
        self._lane_ps = np.array([lane.ps for lane in self.lanes])
        # Physical records actually flushed, by kind — the quantities
        # the shared-sync and dedupe guarantees are stated against —
        # plus the *demand* totals: what the same coin outcomes would
        # have billed under per-lane accounting (demand == physical in
        # the default modes; the gap is exactly what sharing saved).
        self.record_totals = {
            "sync": 0, "repair": 0, "frog": 0,
            "sync_demand": 0, "frog_demand": 0,
        }
        if kernel == "compiled":
            # The int32-narrowed gather tables are per-ingress (shared
            # across batches like the int64 kernel tables); the pass
            # pipeline with its buffer arena is per-runner state.
            narrowed = state.ingress_cache(
                "compiled_tables", lambda: CompiledTables(self.tables)
            )
            self._passes = CompiledPasses(
                narrowed,
                num_lanes=len(self.lanes),
                num_machines=state.num_machines,
                num_vertices=n,
            )
        else:
            self._passes = None

    # ------------------------------------------------------------------
    def run(self) -> BatchedFrogWildResult:
        """Run the shared superstep loop and return per-query results."""
        state = self.state
        cfg = self.config
        n = state.num_vertices
        if n == 0:
            raise EngineError("cannot run FrogWild on an empty graph")

        # init(): every population born from its own start law.
        births = [
            _births(lane.rng, n, lane.num_frogs, lane.start_distribution)
            for lane in self.lanes
        ]

        if self.kernel in ("fused", "compiled"):
            # Both concatenated kernels carry the frontier as
            # (lane, vertex, count) arrays between supersteps instead
            # of rescanning the (B, n) matrix — from the births on: the
            # first frontier is one sort of the lane-offset birth keys.
            # The matrix is materialized once after the loop for the
            # cut-off count.
            superstep = (
                self._superstep_fused
                if self.kernel == "fused"
                else self._superstep_compiled
            )
            born, k = np.unique(
                np.concatenate(
                    [lane.index * n + b for lane, b in zip(self.lanes, births)]
                ),
                return_counts=True,
            )
            frontier = (*np.divmod(born, n), k)
            for step in range(cfg.iterations):
                frontier = superstep(step, frontier)
                if frontier is None:
                    frontier = (None, None, None)
                    break
            lane_ids, verts, k = frontier
            if lane_ids is not None and lane_ids.size:
                self.frogs.reshape(-1)[lane_ids * n + verts] = k
        else:
            for lane, birth in zip(self.lanes, births):
                self.frogs[lane.index] = np.bincount(birth, minlength=n)
            for step in range(cfg.iterations):
                if not self._superstep_lane_loop(step):
                    break

        # Cut-off: survivors are counted where they stand (Process 15).
        self.counts += self.frogs
        results = []
        for lane in self.lanes:
            estimate = PageRankEstimate(
                self.counts[lane.index], lane.num_frogs
            )
            results.append(
                FrogWildResult(
                    estimate, self._lane_report(lane), state, lane.ledger
                )
            )
        return BatchedFrogWildResult(
            tuple(results), self._batch_report(), state
        )

    # ------------------------------------------------------------------
    def _flush_round(
        self,
        sync_records: np.ndarray,
        repair_records: np.ndarray,
        frog_records: np.ndarray,
        scatter_ops: np.ndarray,
    ) -> None:
        """Flush one round's physical traffic (same order as pre-fusion)."""
        state = self.state
        if sync_records.any():
            state.send_pair_matrix(sync_records, kind="sync")
            state.charge_many(sync_records.sum(axis=0), phase="sync")
        if repair_records.any():
            state.send_pair_matrix(repair_records, kind="sync")
            state.charge_many(repair_records.sum(axis=0), phase="sync")
        state.charge_many(scatter_ops, phase="scatter")
        if frog_records.any():
            state.send_pair_matrix(frog_records, kind="scatter")
        self.record_totals["sync"] += int(sync_records.sum())
        self.record_totals["repair"] += int(repair_records.sum())
        self.record_totals["frog"] += int(frog_records.sum())
        # Demand starts at the physical count; the shared-sync and
        # dedupe paths add their surplus (per-lane billing of the same
        # coins/hops) on top, so demand - physical = records saved.
        self.record_totals["sync_demand"] += int(sync_records.sum())
        self.record_totals["frog_demand"] += int(frog_records.sum())

    # ------------------------------------------------------------------
    def _close_superstep(self, live: list[_Lane], active_union: int) -> None:
        """Barrier + per-lane superstep/time attribution (both kernels)."""
        state = self.state
        state.end_superstep(active_union)
        step_seconds = state.stats.steps[-1].sim_seconds
        for lane in live:
            lane.ledger.supersteps += 1
            lane.sim_time_s += step_seconds

    # ------------------------------------------------------------------
    def _pair_matrices(
        self, rows: np.ndarray, src: np.ndarray, dst: np.ndarray
    ) -> np.ndarray:
        """Per-lane (src, dst) record matrices, one bincount pass."""
        num_machines = self.state.num_machines
        num_pairs = num_machines * num_machines
        return np.bincount(
            (rows * num_machines + src) * num_machines + dst,
            minlength=len(self.lanes) * num_pairs,
        ).reshape(len(self.lanes), num_machines, num_machines)

    # ------------------------------------------------------------------
    def _draw_sync(
        self,
        live: list[_Lane],
        lane_sv: np.ndarray,
        vert_sv: np.ndarray,
        sv_bounds: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The ps coin pass, shared by the fused and compiled kernels.

        Draws every sync coin (per-lane or batch-shared) in exactly the
        single-query runner's stream order and returns the ``fresh``
        mirror matrix of the concatenated frontier plus the physical
        and per-lane sync record matrices.  Living in one method keeps
        the two concatenated kernels consuming identical randomness —
        the compiled tier replaces only deterministic passes.
        """
        state = self.state
        masters = self.tables.masters
        num_machines = state.num_machines
        frontier = vert_sv.size
        if self.shared_sync is None:
            # Inlined per-lane draw_fresh over the whole frontier: the
            # mirror bitmap is gathered once, each lane's coins are
            # drawn into its contiguous slice (same rng call shape as
            # its standalone run, so streams replay exactly), and the
            # fresh/synced matrices are assembled in one pass.
            mirrors = self._mirror_matrix[vert_sv]
            synced = np.zeros((frontier, num_machines), dtype=bool)
            for lane in live:
                sl = slice(sv_bounds[lane.index], sv_bounds[lane.index + 1])
                rows = sl.stop - sl.start
                if rows == 0:
                    continue
                if lane.ps >= 1.0:
                    synced[sl] = mirrors[sl]
                elif lane.ps > 0.0:
                    coins = lane.rng.random((rows, num_machines)) < lane.ps
                    synced[sl] = mirrors[sl] & coins
            fresh = synced.copy()
            fresh[
                np.arange(frontier, dtype=np.int64), masters[vert_sv]
            ] = True
            rows_nz, cols_nz = np.nonzero(synced)
            lane_sync = self._pair_matrices(
                lane_sv[rows_nz], masters[vert_sv[rows_nz]], cols_nz
            )
            sync_records = lane_sync.sum(axis=0)
        else:
            # One coin per (vertex, mirror) in the union frontier: the
            # physical sync traffic is independent of the batch size.
            union_verts = sorted_unique(vert_sv)
            fresh_u, synced_u = self.shared_sync.draw_fresh(union_verts)
            position = np.searchsorted(union_verts, vert_sv)
            fresh = fresh_u[position]
            sync_records = sync_pair_records(
                masters[union_verts], synced_u, num_machines
            )
            # Attribution: what each lane would have billed had the
            # shared coins been its own, apportioned so lane shares sum
            # exactly to the physical record count.
            rows_nz, cols_nz = np.nonzero(synced_u[position])
            demand = self._pair_matrices(
                lane_sv[rows_nz], masters[vert_sv[rows_nz]], cols_nz
            )
            lane_sync = apportion_records(sync_records, demand)
            self.record_totals["sync_demand"] += int(
                demand.sum() - sync_records.sum()
            )
        return fresh, sync_records, lane_sync

    # ------------------------------------------------------------------
    # Fused lane-major kernel (default)
    # ------------------------------------------------------------------
    def _superstep_fused(
        self,
        step: int,
        frontier: tuple[np.ndarray, np.ndarray, np.ndarray],
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """One death + sync + scatter round over all lanes at once.

        ``frontier`` is the concatenated ``(lane, vertex, count)``
        nonzero set of the conceptual frog matrix, in lane-major order —
        every lane's segment is exactly the frontier its standalone run
        would walk, so the per-lane random draws (sliced out of the
        concatenation) consume each lane's rng in the standalone order
        while every gather, ``bincount`` and record pass runs once over
        the total work.  Returns the next frontier, or None once every
        population has died out.
        """
        state = self.state
        cfg = self.config
        masters = self.tables.masters
        n = state.num_vertices
        num_machines = state.num_machines
        num_lanes = len(self.lanes)
        empty = np.empty(0, dtype=np.int64)

        lane_ids, verts, k = frontier
        row_counts = np.bincount(lane_ids, minlength=num_lanes)
        bounds = np.concatenate([[0], np.cumsum(row_counts)])
        live: list[_Lane] = []
        for lane in self.lanes:
            if lane.finished_at is not None:
                continue
            if row_counts[lane.index] == 0:
                lane.finished_at = step
                continue
            live.append(lane)
        if not live:
            return None
        active_mask = np.zeros(n, dtype=bool)
        active_mask[verts] = True
        active_union = int(active_mask.sum())

        # ---------------- apply(): per-lane death coins ----------------
        dead = np.empty(lane_ids.size, dtype=np.int64)
        for lane in live:
            sl = slice(bounds[lane.index], bounds[lane.index + 1])
            dead[sl] = lane.rng.binomial(k[sl], cfg.p_teleport)
            lane.ledger.charge_ops(int(k[sl].sum()))
        # (lane, vertex) keys are unique, so the fancy add is exact.
        self.counts.reshape(-1)[lane_ids * n + verts] += dead
        state.charge_many(
            np.bincount(
                masters[verts], weights=k, minlength=num_machines
            ).astype(np.int64),
            phase="apply",
        )

        survivors = k - dead
        moving = survivors > 0
        lane_sv = lane_ids[moving]
        vert_sv = verts[moving]
        k_sv = survivors[moving]
        if vert_sv.size == 0:
            self._close_superstep(live, active_union)
            return (empty, empty, empty)

        next_frontier = self._scatter_fused(live, lane_sv, vert_sv, k_sv)
        self._close_superstep(live, active_union)
        return next_frontier

    def _scatter_fused(
        self,
        live: list[_Lane],
        lane_sv: np.ndarray,
        vert_sv: np.ndarray,
        k_sv: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sync + repair + scatter over the concatenated frontier.

        Returns the next frontier as sorted-unique ``(lane, vertex,
        count)`` arrays, accumulated with one compressed ``bincount``
        over the hops that actually happened — the fused kernel never
        touches an O(B·n) dense buffer.
        """
        state = self.state
        cfg = self.config
        tables = self.tables
        masters = tables.masters
        n = state.num_vertices
        num_machines = state.num_machines
        num_lanes = len(self.lanes)
        num_pairs = num_machines * num_machines
        frontier = vert_sv.size
        sv_bounds = np.concatenate(
            [[0], np.cumsum(np.bincount(lane_sv, minlength=num_lanes))]
        )

        # -------- <sync>: ps coins, per-lane or batch-shared ----------
        fresh, sync_records, lane_sync = self._draw_sync(
            live, lane_sv, vert_sv, sv_bounds
        )
        _charge_stack(live, lane_sync, with_ops=True)

        # -------- enabled groups of the concatenated frontier ----------
        g_lo = tables.vertex_ptr[vert_sv]
        g_count = tables.vertex_ptr[vert_sv + 1] - g_lo
        grp_idx = _ranges_to_indices(g_lo, g_count)
        grp_row = np.repeat(np.arange(frontier, dtype=np.int64), g_count)
        grp_machine = tables.group_machine[grp_idx]
        grp_sizes = tables.group_sizes[grp_idx]
        enabled_grp = fresh[grp_row, grp_machine]

        enabled_per_row = np.bincount(
            grp_row, weights=enabled_grp, minlength=frontier
        ).astype(np.int64)
        stranded = enabled_per_row == 0
        repair_records = np.zeros(
            (num_machines, num_machines), dtype=np.int64
        )
        lane_repair = None
        # Next-frontier accumulator: (lane * n + vertex) keys plus the
        # frog counts landing there, reduced once at the end.
        idle_keys = None
        idle_weights = None
        if stranded.any():
            bad = np.flatnonzero(stranded)
            if self.erasure.repairs_empty:
                # At-Least-One-Out-Edge repair (Example 10): enable one
                # uniform group per stranded frontier row.  In shared
                # sync mode the coin belongs to the vertex (all lanes
                # stranded there share the repaired mirror and the one
                # physical record); per-lane mode draws from each
                # lane's own rng exactly like its standalone run.
                # Dangling vertices (no out-groups) cannot be repaired:
                # their frogs idle in place awaiting teleportation.
                dangling = g_count[bad] == 0
                if dangling.any():
                    idle = bad[dangling]
                    idle_keys = lane_sv[idle] * n + vert_sv[idle]
                    idle_weights = k_sv[idle]
                    k_sv = k_sv.copy()
                    k_sv[idle] = 0
                    bad = bad[~dangling]
                block_offsets = np.concatenate([[0], np.cumsum(g_count)[:-1]])
                if bad.size == 0:
                    pass  # every stranded row was dangling: nothing to repair
                elif self.shared_sync is None:
                    pick = np.empty(bad.size, dtype=np.int64)
                    bad_lanes = lane_sv[bad]
                    for lane in live:
                        lo, hi = np.searchsorted(
                            bad_lanes, [lane.index, lane.index + 1]
                        )
                        if hi > lo:
                            pick[lo:hi] = (
                                lane.rng.random(hi - lo) * g_count[bad[lo:hi]]
                            ).astype(np.int64)
                    flat_pos = block_offsets[bad] + pick
                    machines = grp_machine[flat_pos]
                    sources = masters[vert_sv[bad]].astype(np.int64)
                    remote = machines != sources
                    lane_repair = self._pair_matrices(
                        bad_lanes[remote], sources[remote], machines[remote]
                    )
                    repair_records = lane_repair.sum(axis=0)
                else:
                    bad_verts = vert_sv[bad]
                    u_bad, u_inverse = np.unique(
                        bad_verts, return_inverse=True
                    )
                    u_count = (
                        tables.vertex_ptr[u_bad + 1] - tables.vertex_ptr[u_bad]
                    )
                    pick_u = (
                        self.shared_sync.rng.random(u_bad.size) * u_count
                    ).astype(np.int64)
                    flat_pos = block_offsets[bad] + pick_u[u_inverse]
                    machines_u = tables.group_machine[
                        tables.vertex_ptr[u_bad] + pick_u
                    ]
                    sources_u = masters[u_bad].astype(np.int64)
                    remote_u = machines_u != sources_u
                    repair_records = np.bincount(
                        sources_u[remote_u] * num_machines
                        + machines_u[remote_u],
                        minlength=num_pairs,
                    ).reshape(num_machines, num_machines)
                    machines = machines_u[u_inverse]
                    sources = sources_u[u_inverse]
                    remote = remote_u[u_inverse]
                    demand = self._pair_matrices(
                        lane_sv[bad][remote], sources[remote], machines[remote]
                    )
                    lane_repair = apportion_records(repair_records, demand)
                if bad.size:
                    enabled_grp = enabled_grp.copy()
                    enabled_grp[flat_pos] = True
                    _charge_stack(live, lane_repair, with_ops=True)
            else:
                # Independent erasures: frogs idle in place this step.
                idle_keys = lane_sv[bad] * n + vert_sv[bad]
                idle_weights = k_sv[bad]
                k_sv = k_sv.copy()
                k_sv[stranded] = 0

        # -------- scatter(): per-lane hop coins, one expansion ---------
        if cfg.scatter_mode == "multinomial":
            dest, host, frog_lane, hop_keys, hop_weights = (
                self._scatter_multinomial_fused(
                    live, lane_sv, vert_sv, k_sv, grp_row, grp_idx,
                    grp_sizes, enabled_grp,
                )
            )
        else:
            dest, host, frog_lane, hop_keys, hop_weights = (
                self._scatter_binomial_fused(
                    live, lane_sv, vert_sv, k_sv, grp_row, grp_idx,
                    grp_sizes, enabled_grp,
                )
            )

        if dest.size:
            scatter_ops = np.bincount(host, minlength=num_machines)
            hops_per_lane = np.bincount(frog_lane, minlength=num_lanes)
        else:
            scatter_ops = np.zeros(num_machines, dtype=np.int64)
            hops_per_lane = np.zeros(num_lanes, dtype=np.int64)
        scatter_ops = scatter_ops + np.bincount(
            grp_machine[enabled_grp], minlength=num_machines
        )
        lane_of_group = lane_sv[grp_row]
        groups_per_lane = np.bincount(
            lane_of_group[enabled_grp], minlength=num_lanes
        )
        for lane in live:
            lane.ledger.charge_ops(
                int(hops_per_lane[lane.index])
                + int(groups_per_lane[lane.index])
            )

        # -------- frog records: combined per (lane, host, dest) --------
        frog_records = np.zeros((num_machines, num_machines), dtype=np.int64)
        lane_frog = None
        if dest.size:
            unique_keys = sorted_unique(
                (frog_lane * num_machines + host) * n + dest
            )
            lane_u = unique_keys // (num_machines * n)
            pair_u = unique_keys % (num_machines * n)
            host_u = pair_u // n
            dest_u = pair_u % n
            dest_master = masters[dest_u].astype(np.int64)
            remote = host_u != dest_master
            demand = self._pair_matrices(
                lane_u[remote], host_u[remote], dest_master[remote]
            )
            if self.wire_dedupe:
                # Lanes aiming at the same (host, destination) share one
                # physical wire record; the shares below hand it back.
                phys_keys = sorted_unique(pair_u[remote])
                phys_host = phys_keys // n
                phys_master = masters[phys_keys % n].astype(np.int64)
                frog_records = np.bincount(
                    phys_host * num_machines + phys_master,
                    minlength=num_machines * num_machines,
                ).reshape(num_machines, num_machines)
                lane_frog = apportion_records(frog_records, demand)
                self.record_totals["frog_demand"] += int(
                    demand.sum() - frog_records.sum()
                )
            else:
                lane_frog = demand
                frog_records = demand.sum(axis=0)
            _charge_stack(live, lane_frog, with_ops=False)

        # -------- physical flush: whole batch, once per round ----------
        self._flush_round(
            sync_records, repair_records, frog_records,
            scatter_ops.astype(np.int64),
        )

        # -------- next frontier: one compressed reduction --------------
        if idle_keys is None and hop_weights is None:
            # Hot path (multinomial, no idling): every hop lands one
            # frog, so the unique pass yields the counts directly.
            if hop_keys.size == 0:
                empty = np.empty(0, dtype=np.int64)
                return empty, empty, empty
            unique_next, counts = np.unique(hop_keys, return_counts=True)
            return unique_next // n, unique_next % n, counts
        if hop_weights is None:
            hop_weights = np.ones(hop_keys.size, dtype=np.int64)
        if idle_keys is None:
            keys, weights = hop_keys, hop_weights
        else:
            keys = np.concatenate([idle_keys, hop_keys])
            weights = np.concatenate([idle_weights, hop_weights])
        if keys.size == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, empty
        unique_next, inverse = np.unique(keys, return_inverse=True)
        counts = np.bincount(
            inverse, weights=weights, minlength=unique_next.size
        ).astype(np.int64)
        return unique_next // n, unique_next % n, counts

    def _scatter_multinomial_fused(
        self,
        live: list[_Lane],
        lane_sv: np.ndarray,
        vert_sv: np.ndarray,
        k_sv: np.ndarray,
        grp_row: np.ndarray,
        grp_idx: np.ndarray,
        grp_sizes: np.ndarray,
        enabled_grp: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, None]:
        """Split each row's K frogs uniformly over its enabled edges.

        The edge pick runs once over the concatenated frontier; only
        the uniform hop draws are sliced per lane (lane segments are
        contiguous, so each slice replays the standalone call).
        Returns per-hop ``(dest, host, lane)`` plus the frontier
        accumulation keys (weights None: one frog per hop).
        """
        tables = self.tables
        n = self.state.num_vertices
        num_lanes = len(self.lanes)
        frontier = vert_sv.size
        empty = np.empty(0, dtype=np.int64)

        enabled_counts = np.bincount(
            grp_row, weights=enabled_grp * grp_sizes, minlength=frontier
        ).astype(np.int64)
        k_send = np.where(enabled_counts > 0, k_sv, 0)
        per_lane = np.bincount(
            lane_sv, weights=k_send, minlength=num_lanes
        ).astype(np.int64)
        total = int(k_send.sum())
        if total == 0:
            return empty, empty, empty, empty, None

        draw = np.empty(total, dtype=np.float64)
        draw_bounds = np.concatenate([[0], np.cumsum(per_lane)])
        for lane in live:
            lo, hi = draw_bounds[lane.index], draw_bounds[lane.index + 1]
            if hi > lo:
                draw[lo:hi] = lane.rng.random(hi - lo)

        frog_row = np.repeat(np.arange(frontier, dtype=np.int64), k_send)
        chosen = _pick_enabled_edges(
            tables, grp_idx, grp_sizes, enabled_grp, enabled_counts,
            frog_row, draw,
        )
        dest = tables.edge_target[chosen]
        host = tables.edge_host[chosen]
        frog_lane = lane_sv[frog_row]
        return dest, host, frog_lane, frog_lane * n + dest, None

    def _scatter_binomial_fused(
        self,
        live: list[_Lane],
        lane_sv: np.ndarray,
        vert_sv: np.ndarray,
        k_sv: np.ndarray,
        grp_row: np.ndarray,
        grp_idx: np.ndarray,
        grp_sizes: np.ndarray,
        enabled_grp: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Paper pseudocode: Bin(K, 1/(d_out ps)) per enabled edge."""
        tables = self.tables
        n = self.state.num_vertices
        empty = np.empty(0, dtype=np.int64)

        on = np.flatnonzero(enabled_grp)
        if on.size == 0:
            return empty, empty, empty, empty, empty
        sizes_on = grp_sizes[on]
        candidate = _ranges_to_indices(
            tables.group_start[grp_idx[on]], sizes_on
        )
        row_pos = np.repeat(grp_row[on], sizes_on)
        edge_lane = lane_sv[row_pos]
        k_per_edge = k_sv[row_pos]
        p_eff = np.maximum(self._lane_ps[edge_lane], 1e-12)
        prob = np.minimum(
            1.0, 1.0 / (tables.out_degree[vert_sv[row_pos]] * p_eff)
        )
        sent = np.empty(candidate.size, dtype=np.int64)
        for lane in live:
            lo, hi = np.searchsorted(edge_lane, [lane.index, lane.index + 1])
            if hi > lo:
                sent[lo:hi] = lane.rng.binomial(
                    k_per_edge[lo:hi], prob[lo:hi]
                )
        nonzero = sent > 0
        chosen = candidate[nonzero]
        dest = tables.edge_target[chosen]
        host = tables.edge_host[chosen]
        hop_lane = edge_lane[nonzero]
        hop_keys = hop_lane * n + dest
        hop_weights = sent[nonzero]
        # Replicate per-frog host attribution for CPU/message accounting.
        dest = np.repeat(dest, hop_weights)
        host = np.repeat(host, hop_weights)
        frog_lane = np.repeat(hop_lane, hop_weights)
        return dest, host, frog_lane, hop_keys, hop_weights

    # ------------------------------------------------------------------
    # Compiled kernel tier (Numba single-pass loops, kernels package)
    # ------------------------------------------------------------------
    def _superstep_compiled(
        self,
        step: int,
        frontier: tuple[np.ndarray, np.ndarray, np.ndarray],
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """The fused superstep with compiled deterministic passes.

        Random draws (death coins, sync coins, repair picks, hop draws)
        run through the exact numpy calls of :meth:`_superstep_fused`,
        in the same order and shapes; every deterministic gather,
        scatter, dedupe and reduction runs as a single compiled loop
        from :mod:`repro.core.kernels` over arena-allocated scratch.
        Bitwise identical to the fused kernel by construction.
        """
        state = self.state
        cfg = self.config
        n = state.num_vertices
        num_lanes = len(self.lanes)
        empty = np.empty(0, dtype=np.int64)
        passes = self._passes
        passes.begin_superstep()

        lane_ids, verts, k = frontier
        row_counts = np.bincount(lane_ids, minlength=num_lanes)
        bounds = np.concatenate([[0], np.cumsum(row_counts)])
        live: list[_Lane] = []
        for lane in self.lanes:
            if lane.finished_at is not None:
                continue
            if row_counts[lane.index] == 0:
                lane.finished_at = step
                continue
            live.append(lane)
        if not live:
            return None
        active_mask = np.zeros(n, dtype=bool)
        active_mask[verts] = True
        active_union = int(active_mask.sum())

        # ---------------- apply(): per-lane death coins ----------------
        dead = np.empty(lane_ids.size, dtype=np.int64)
        for lane in live:
            sl = slice(bounds[lane.index], bounds[lane.index + 1])
            dead[sl] = lane.rng.binomial(k[sl], cfg.p_teleport)
            lane.ledger.charge_ops(int(k[sl].sum()))
        # One compiled loop: count scatter-add + per-machine op charge.
        apply_ops = passes.apply(self.counts, lane_ids, verts, dead, k)
        state.charge_many(apply_ops, phase="apply")

        survivors = k - dead
        moving = survivors > 0
        lane_sv = lane_ids[moving]
        vert_sv = verts[moving]
        k_sv = survivors[moving]
        if vert_sv.size == 0:
            self._close_superstep(live, active_union)
            return (empty, empty, empty)

        next_frontier = self._scatter_compiled(live, lane_sv, vert_sv, k_sv)
        self._close_superstep(live, active_union)
        return next_frontier

    def _scatter_compiled(
        self,
        live: list[_Lane],
        lane_sv: np.ndarray,
        vert_sv: np.ndarray,
        k_sv: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sync + repair + scatter through the compiled pass pipeline.

        Differences from :meth:`_scatter_fused` are representational
        only: instead of materializing the per-group ``repeat``/gather
        arrays, enabled groups are re-walked from the CSR vertex
        pointers inside L2-sized tiles; repaired rows carry a *forced
        group* index instead of a mutated ``enabled_grp`` mask; the
        record dedupe and frontier reduction accumulate dense touched
        maps instead of ``np.unique`` sorts.  Repair draws consume the
        same rng values as the fused kernel (the uniform pick over a
        stranded row's ``g_count`` groups indexes the same group list).
        """
        state = self.state
        cfg = self.config
        tables = self.tables
        masters = tables.masters
        passes = self._passes
        n = state.num_vertices
        num_machines = state.num_machines
        num_lanes = len(self.lanes)
        num_pairs = num_machines * num_machines
        frontier = vert_sv.size
        empty = np.empty(0, dtype=np.int64)
        sv_bounds = np.concatenate(
            [[0], np.cumsum(np.bincount(lane_sv, minlength=num_lanes))]
        )

        # -------- <sync>: identical coin pass to the fused kernel ------
        fresh, sync_records, lane_sync = self._draw_sync(
            live, lane_sv, vert_sv, sv_bounds
        )
        _charge_stack(live, lane_sync, with_ops=True)

        # -------- enabled groups: CSR walk, no materialization ---------
        groups_per_row, g_count = passes.enabled_groups(vert_sv, fresh)
        stranded = groups_per_row == 0
        repair_records = np.zeros(
            (num_machines, num_machines), dtype=np.int64
        )
        lane_repair = None
        idle_keys = None
        idle_weights = None
        forced_g = passes.arena.take(frontier, np.int64)
        forced_g.fill(-1)
        if stranded.any():
            bad = np.flatnonzero(stranded)
            if self.erasure.repairs_empty:
                # At-Least-One-Out-Edge repair: the uniform pick over a
                # stranded row's groups is drawn exactly like the fused
                # kernel; ``vertex_ptr[v] + pick`` is the same group
                # ``block_offsets[row] + pick`` addresses there, so the
                # repaired machine choice is bitwise identical.
                dangling = g_count[bad] == 0
                if dangling.any():
                    idle = bad[dangling]
                    idle_keys = lane_sv[idle] * n + vert_sv[idle]
                    idle_weights = k_sv[idle]
                    k_sv = k_sv.copy()
                    k_sv[idle] = 0
                    bad = bad[~dangling]
                if bad.size == 0:
                    pass  # every stranded row was dangling
                elif self.shared_sync is None:
                    pick = np.empty(bad.size, dtype=np.int64)
                    bad_lanes = lane_sv[bad]
                    for lane in live:
                        lo, hi = np.searchsorted(
                            bad_lanes, [lane.index, lane.index + 1]
                        )
                        if hi > lo:
                            pick[lo:hi] = (
                                lane.rng.random(hi - lo) * g_count[bad[lo:hi]]
                            ).astype(np.int64)
                    gsel = tables.vertex_ptr[vert_sv[bad]] + pick
                    machines = tables.group_machine[gsel]
                    sources = masters[vert_sv[bad]].astype(np.int64)
                    remote = machines != sources
                    lane_repair = self._pair_matrices(
                        bad_lanes[remote], sources[remote], machines[remote]
                    )
                    repair_records = lane_repair.sum(axis=0)
                else:
                    bad_verts = vert_sv[bad]
                    u_bad, u_inverse = np.unique(
                        bad_verts, return_inverse=True
                    )
                    u_count = (
                        tables.vertex_ptr[u_bad + 1] - tables.vertex_ptr[u_bad]
                    )
                    pick_u = (
                        self.shared_sync.rng.random(u_bad.size) * u_count
                    ).astype(np.int64)
                    gsel_u = tables.vertex_ptr[u_bad] + pick_u
                    machines_u = tables.group_machine[gsel_u]
                    sources_u = masters[u_bad].astype(np.int64)
                    remote_u = machines_u != sources_u
                    repair_records = np.bincount(
                        sources_u[remote_u] * num_machines
                        + machines_u[remote_u],
                        minlength=num_pairs,
                    ).reshape(num_machines, num_machines)
                    gsel = gsel_u[u_inverse]
                    machines = machines_u[u_inverse]
                    sources = sources_u[u_inverse]
                    remote = remote_u[u_inverse]
                    demand = self._pair_matrices(
                        lane_sv[bad][remote], sources[remote], machines[remote]
                    )
                    lane_repair = apportion_records(repair_records, demand)
                if bad.size:
                    forced_g[bad] = gsel
                    _charge_stack(live, lane_repair, with_ops=True)
            else:
                # Independent erasures: frogs idle in place this step.
                idle_keys = lane_sv[bad] * n + vert_sv[bad]
                idle_weights = k_sv[bad]
                k_sv = k_sv.copy()
                k_sv[stranded] = 0

        # -------- enabled totals (post-repair), one compiled pass ------
        edge_counts, machine_groups, lane_groups = passes.enabled_totals(
            vert_sv, lane_sv, fresh, forced_g
        )

        # -------- scatter(): per-lane hop coins, compiled expansion ----
        hop_keys = empty
        hop_weights = None
        rec_lane = rec_host = rec_dest = empty
        scatter_ops = np.zeros(num_machines, dtype=np.int64)
        hops_per_lane = np.zeros(num_lanes, dtype=np.int64)
        if cfg.scatter_mode == "multinomial":
            k_send = np.where(edge_counts > 0, k_sv, 0)
            per_lane = np.bincount(
                lane_sv, weights=k_send, minlength=num_lanes
            ).astype(np.int64)
            total = int(k_send.sum())
            if total:
                draw = passes.arena.take(total, np.float64)
                draw_bounds = np.concatenate([[0], np.cumsum(per_lane)])
                for lane in live:
                    lo = draw_bounds[lane.index]
                    hi = draw_bounds[lane.index + 1]
                    if hi > lo:
                        draw[lo:hi] = lane.rng.random(hi - lo)
                rec_dest, rec_host, rec_lane, hop_keys, scatter_ops = (
                    passes.expand_multinomial(
                        vert_sv, lane_sv, k_send, edge_counts, forced_g,
                        fresh, draw,
                    )
                )
                hops_per_lane = per_lane
        else:
            total_edges = int(edge_counts.sum())
            if total_edges:
                chosen, k_per_edge, prob, edge_lane = passes.expand_binomial(
                    vert_sv, lane_sv, k_sv, forced_g, fresh, edge_counts,
                    self._lane_ps,
                )
                sent = passes.arena.take(total_edges, np.int64)
                for lane in live:
                    lo, hi = np.searchsorted(
                        edge_lane, [lane.index, lane.index + 1]
                    )
                    if hi > lo:
                        sent[lo:hi] = lane.rng.binomial(
                            k_per_edge[lo:hi], prob[lo:hi]
                        )
                (
                    hop_keys, hop_weights, rec_lane, rec_host, rec_dest,
                    scatter_ops, hops_per_lane,
                ) = passes.binomial_post(chosen, edge_lane, sent)

        scatter_ops = scatter_ops + machine_groups
        for lane in live:
            lane.ledger.charge_ops(
                int(hops_per_lane[lane.index])
                + int(lane_groups[lane.index])
            )

        # -------- frog records: dense dedupe, no unique sorts ----------
        frog_records = np.zeros((num_machines, num_machines), dtype=np.int64)
        lane_frog = None
        if rec_dest.size:
            demand, phys = passes.frog_records(
                rec_lane, rec_host, rec_dest, dedupe=self.wire_dedupe
            )
            if self.wire_dedupe:
                frog_records = phys
                lane_frog = apportion_records(frog_records, demand)
                self.record_totals["frog_demand"] += int(
                    demand.sum() - frog_records.sum()
                )
            else:
                lane_frog = demand
                frog_records = demand.sum(axis=0)
            _charge_stack(live, lane_frog, with_ops=False)

        # -------- physical flush: whole batch, once per round ----------
        self._flush_round(
            sync_records, repair_records, frog_records,
            scatter_ops.astype(np.int64),
        )

        # -------- next frontier: dense touched-key reduction -----------
        return passes.reduce_frontier(
            hop_keys, hop_weights, idle_keys, idle_weights
        )

    # ------------------------------------------------------------------
    # Lane-loop reference kernel (pre-fusion implementation)
    # ------------------------------------------------------------------
    def _superstep_lane_loop(self, step: int) -> bool:
        """One superstep of the per-lane reference implementation."""
        state = self.state
        cfg = self.config
        masters = self.tables.masters
        n = state.num_vertices
        num_machines = state.num_machines

        live: list[tuple[_Lane, np.ndarray]] = []
        active_union = np.zeros(n, dtype=bool)
        for lane in self.lanes:
            if lane.finished_at is not None:
                continue
            active_idx = np.flatnonzero(self.frogs[lane.index])
            if active_idx.size == 0:
                lane.finished_at = step
                continue
            live.append((lane, active_idx))
            active_union[active_idx] = True
        if not live:
            return False

        # ---------------- apply(): per-population deaths -----------
        apply_ops = np.zeros(num_machines, dtype=np.int64)
        scatter_mask = np.zeros(n, dtype=bool)
        for lane, active_idx in live:
            k_active = self.frogs[lane.index, active_idx]
            dead = lane.rng.binomial(k_active, cfg.p_teleport)
            self.counts[lane.index, active_idx] += dead
            survivors = k_active - dead
            ops = np.bincount(
                masters[active_idx], weights=k_active, minlength=num_machines
            ).astype(np.int64)
            apply_ops += ops
            lane.ledger.charge_ops(int(ops.sum()))
            moving = survivors > 0
            lane.sv = active_idx[moving]
            lane.k_sv = survivors[moving].astype(np.int64)
            scatter_mask[lane.sv] = True
        state.charge_many(apply_ops, phase="apply")

        sv_union = np.flatnonzero(scatter_mask)
        if sv_union.size:
            self._scatter_phase(live, sv_union)
        else:
            for lane, _ in live:
                self.frogs[lane.index] = 0

        self._close_superstep(
            [lane for lane, _ in live], int(active_union.sum())
        )
        return True

    def _scatter_phase(
        self, live: list[tuple[_Lane, np.ndarray]], sv_union: np.ndarray
    ) -> None:
        """Sync + scatter every live population over one shared gather.

        The union frontier is gathered once; each population's group
        view is a boolean slice of it.  Physical accounting (pair
        matrices, CPU vectors) is summed across populations and flushed
        once, in the same round structure as the single-query runner
        (sync, then repair, then scatter) so a B=1 batch produces the
        identical message sequence.
        """
        state = self.state
        cfg = self.config
        tables = self.tables
        masters = tables.masters
        n = state.num_vertices
        num_machines = state.num_machines

        view_union = _gather_groups(tables, sv_union)
        position_of = np.full(n, -1, dtype=np.int64)
        position_of[sv_union] = np.arange(sv_union.size, dtype=np.int64)

        sync_records = np.zeros((num_machines, num_machines), dtype=np.int64)
        repair_records = np.zeros((num_machines, num_machines), dtype=np.int64)
        frog_records = np.zeros((num_machines, num_machines), dtype=np.int64)
        scatter_ops = np.zeros(num_machines, dtype=np.int64)

        for lane, _ in live:
            next_frogs = np.zeros(n, dtype=np.int64)
            sv, k_sv = lane.sv, lane.k_sv
            lane.sv = lane.k_sv = None
            if sv.size == 0:
                self.frogs[lane.index] = next_frogs
                continue
            member_rows = position_of[sv]
            if member_rows.size == sv_union.size:
                view = view_union
            else:
                member_mask = np.zeros(sv_union.size, dtype=bool)
                member_mask[member_rows] = True
                view = view_union.select(member_rows, member_mask)

            # -------- <sync>: this population's ps coins ---------------
            fresh, synced = lane.synchronizer.draw_fresh(sv)
            records = sync_pair_records(masters[sv], synced, num_machines)
            sync_records += records
            lane.ledger.charge_pair_records(records)
            lane.ledger.charge_ops(int(records.sum()))

            enabled_grp = fresh[view.grp_vertex_pos, view.grp_machine]
            enabled_per_vertex = np.bincount(
                view.grp_vertex_pos, weights=enabled_grp, minlength=sv.size
            ).astype(np.int64)
            stranded = enabled_per_vertex == 0
            if stranded.any():
                if self.erasure.repairs_empty:
                    bad = np.flatnonzero(stranded)
                    # Dangling vertices (no out-groups) cannot be
                    # repaired: their frogs idle in place this step.
                    dangling = view.g_count[bad] == 0
                    if dangling.any():
                        idle = bad[dangling]
                        next_frogs[sv[idle]] += k_sv[idle]
                        k_sv = k_sv.copy()
                        k_sv[idle] = 0
                        bad = bad[~dangling]
                    if bad.size:
                        flat_pos = _choose_repair_positions(
                            lane.rng, view.g_count, bad
                        )
                        enabled_grp = enabled_grp.copy()
                        enabled_grp[flat_pos] = True
                        machines = view.grp_machine[flat_pos]
                        sources = masters[sv[bad]].astype(np.int64)
                        remote = machines != sources
                        if remote.any():
                            extra = np.bincount(
                                sources[remote] * num_machines
                                + machines[remote],
                                minlength=num_machines**2,
                            ).reshape(num_machines, num_machines)
                            repair_records += extra
                            lane.ledger.charge_pair_records(extra)
                            lane.ledger.charge_ops(int(extra.sum()))
                else:
                    next_frogs[sv[stranded]] += k_sv[stranded]
                    k_sv = k_sv.copy()
                    k_sv[stranded] = 0

            # -------- scatter(): this population's hops ----------------
            if cfg.scatter_mode == "multinomial":
                dest, host = _scatter_multinomial(
                    lane.rng, tables, view, enabled_grp, sv, k_sv, next_frogs
                )
            else:
                dest, host = _scatter_binomial(
                    lane.rng, lane.ps, tables, view, enabled_grp, sv, k_sv,
                    next_frogs,
                )
            if dest.size:
                ops = np.bincount(host, minlength=num_machines)
            else:
                ops = np.zeros(num_machines, dtype=np.int64)
            ops += np.bincount(
                view.grp_machine[enabled_grp], minlength=num_machines
            )
            scatter_ops += ops.astype(np.int64)
            lane.ledger.charge_ops(int(ops.sum()))

            if dest.size:
                pair_keys = sorted_unique(host * n + dest)
                host_unique = pair_keys // n
                dest_master = masters[pair_keys % n].astype(np.int64)
                remote = host_unique != dest_master
                if remote.any():
                    records = np.bincount(
                        host_unique[remote] * num_machines
                        + dest_master[remote],
                        minlength=num_machines**2,
                    ).reshape(num_machines, num_machines)
                    frog_records += records
                    lane.ledger.charge_pair_records(records)
            self.frogs[lane.index] = next_frogs

        # -------- physical flush: whole batch, once per round ----------
        self._flush_round(
            sync_records, repair_records, frog_records, scatter_ops
        )

    # ------------------------------------------------------------------
    def _lane_report(self, lane: _Lane) -> RunReport:
        state = self.state
        cfg = self.config
        steps = lane.ledger.supersteps
        # Simulated time while this population was live: a lane that
        # died out early stops accumulating, so its per-iteration time
        # stays honest even inside a longer-running batch.
        total_time = lane.sim_time_s
        return RunReport(
            algorithm=f"frogwild-batched(ps={lane.ps:g})",
            num_machines=state.num_machines,
            supersteps=steps,
            total_time_s=total_time,
            time_per_iteration_s=total_time / steps if steps else 0.0,
            network_bytes=lane.ledger.standalone_network_bytes(),
            cpu_seconds=state.cost_model.cpu_seconds(lane.ledger.cpu_ops),
            extra={
                "num_frogs": float(lane.num_frogs),
                "iterations": float(cfg.iterations),
                "ps": float(lane.ps),
                "replication_factor": state.replication.replication_factor(),
                "batch_index": float(lane.index),
                "batch_size": float(len(self.lanes)),
            },
        )

    def _batch_report(self) -> RunReport:
        state = self.state
        stats = state.stats
        cfg = self.config
        attributed = sum(
            lane.ledger.standalone_network_bytes() for lane in self.lanes
        )
        return RunReport(
            algorithm=(
                f"frogwild-batched(B={len(self.lanes)},ps={cfg.ps:g})"
            ),
            num_machines=state.num_machines,
            supersteps=stats.num_supersteps,
            total_time_s=stats.total_seconds(),
            time_per_iteration_s=stats.seconds_per_step(),
            network_bytes=state.fabric.total_bytes(),
            cpu_seconds=state.cost_model.cpu_seconds(stats.total_cpu_ops()),
            extra={
                "batch_size": float(len(self.lanes)),
                "total_frogs": float(
                    sum(lane.num_frogs for lane in self.lanes)
                ),
                "attributed_network_bytes": float(attributed),
                "ps": float(cfg.ps),
                "replication_factor": state.replication.replication_factor(),
                "shared_sync": float(self.shared_sync_mode),
                "wire_dedupe": float(self.wire_dedupe),
                "sync_records": float(self.record_totals["sync"]),
                "repair_records": float(self.record_totals["repair"]),
                "frog_records": float(self.record_totals["frog"]),
                "sync_demand_records": float(
                    self.record_totals["sync_demand"]
                ),
                "frog_demand_records": float(
                    self.record_totals["frog_demand"]
                ),
            },
        )


def merge_shard_results(lanes: Sequence[FrogWildResult]) -> FrogWildResult:
    """Merge per-shard results of *one* query into a single result.

    The sharded serving backend splits a query's frog budget across
    shard sub-clusters; because frogs are independent, the merged
    counter vector is exactly the counters a single run of the full
    budget would have produced in distribution.  Attribution merges the
    same way the hardware would bill it:

    * ``network_bytes`` and ``cpu_seconds`` **add** — every shard's
      traffic and work is real and owed to this query;
    * ``total_time_s`` and ``supersteps`` take the **max** — shards
      advance concurrently, so the query waits for the slowest one.
    """
    if not lanes:
        raise ConfigError("need at least one shard result to merge")
    if len(lanes) == 1:
        return lanes[0]
    estimate = PageRankEstimate.merge([lane.estimate for lane in lanes])
    reports = [lane.report for lane in lanes]
    # Merge attribution at the ledger level when the lanes carry their
    # ledgers (batched-runner lanes always do): records, messages and
    # CPU ops add, supersteps take the max.  The fallback sums the
    # already-priced reports, which is byte-identical because
    # standalone pricing is linear in records and messages.
    ledger: CostLedger | None = None
    if all(lane.ledger is not None for lane in lanes):
        ledger = replace(lanes[0].ledger)
        for lane in lanes[1:]:
            ledger.merge(lane.ledger)
        supersteps = ledger.supersteps
        network_bytes = ledger.standalone_network_bytes()
    else:
        supersteps = max(report.supersteps for report in reports)
        network_bytes = sum(report.network_bytes for report in reports)
    total_time = max(report.total_time_s for report in reports)
    # Only config-level entries survive the merge; per-layout ones
    # (replication_factor, batch_index) describe a single shard's
    # independently seeded ingress and would misdescribe the whole.
    extra = {
        key: reports[0].extra[key]
        for key in ("iterations", "ps", "batch_size")
        if key in reports[0].extra
    }
    extra.update(
        num_frogs=float(estimate.num_frogs),
        shards=float(len(lanes)),
    )
    merged = RunReport(
        algorithm=f"frogwild-sharded(S={len(lanes)})",
        num_machines=sum(report.num_machines for report in reports),
        supersteps=supersteps,
        total_time_s=total_time,
        time_per_iteration_s=total_time / supersteps if supersteps else 0.0,
        network_bytes=network_bytes,
        cpu_seconds=sum(report.cpu_seconds for report in reports),
        extra=extra,
    )
    return FrogWildResult(estimate, merged, lanes[0].state, ledger)


def run_frogwild_batch(
    graph: DiGraph,
    queries: Sequence[BatchQuery],
    config: FrogWildConfig | None = None,
    num_machines: int = 16,
    partitioner: str = "random",
    cost_model: CostModel | None = None,
    size_model: MessageSizeModel | None = None,
    partition: EdgePartition | None = None,
    state: ClusterState | None = None,
    kernel: str = "fused",
) -> BatchedFrogWildResult:
    """Run a batch of FrogWild queries through one shared traversal.

    Mirrors :func:`repro.core.run_frogwild`: pass a prebuilt ``state``
    to reuse an ingress across batches (the serving layer does), or let
    this build one.  ``kernel`` selects the fused lane-major kernel
    (default), the per-lane ``"lane-loop"`` reference implementation,
    or the Numba ``"compiled"`` tier (see :mod:`repro.core.kernels`;
    falls back to fused with a warning when numba is absent).
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
    return BatchedFrogWildRunner(state, config, queries, kernel=kernel).run()
