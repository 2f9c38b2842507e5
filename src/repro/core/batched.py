"""Batched multi-query FrogWild: B frog populations, one fused traversal.

Lemma 16 makes any birth law a teleport vector, so a personalized
top-k query is *just* a frog population born on its seed set instead
of uniformly — the partitioned-graph traversal it rides is identical
for every query.  This module exploits that: a batch of B independent
populations (each with its own seed set and weights, frog budget, seed
and ``ps``) advances through a **single shared superstep loop**.  A
query stays its seeds and weights down to the births: they are drawn
from the sorted positive-weight seeds, and no lane builds an n-length
law.

There is **one superstep**, lane-major and fused: frog state is the
sorted ``(lane, vertex, count)`` frontier of all populations, and each
superstep runs apply/death, stranded repair and scatter over that
single concatenated frontier addressed by lane-offset keys
(``lane * n + vertex``), so every deterministic pass touches all
populations at once instead of once per lane.  Only the random draws
stay per-lane — each population owns an rng on the stream ``[104,
seed]`` and consumes it in the order a run alone would — so every lane
of a batch is bit-identical to the B = 1 run of its query, and that
B = 1 run *is* the paper's single run: :func:`run_frogwild` is one lane
of this runner reported as the whole execution, bitwise equal to the
standalone runner it replaced (pinned in ``tests/data``;
``tests/test_batched_frogwild.py``, ``tests/test_batch_kernel.py``).
Each population's erasure process — its ``ps`` coins and repair picks —
is its own, so the populations are independent, as Lemma 18 assumes of
one query.  The superstep makes the draws; the deterministic passes
between them are the numpy :class:`~repro.core.kernels.FusedPasses`.  Fault
injection (:mod:`repro.faults`) rides the same superstep through two
hooks, :meth:`BatchedFrogWildRunner._begin_superstep` and
:meth:`BatchedFrogWildRunner._deliver`.

Per superstep the batch pays once for

* the machine-grouped topology gather of the concatenated frontier,
* the BSP barrier (one :meth:`~repro.engine.ClusterState.end_superstep`),
* the physical per-machine-pair messages — all populations' sync and
  frog records ride the same wire flush, so per-message headers are
  amortized across the batch.

No lane keeps an n-length counter.  The apply pass hands each
superstep's deaths back as a sorted run of ``(lane * n + vertex,
count)`` stop records and the cut-off adds the survivors' run; the runs
are summed once and split by lane, so every lane's
:class:`~repro.core.PageRankEstimate` is born as its id-ordered
records — at most one per frog — and a batch's memory follows its
frogs, not B x n.

Cost attribution stays per-population: every lane carries a
:class:`~repro.engine.CostLedger` tallying the CPU ops, records and
messages it alone caused, and its :class:`~repro.engine.RunReport`
prices them as if it had run standalone.  The gap between the summed
standalone bytes and the bytes the cluster billed is the amortization
the batch bought (:meth:`BatchedFrogWildResult.amortization_ratio`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from ..cluster import CostModel, EdgePartition, MessageSizeModel
from ..engine import (
    ClusterState,
    CostLedger,
    RunReport,
    build_cluster,
    count_marks_by_key,
    mirror_matrix,
    sync_coins,
)
from ..errors import ConfigError, EngineError
from ..graph import DiGraph
from .config import (
    FrogWildConfig,
    check_positive_int,
    check_seed,
    check_seed_set,
)
from .erasures import make_erasure_model
from .estimator import PageRankEstimate
from .frogwild import (
    FrogWildResult,
    _keep_scratch_on_the_heap,
    _kernel_tables,
)
from .kernels import DenseGroupTables, FusedPasses
from .kernels.fused import count_keys

__all__ = [
    "BatchQuery",
    "BatchedFrogWildResult",
    "BatchedFrogWildRunner",
    "merge_shard_results",
    "run_frogwild",
    "run_frogwild_batch",
]


def _charge_stack(
    live: list["_Lane"], stack: np.ndarray, with_ops: bool
) -> None:
    """Attribute a stacked (B, machines, machines) record tensor.

    One vectorized pass computes every lane's off-diagonal record and
    message counts (equivalent to per-lane
    :meth:`~repro.engine.CostLedger.charge_pair_records` calls); sync
    and repair records additionally bill one CPU op per record, as a
    single run does.
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


def _births(
    rng: np.random.Generator,
    n: int,
    num_frogs: int,
    seeds: np.ndarray | None,
    weights: np.ndarray | None,
) -> np.ndarray:
    """Birth vertices of ``num_frogs`` frogs born on the seed set
    ``seeds`` under ``weights`` (None: uniform over the seeds; no seeds:
    uniform over all ``n`` vertices).

    Inverse-cdf sampling over the positive-weight seeds in id order:
    the weights are normalised by their sum in the caller's seed order
    and the running sum of the id-ordered positive ones holds the same
    floats as the dense running sum ``rng.choice(n, size, p=law)``
    builds over the seed law's n-vector (adding 0.0 is exact); the
    uniforms are the same ``rng.random`` call, so births and rng state
    equal ``rng.choice``'s.  Nothing here is n-sized.
    """
    if seeds is None:
        return rng.integers(0, n, size=num_frogs)
    order = seeds.argsort(kind="stable")
    if weights is None:
        law = np.full(seeds.size, 1.0 / seeds.size)
    else:
        law = (weights / weights.sum())[order]
    positive = law > 0
    cdf = np.cumsum(law[positive])
    cdf /= cdf[-1]
    support = seeds[order][positive]
    return support[cdf.searchsorted(rng.random(num_frogs), side="right")]


@dataclass(frozen=True, eq=False)
class BatchQuery:
    """One frog population riding a batched execution.

    Every field defaults to the batch-wide :class:`FrogWildConfig`;
    ``seeds`` is the seed set the population is born on (Lemma 16: its
    teleport law), with optional restart ``weights`` aligned to it
    (None: uniform over the seeds); no seeds means births uniform over
    every vertex, i.e. global PageRank.  ``ps`` may thin this
    population's mirror synchronization independently of its batchmates.
    """

    num_frogs: int | None = None
    seeds: Sequence[int] | np.ndarray | None = None
    weights: Sequence[float] | np.ndarray | None = None
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
        "seeds",
        "weights",
        "rng",
        "ledger",
        "finished_at",
        "sim_time_s",
    )

    def __init__(self) -> None:
        self.finished_at = None
        self.sim_time_s = 0.0


class BatchedFrogWildRunner:
    """Executes B FrogWild populations on one prepared cluster.

    The frog state is the concatenated ``(lane, vertex, count)``
    frontier of all populations, advanced by a single traversal of the
    partitioned graph per superstep.  All populations share
    ``iterations``, ``p_teleport``, ``scatter_mode`` and
    ``erasure_model`` from the batch config (the serving layer's
    coalescer never mixes configs in one batch); frog budget, seed set,
    seed and ``ps`` are per-query.

    There is one superstep: it makes every random draw from the
    per-lane numpy streams and runs the deterministic passes between
    them as whole-frontier numpy
    (:class:`~repro.core.kernels.FusedPasses`).  :meth:`run` returns
    the batch; :meth:`run_single` runs a one-lane batch as the paper's
    single run.
    """

    def __init__(
        self,
        state: ClusterState,
        config: FrogWildConfig,
        queries: Sequence[BatchQuery],
    ) -> None:
        if not queries:
            raise ConfigError("a batch needs at least one query")
        _keep_scratch_on_the_heap()
        self.state = state
        self.config = config
        self.tables = _kernel_tables(state)
        self.erasure = make_erasure_model(config.erasure_model)
        size_model = state.size_model
        # One mirror bitmap read by every population's coin pass (and
        # across batches: it is the per-ingress cached bitmap).
        self._mirror_matrix = state.ingress_cache(
            "mirror_matrix", lambda: mirror_matrix(state.replication)
        )
        n = state.num_vertices
        self.lanes: list[_Lane] = []
        for index, query in enumerate(queries):
            lane = _Lane()
            lane.index = index
            lane.label = query.label
            lane.num_frogs = (
                config.num_frogs if query.num_frogs is None else query.num_frogs
            )
            check_positive_int("num_frogs", lane.num_frogs)
            lane.ps = config.ps if query.ps is None else query.ps
            if not 0.0 <= lane.ps <= 1.0:
                raise ConfigError(f"ps must lie in [0, 1], got {lane.ps}")
            lane.seed = config.seed if query.seed is None else query.seed
            check_seed(lane.seed)
            if query.seeds is not None:
                lane.seeds, lane.weights = check_seed_set(
                    query.seeds, query.weights, n
                )
            elif query.weights is not None:
                raise ConfigError("weights need a seed set")
            else:
                lane.seeds = lane.weights = None
            # The walk stream of a query: its B = 1 run and its lane in
            # any batch consume the same coin sequence.
            lane.rng = np.random.default_rng(
                lane.seed if lane.seed is None else [104, lane.seed]
            )
            lane.ledger = CostLedger(
                record_bytes=size_model.record_bytes(),
                message_header_bytes=size_model.message_header_bytes,
            )
            self.lanes.append(lane)
        self._lane_ps = np.array([lane.ps for lane in self.lanes])
        # Physical records actually flushed, by kind.
        self.record_totals = {"sync": 0, "repair": 0, "frog": 0}
        # The dense group tables are per-ingress (shared across batches
        # like the int64 kernel tables) and built on first use; the pass
        # state is per-runner.
        self._passes = FusedPasses(
            self.tables,
            state.ingress_cache(
                "dense_groups",
                lambda: DenseGroupTables(self.tables, state.num_machines),
            ),
            num_lanes=len(self.lanes),
            num_machines=state.num_machines,
            num_vertices=n,
        )

    # ------------------------------------------------------------------
    def run(self) -> BatchedFrogWildResult:
        """Run the shared superstep loop and return per-query results."""
        results = [
            FrogWildResult(
                estimate, self._lane_report(lane), self.state, lane.ledger
            )
            for lane, estimate in zip(self.lanes, self._walk())
        ]
        return BatchedFrogWildResult(
            tuple(results), self._batch_report(), self.state
        )

    def run_single(self) -> FrogWildResult:
        """Run a one-lane batch as the paper's single run.

        Its report is the cluster's bill — every superstep and every
        byte billed, which with one lane are the lane's own plus
        whatever a fault subclass put on the wire — under the label
        ``frogwild(ps=...)``; it carries no ledger.
        """
        if len(self.lanes) != 1:
            raise ConfigError("a single run has exactly one population")
        (estimate,) = self._walk()
        lane = self.lanes[0]
        report = self.state.report(
            f"frogwild(ps={lane.ps:g})",
            {
                "num_frogs": float(lane.num_frogs),
                "iterations": float(self.config.iterations),
                "ps": float(lane.ps),
                "replication_factor": (
                    self.state.replication.replication_factor()
                ),
            },
        )
        return FrogWildResult(estimate, report, self.state)

    def _walk(self) -> list[PageRankEstimate]:
        """Births, ``iterations`` supersteps and the cut-off; returns
        every lane's estimate.

        Each superstep appends its deaths to ``self._stops`` as one run
        of ``(lane * n + vertex, count)`` records and the cut-off
        appends the survivors; the runs are summed once
        (:func:`~repro.core.kernels.fused.count_keys`) and split by lane
        with one ``searchsorted``, so no (lanes x n) counter exists.
        """
        n = self.state.num_vertices
        if n == 0:
            raise EngineError("cannot run FrogWild on an empty graph")
        empty = np.empty(0, dtype=np.int64)
        self._stops = [(empty, empty)]

        # init(): every population born on its own seed set.
        births = [
            _births(lane.rng, n, lane.num_frogs, lane.seeds, lane.weights)
            for lane in self.lanes
        ]

        # The frontier travels between supersteps as sorted (lane,
        # vertex, count) arrays — from the births on: the first frontier
        # is one count of the lane-offset birth keys.
        born, k = count_keys(
            np.concatenate(
                [lane.index * n + b for lane, b in zip(self.lanes, births)]
            ),
            len(self.lanes) * n,
        )
        frontier = (*np.divmod(born, n), k)
        for step in range(self.config.iterations):
            frontier = self._superstep(step, frontier)
            if frontier is None:
                break
        if frontier is not None:
            # Cut-off: survivors are counted where they stand (Process
            # 15).
            lane_ids, verts, k = frontier
            self._stops.append((lane_ids * n + verts, k))
        keys, counts = count_keys(
            np.concatenate([run[0] for run in self._stops]),
            len(self.lanes) * n,
            weights=np.concatenate([run[1] for run in self._stops]),
        )
        bounds = keys.searchsorted(np.arange(len(self.lanes) + 1) * n)
        return [
            PageRankEstimate.from_records(
                keys[lo:hi] - lane.index * n,
                counts[lo:hi],
                lane.num_frogs,
                n,
            )
            for lane, lo, hi in zip(self.lanes, bounds[:-1], bounds[1:])
        ]

    # ------------------------------------------------------------------
    # Hooks: fault injection (repro.faults) runs one lane through them.
    # ------------------------------------------------------------------
    def _begin_superstep(
        self, step: int, frontier: tuple[np.ndarray, np.ndarray, np.ndarray]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sees the ``(lane, vertex, count)`` frontier as superstep
        ``step`` starts and returns the one to walk.  Identity here."""
        return frontier

    def _deliver(
        self,
        dest: np.ndarray,
        host: np.ndarray,
        hop_keys: np.ndarray,
        hop_weights: np.ndarray | None,
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Sees every hop's destination and hosting machine after its
        records were billed, before the next frontier is reduced, and
        returns the ``(lane * n + vertex)`` keys and frog counts that
        land.  ``hop_weights`` is None when every hop is one frog
        (multinomial scatter), else the frogs per hop.  Everything lands
        here."""
        return hop_keys, hop_weights

    # ------------------------------------------------------------------
    def _flush_round(
        self,
        sync_records: np.ndarray,
        repair_records: np.ndarray,
        frog_records: np.ndarray,
        scatter_ops: np.ndarray,
    ) -> None:
        """Flush one round's physical traffic (sync, repair, scatter:
        the order the single run has always billed them in)."""
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

    # ------------------------------------------------------------------
    def _close_superstep(self, live: list[_Lane]) -> None:
        """Barrier + per-lane superstep/time attribution."""
        step_seconds = self.state.end_superstep()
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
    ) -> tuple[np.ndarray, np.ndarray]:
        """The ps coin pass.

        The mirror bitmap is gathered once for the whole frontier and
        each lane flips its coins over its contiguous slice
        (:func:`~repro.engine.sync_coins`: the rng call shape of its run
        alone, so streams replay exactly).  Returns the ``fresh``
        replica matrix of the concatenated frontier (synced mirrors plus
        the master) and the per-lane (master, mirror) sync record
        matrices.
        """
        num_lanes = len(self.lanes)
        num_machines = self.state.num_machines
        row_master = self.tables.masters[vert_sv]
        mirrors = self._mirror_matrix.take(vert_sv, axis=0)
        synced = np.zeros(mirrors.shape, dtype=bool)
        for lane in live:
            sl = slice(sv_bounds[lane.index], sv_bounds[lane.index + 1])
            if sl.stop > sl.start:
                synced[sl] = sync_coins(mirrors[sl], lane.ps, lane.rng)
        fresh = synced.copy()
        fresh[np.arange(vert_sv.size, dtype=np.int64), row_master] = True
        lane_sync = count_marks_by_key(
            lane_sv * num_machines + row_master,
            synced,
            num_lanes * num_machines,
        ).reshape(num_lanes, num_machines, num_machines)
        return fresh, lane_sync

    # ------------------------------------------------------------------
    def _draw_repair(
        self,
        live: list[_Lane],
        lane_sv: np.ndarray,
        vert_sv: np.ndarray,
        bad: np.ndarray,
        g_count: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """At-Least-One-Out-Edge repair (Example 10) of the rows ``bad``.

        Enables one uniform group per stranded frontier row, drawn from
        the row's lane rng exactly like its run alone, and returns the
        chosen *global* group index (``vertex_ptr[v] + pick``) per row
        plus the per-lane repair record matrices.
        """
        tables = self.tables
        pick = np.empty(bad.size, dtype=np.int64)
        bad_lanes = lane_sv[bad]
        for lane in live:
            lo, hi = np.searchsorted(bad_lanes, [lane.index, lane.index + 1])
            if hi > lo:
                pick[lo:hi] = (
                    lane.rng.random(hi - lo) * g_count[bad[lo:hi]]
                ).astype(np.int64)
        chosen = tables.vertex_ptr[vert_sv[bad]] + pick
        machines = tables.group_machine[chosen]
        sources = tables.masters[vert_sv[bad]].astype(np.int64)
        remote = machines != sources
        return chosen, self._pair_matrices(
            bad_lanes[remote], sources[remote], machines[remote]
        )

    # ------------------------------------------------------------------
    def _superstep(
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
        while every deterministic pass runs once over the total work.
        Returns the next frontier, or None once every population has
        died out.
        """
        state = self.state
        num_lanes = len(self.lanes)
        passes = self._passes

        lane_ids, verts, k = self._begin_superstep(step, frontier)
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

        # ---------------- apply(): per-lane death coins ----------------
        dead = np.empty(lane_ids.size, dtype=np.int64)
        for lane in live:
            sl = slice(bounds[lane.index], bounds[lane.index + 1])
            dead[sl] = lane.rng.binomial(k[sl], self.config.p_teleport)
            lane.ledger.charge_ops(int(k[sl].sum()))
        apply_ops, stop_keys, stop_counts = passes.apply(
            lane_ids, verts, dead, k
        )
        state.charge_many(apply_ops, phase="apply")
        self._stops.append((stop_keys, stop_counts))

        survivors = k - dead
        moving = survivors > 0
        if moving.any():
            next_frontier = self._scatter(
                live, lane_ids[moving], verts[moving], survivors[moving]
            )
        else:
            empty = np.empty(0, dtype=np.int64)
            next_frontier = (empty, empty, empty)
        self._close_superstep(live)
        return next_frontier

    def _scatter(
        self,
        live: list[_Lane],
        lane_sv: np.ndarray,
        vert_sv: np.ndarray,
        k_sv: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sync + repair + scatter over the concatenated frontier.

        Every random draw (sync coins, repair picks, hop draws) is made
        here, per lane, with the call, shape and order of the lane's
        standalone run; everything between the draws is a deterministic
        pass of ``self._passes``.  Returns the next frontier as
        sorted-unique ``(lane, vertex, count)`` arrays.
        """
        cfg = self.config
        passes = self._passes
        n = self.state.num_vertices
        num_machines = self.state.num_machines
        num_lanes = len(self.lanes)
        empty = np.empty(0, dtype=np.int64)
        sv_bounds = np.concatenate(
            [[0], np.cumsum(np.bincount(lane_sv, minlength=num_lanes))]
        )

        # -------- <sync>: per-lane ps coins ----------------------------
        fresh, lane_sync = self._draw_sync(live, lane_sv, vert_sv, sv_bounds)
        _charge_stack(live, lane_sync, with_ops=True)

        # -------- enabled groups of the concatenated frontier ----------
        groups_per_row, g_count = passes.enabled_groups(
            lane_sv, vert_sv, fresh
        )
        stranded = groups_per_row == 0
        repair_records = np.zeros(
            (num_machines, num_machines), dtype=np.int64
        )
        # Frogs that stay put, as (lane * n + vertex) keys and counts.
        idle_keys = None
        idle_weights = None
        if stranded.any():
            bad = np.flatnonzero(stranded)
            # Nothing can be enabled for a stranded row under
            # independent erasures, nor for a dangling vertex (no
            # out-groups) under the at-least-one repair: its frogs idle
            # in place this step, awaiting teleportation.
            if self.erasure.repairs_empty:
                dangling = g_count[bad] == 0
                idle, bad = bad[dangling], bad[~dangling]
            else:
                idle, bad = bad, bad[:0]
            if idle.size:
                idle_keys = lane_sv[idle] * n + vert_sv[idle]
                idle_weights = k_sv[idle]
                k_sv = k_sv.copy()
                k_sv[idle] = 0
            if bad.size:
                chosen, lane_repair = self._draw_repair(
                    live, lane_sv, vert_sv, bad, g_count
                )
                passes.force_groups(bad, chosen)
                _charge_stack(live, lane_repair, with_ops=True)
                repair_records = lane_repair.sum(axis=0)
        edge_counts, machine_groups, lane_groups = passes.enabled_totals()

        # -------- scatter(): per-lane hop coins, one expansion ---------
        hop_keys = empty
        hop_weights = None
        rec_lane = rec_host = rec_dest = empty
        scatter_ops = np.zeros(num_machines, dtype=np.int64)
        hops_per_lane = np.zeros(num_lanes, dtype=np.int64)
        if cfg.scatter_mode == "multinomial":
            # Split each row's K frogs uniformly over its enabled edges.
            k_send = np.where(edge_counts > 0, k_sv, 0)
            per_lane = np.bincount(
                lane_sv, weights=k_send, minlength=num_lanes
            ).astype(np.int64)
            total = int(k_send.sum())
            if total:
                draw = np.empty(total, dtype=np.float64)
                draw_bounds = np.concatenate([[0], np.cumsum(per_lane)])
                for lane in live:
                    lo = draw_bounds[lane.index]
                    hi = draw_bounds[lane.index + 1]
                    if hi > lo:
                        draw[lo:hi] = lane.rng.random(hi - lo)
                rec_dest, rec_host, rec_lane, hop_keys, scatter_ops = (
                    passes.expand_multinomial(k_send, edge_counts, draw)
                )
                hops_per_lane = per_lane
        else:
            # Paper pseudocode: Bin(K, 1/(d_out ps)) per enabled edge.
            total_edges = int(edge_counts.sum())
            if total_edges:
                chosen, k_per_edge, prob, edge_lane = passes.expand_binomial(
                    k_sv, edge_counts, self._lane_ps
                )
                sent = np.empty(total_edges, dtype=np.int64)
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

        # CPU: one op per hopped frog on the hosting machine, one per
        # enabled group for the mirror's scatter dispatch.
        scatter_ops = scatter_ops + machine_groups
        for lane in live:
            lane.ledger.charge_ops(
                int(hops_per_lane[lane.index])
                + int(lane_groups[lane.index])
            )

        # -------- frog records: combined per (lane, host, dest) --------
        frog_records = np.zeros((num_machines, num_machines), dtype=np.int64)
        if rec_dest.size:
            lane_frog = passes.frog_records(rec_lane, rec_host, rec_dest)
            frog_records = lane_frog.sum(axis=0)
            _charge_stack(live, lane_frog, with_ops=False)

        # -------- physical flush: whole batch, once per round ----------
        self._flush_round(
            lane_sync.sum(axis=0), repair_records, frog_records,
            scatter_ops.astype(np.int64),
        )
        hop_keys, hop_weights = self._deliver(
            rec_dest, rec_host, hop_keys, hop_weights
        )
        return passes.reduce_frontier(
            hop_keys, hop_weights, idle_keys, idle_weights
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
        cfg = self.config
        attributed = sum(
            lane.ledger.standalone_network_bytes() for lane in self.lanes
        )
        return state.report(
            f"frogwild-batched(B={len(self.lanes)},ps={cfg.ps:g})",
            {
                "batch_size": float(len(self.lanes)),
                "total_frogs": float(
                    sum(lane.num_frogs for lane in self.lanes)
                ),
                "attributed_network_bytes": float(attributed),
                "ps": float(cfg.ps),
                "replication_factor": state.replication.replication_factor(),
                "sync_records": float(self.record_totals["sync"]),
                "repair_records": float(self.record_totals["repair"]),
                "frog_records": float(self.record_totals["frog"]),
            },
        )


def merge_shard_results(lanes: Sequence[FrogWildResult]) -> FrogWildResult:
    """Merge per-shard results of *one* query into a single result.

    The sharded serving backends split a query's frog budget across
    shard sub-clusters; because frogs are independent, the merged
    counters (:meth:`~repro.core.PageRankEstimate.merge`, a merge of
    the shards' ``(id, count)`` records into one estimate) are
    exactly the counters a single run of the full budget would have
    produced in distribution.  Every lane must be a batch lane: its
    ledger carries the attribution, which merges the same way the
    hardware would bill it:

    * ``network_bytes`` and ``cpu_seconds`` **add** — every shard's
      traffic and work is real and owed to this query;
    * ``total_time_s`` and ``supersteps`` take the **max** — shards
      advance concurrently, so the query waits for the slowest one.
    """
    if not lanes:
        raise ConfigError("need at least one shard result to merge")
    if len(lanes) == 1:
        return lanes[0]
    if any(lane.ledger is None for lane in lanes):
        raise ConfigError("only batch lanes, which carry a ledger, merge")
    estimate = PageRankEstimate.merge([lane.estimate for lane in lanes])
    reports = [lane.report for lane in lanes]
    # Attribution merges at the ledger level: records, messages and
    # CPU ops add, supersteps take the max.
    ledger = replace(lanes[0].ledger)
    for lane in lanes[1:]:
        ledger.merge(lane.ledger)
    supersteps = ledger.supersteps
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
        network_bytes=ledger.standalone_network_bytes(),
        cpu_seconds=sum(report.cpu_seconds for report in reports),
        extra=extra,
    )
    return FrogWildResult(estimate, merged, lanes[0].state, ledger)


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
    let this build one.  The run is the one-lane batch of
    :meth:`BatchedFrogWildRunner.run_single`.
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
    else:
        state.check_graph(graph)
    return BatchedFrogWildRunner(state, config, [BatchQuery()]).run_single()


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
) -> BatchedFrogWildResult:
    """Run a batch of FrogWild queries through one shared traversal.

    Mirrors :func:`repro.core.run_frogwild`: pass a prebuilt ``state``
    to reuse an ingress across batches (the serving layer does), or let
    this build one.
    """
    config = config or FrogWildConfig()
    if state is None:
        # Refuse a bad seed set before paying for the ingress.
        for query in queries:
            if query.seeds is not None:
                check_seed_set(query.seeds, query.weights, graph.num_vertices)
        state = build_cluster(
            graph,
            num_machines,
            partitioner=partitioner,
            cost_model=cost_model,
            size_model=size_model,
            seed=config.seed,
            partition=partition,
        )
    else:
        state.check_graph(graph)
    return BatchedFrogWildRunner(state, config, queries).run()
