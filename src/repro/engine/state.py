"""Shared mutable state of a running simulated-cluster computation.

A :class:`ClusterState` bundles the graph, its replication tables, the
network fabric, the machine group and the simulated clock, and provides
the accounting primitives every algorithm uses:

* :meth:`charge` — CPU work on one machine (vectorized variant
  :meth:`charge_many`),
* :meth:`send_batched` — one batched message of N records between two
  machines,
* :meth:`end_superstep` — close the BSP barrier: convert this step's
  traffic and work into simulated time, append a stats row, reset the
  per-step accumulators.

Both the generic BSP engine and the FrogWild runner (which patches the
synchronization behaviour) are built on these primitives, so their
network/CPU/time numbers are directly comparable — the property the
paper's evaluation relies on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..cluster import (
    CostModel,
    EdgePartition,
    MachineGroup,
    MessageSizeModel,
    NetworkFabric,
    ReplicationTable,
    SimulatedClock,
    make_partitioner,
)
from ..errors import EngineError
from ..graph import DiGraph
from .stats import EngineStats

__all__ = ["ClusterState", "build_cluster"]


@dataclass
class ClusterState:
    """All state shared by machines during one computation."""

    graph: DiGraph
    replication: ReplicationTable
    fabric: NetworkFabric
    machines: MachineGroup
    cost_model: CostModel
    clock: SimulatedClock
    stats: EngineStats

    def __post_init__(self) -> None:
        self._step_ops = np.zeros(self.num_machines, dtype=np.int64)
        self._step_messages = 0

    @property
    def num_machines(self) -> int:
        return self.fabric.num_machines

    @property
    def num_vertices(self) -> int:
        return self.graph.num_vertices

    # ------------------------------------------------------------------
    # Derived-structure cache (per ingress, not per state)
    # ------------------------------------------------------------------
    def ingress_cache(self, key: str, build):
        """Memoize a derived read-only structure on this state's ingress.

        The serving layer builds a *fresh* :class:`ClusterState` per
        dispatched batch (clean traffic/CPU/time accounting) while
        sharing one :class:`~repro.cluster.ReplicationTable`; anything
        derived purely from that ingress — the FrogWild kernel tables,
        the mirror bitmap — is therefore identical across those states.
        This memo lives on the replication table itself, so it is built
        once per ingress and reused by every batch, and is dropped
        automatically when a live-graph refresh replaces the table.

        The live refresh pipeline *pre-seeds* this cache: when
        :class:`~repro.live.IncrementalReplication` builds the table of
        a new snapshot it calls
        :func:`repro.core.frogwild.prime_ingress_caches` off the query
        path, so the entries are already warm when the first batch of
        the new epoch arrives.

        Callers must treat cached values as immutable (or copy-on-write
        them, as :meth:`~repro.engine.MirrorSynchronizer.disable_machine`
        does): they are shared across executions.
        """
        cache = getattr(self.replication, "_ingress_cache", None)
        if cache is None:
            cache = {}
            self.replication._ingress_cache = cache
        if key not in cache:
            cache[key] = build()
        return cache[key]

    # ------------------------------------------------------------------
    # Accounting primitives
    # ------------------------------------------------------------------
    def charge(self, machine: int, ops: int, phase: str = "compute") -> None:
        """Charge CPU ops to one machine within the current superstep."""
        self.machines[machine].charge(ops, phase)
        self._step_ops[machine] += ops

    def charge_many(self, ops_per_machine: np.ndarray, phase: str = "compute") -> None:
        """Charge an ops vector (length ``num_machines``) at once."""
        ops_per_machine = np.asarray(ops_per_machine, dtype=np.int64)
        if ops_per_machine.shape != (self.num_machines,):
            raise EngineError(
                f"ops vector must have shape ({self.num_machines},), "
                f"got {ops_per_machine.shape}"
            )
        for machine_id in np.flatnonzero(ops_per_machine):
            self.machines[machine_id].charge(
                int(ops_per_machine[machine_id]), phase
            )
        self._step_ops += ops_per_machine

    def send_batched(self, src: int, dst: int, num_records: int, kind: str) -> None:
        """Send one batched message; no-ops for local or empty batches."""
        self.fabric.send(src, dst, num_records, kind)
        if src != dst and num_records > 0:
            self._step_messages += 1

    def send_pair_matrix(self, records: np.ndarray, kind: str) -> None:
        """Send batched messages for a full (src, dst) record-count matrix.

        ``records[s, d]`` is the number of records machine ``s`` sends to
        machine ``d`` this superstep (diagonal ignored: local is free).
        Delegates to the fabric's vectorized matrix send — one pass over
        the pair matrix instead of a Python call per machine pair.
        """
        records = np.asarray(records)
        if records.shape != (self.num_machines, self.num_machines):
            raise EngineError("record matrix shape mismatch")
        _, messages = self.fabric.send_matrix(records, kind)
        self._step_messages += messages

    # ------------------------------------------------------------------
    # Barrier
    # ------------------------------------------------------------------
    def end_superstep(self, active_vertices: int) -> None:
        """Close the superstep: time accounting + stats row + reset."""
        sent, received = self.fabric.step_traffic()
        cost = self.cost_model.superstep_time(
            sent, received, self._step_ops, self._step_messages
        )
        self.clock.advance(cost)
        self.stats.record_step(
            active=active_vertices,
            bytes_sent=int(sent.sum()),
            cpu_ops=int(self._step_ops.sum()),
            sim_seconds=cost.total_s,
        )
        self.fabric.end_superstep()
        self._step_ops[:] = 0
        self._step_messages = 0


def build_cluster(
    graph: DiGraph,
    num_machines: int,
    partitioner: str = "random",
    cost_model: CostModel | None = None,
    size_model: MessageSizeModel | None = None,
    seed: int | None = 0,
    partition: EdgePartition | None = None,
    replication: ReplicationTable | None = None,
) -> ClusterState:
    """Construct a ready-to-run simulated cluster for ``graph``.

    ``partition`` may be supplied to reuse an ingress across runs (the
    paper excludes ingress from all measurements, and so do we);
    ``replication`` additionally reuses the derived master/mirror tables
    — the serving layer's per-batch states share one such ingress while
    keeping fresh traffic/CPU/time accounting per batch.
    """
    if replication is not None:
        if replication.num_machines != num_machines:
            raise EngineError(
                f"supplied replication targets {replication.num_machines} "
                f"machines, requested {num_machines}"
            )
        if replication.graph.num_vertices != graph.num_vertices:
            raise EngineError(
                "supplied replication was built for a different graph"
            )
    else:
        if partition is None:
            partition = make_partitioner(partitioner, seed).partition(
                graph, num_machines
            )
        elif partition.num_machines != num_machines:
            raise EngineError(
                f"supplied partition targets {partition.num_machines} machines, "
                f"requested {num_machines}"
            )
        replication = ReplicationTable(graph, partition, seed=seed)
    return ClusterState(
        graph=graph,
        replication=replication,
        fabric=NetworkFabric(num_machines, size_model),
        machines=MachineGroup(num_machines),
        cost_model=cost_model or CostModel(),
        clock=SimulatedClock(),
        stats=EngineStats(),
    )
