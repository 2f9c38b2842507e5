"""Shared mutable state of a running simulated-cluster computation.

A :class:`ClusterState` bundles the graph, its replication tables and
the cost and message-size models, and keeps the run's one bill: bytes
and messages by record kind, CPU ops by phase, supersteps and simulated
time.  Every algorithm writes it through three primitives:

* :meth:`charge_many` — a per-machine CPU ops vector of one phase,
* :meth:`send_pair_matrix` — one batched message per machine pair with
  records to send,
* :meth:`end_superstep` — close the BSP barrier: price this step's
  per-machine traffic and work into simulated time and reset the
  per-step sums.

:meth:`report` reads the bill back as a :class:`~repro.engine.RunReport`.
Both the GraphLab PR baseline and the FrogWild runner (which patches
the synchronization behaviour) are built on these primitives, so their
network/CPU/time numbers are directly comparable — the property the
paper's evaluation relies on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..cluster import (
    CostModel,
    EdgePartition,
    MessageSizeModel,
    ReplicationTable,
    make_partitioner,
)
from ..errors import ConfigError, EngineError
from ..graph import DiGraph
from .stats import RunReport

__all__ = ["ClusterState", "build_cluster"]


@dataclass
class ClusterState:
    """All state shared by machines during one computation.

    ``bytes_by_kind``/``messages_by_kind`` count only machine-crossing
    messages (local delivery is free and uncounted); a kind or phase
    appears once something nonzero was billed to it.
    """

    graph: DiGraph
    replication: ReplicationTable
    cost_model: CostModel
    size_model: MessageSizeModel
    bytes_by_kind: dict[str, int] = field(init=False, default_factory=dict)
    messages_by_kind: dict[str, int] = field(init=False, default_factory=dict)
    ops_by_phase: dict[str, int] = field(init=False, default_factory=dict)
    supersteps: int = field(init=False, default=0)
    total_time_s: float = field(init=False, default=0.0)

    def __post_init__(self) -> None:
        machines = self.num_machines
        self._step_sent = np.zeros(machines, dtype=np.int64)
        self._step_received = np.zeros(machines, dtype=np.int64)
        self._step_ops = np.zeros(machines, dtype=np.int64)
        self._step_messages = 0
        # Price an empty step now: a cost model sized for another
        # cluster refuses here, not at the first barrier of a run.
        self.cost_model.superstep_time(
            self._step_sent, self._step_received, self._step_ops
        )

    @property
    def num_machines(self) -> int:
        return self.replication.num_machines

    @property
    def num_vertices(self) -> int:
        return self.graph.num_vertices

    def check_graph(self, graph: DiGraph) -> None:
        """Refuse ``graph`` if this state was built for another graph
        (every entry point taking a graph and a prebuilt state calls it)."""
        mine = (self.graph.num_vertices, self.graph.num_edges)
        theirs = (graph.num_vertices, graph.num_edges)
        if mine != theirs:
            raise ConfigError(
                f"state was built for a graph with {mine[0]} vertices and "
                f"{mine[1]} edges, got {theirs[0]} and {theirs[1]}"
            )

    # ------------------------------------------------------------------
    # Derived-structure cache (per ingress, not per state)
    # ------------------------------------------------------------------
    def ingress_cache(self, key: str, build):
        """Memoize a derived read-only structure on this state's ingress.

        The serving layer builds a *fresh* :class:`ClusterState` per
        dispatched batch (a clean bill per batch) while sharing one
        :class:`~repro.cluster.ReplicationTable`; anything derived
        purely from that ingress — the FrogWild kernel tables, the
        mirror bitmap — is therefore identical across those states.
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
        them, as a machine crash in :mod:`repro.faults` forks the mirror
        bitmap): they are shared across executions.
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
    def charge_many(self, ops_per_machine: np.ndarray, phase: str = "compute") -> None:
        """Charge an ops vector (length ``num_machines``) to ``phase``."""
        ops = np.asarray(ops_per_machine, dtype=np.int64)
        if ops.shape != (self.num_machines,):
            raise EngineError(
                f"ops vector must have shape ({self.num_machines},), "
                f"got {ops.shape}"
            )
        if (ops < 0).any():
            raise EngineError("cannot charge negative ops")
        total = int(ops.sum())
        if total:
            self.ops_by_phase[phase] = self.ops_by_phase.get(phase, 0) + total
            self._step_ops += ops

    def send_pair_matrix(self, records: np.ndarray, kind: str) -> None:
        """Send one batched message per machine pair with records.

        ``records[s, d]`` is the number of records machine ``s`` sends to
        machine ``d`` this superstep.  Each nonzero off-diagonal cell is
        one message of ``message_header_bytes + records * record_bytes``;
        the diagonal is local delivery — free and uncounted.
        """
        records = np.asarray(records)
        if records.shape != (self.num_machines, self.num_machines):
            raise EngineError(
                f"record matrix must be ({self.num_machines}, "
                f"{self.num_machines}), got {records.shape}"
            )
        if (records < 0).any():
            raise EngineError("record counts must be non-negative")
        wire = records.astype(np.int64)
        np.fill_diagonal(wire, 0)
        messages = int(np.count_nonzero(wire))
        if messages == 0:
            return
        size = self.size_model
        nbytes = np.where(
            wire > 0,
            size.message_header_bytes + wire * size.record_bytes(),
            0,
        )
        self.bytes_by_kind[kind] = (
            self.bytes_by_kind.get(kind, 0) + int(nbytes.sum())
        )
        self.messages_by_kind[kind] = (
            self.messages_by_kind.get(kind, 0) + messages
        )
        self._step_sent += nbytes.sum(axis=1)
        self._step_received += nbytes.sum(axis=0)
        self._step_messages += messages

    # ------------------------------------------------------------------
    # Barrier and bill
    # ------------------------------------------------------------------
    def end_superstep(self) -> float:
        """Close the superstep; returns its simulated seconds."""
        seconds = self.cost_model.superstep_time(
            self._step_sent,
            self._step_received,
            self._step_ops,
            self._step_messages,
        ).total_s
        self.supersteps += 1
        self.total_time_s += seconds
        self._step_sent[:] = 0
        self._step_received[:] = 0
        self._step_ops[:] = 0
        self._step_messages = 0
        return seconds

    def report(self, algorithm: str, extra: dict | None = None) -> RunReport:
        """The bill so far as a :class:`RunReport` labelled ``algorithm``."""
        steps = self.supersteps
        return RunReport(
            algorithm=algorithm,
            num_machines=self.num_machines,
            supersteps=steps,
            total_time_s=self.total_time_s,
            time_per_iteration_s=self.total_time_s / steps if steps else 0.0,
            network_bytes=sum(self.bytes_by_kind.values()),
            cpu_seconds=self.cost_model.cpu_seconds(
                sum(self.ops_by_phase.values())
            ),
            extra=dict(extra or {}),
        )


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
    keeping a fresh bill per batch.
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
        cost_model=cost_model or CostModel(),
        size_model=size_model or MessageSizeModel(),
    )
