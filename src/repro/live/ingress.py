"""Incremental edge-placement maintenance for a churning graph.

The paper excludes ingress from its measurements because PowerGraph
pays it once; a *live* serving stack cannot — every refresh of the
served snapshot needs the new edge set placed across machines.
Re-partitioning from scratch per refresh would swamp the savings of a
fast approximation, so :class:`IncrementalIngress` maintains the
placement *incrementally*: edges are placed by the deterministic
endpoint-pair hash of :func:`~repro.cluster.stable_hash_machines`, so
an edge that survives churn keeps its machine and a refresh only pays
for the edges that actually changed.  The class tracks exactly how
much it reused (the honesty metric the serving benchmarks assert on).

Determinism gives a strong invariant, pinned by the test suite: after
*any* sequence of deltas, the maintained placement is identical to a
from-scratch :func:`~repro.dynamic.stable_hash_partition` of the
current edge set under the ingress's current salt.

Hash placement is uniform but not adaptive: adversarial or heavily
skewed churn can drift the per-machine load.  When
:meth:`EdgePartition.load_imbalance` exceeds ``rebalance_threshold``
the ingress falls back to a **full repartition**: it re-salts the hash
(a fresh deterministic stream) and replaces every placement, paying
full ingress cost once to restore statistical balance.

Placement is only half the refresh cost: each machine also keeps the
*derived* master/mirror and machine-grouped adjacency structures
(:class:`~repro.cluster.ReplicationTable`).  :class:`IncrementalReplication`
maintains those the same way — delta by delta from the placement diff,
re-sorting only the edges of vertices whose incident edge set or
machine assignment changed and splicing everything else — with the same
style of pinned invariant: the maintained table is structurally
equivalent to a from-scratch build of the current snapshot.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..cluster import (
    EdgePartition,
    ReplicationTable,
    placement_diff,
    stable_hash_machines,
)
from ..core import RefreshPolicy
from ..core.frogwild import prime_ingress_caches
from ..dynamic import DynamicDiGraph, GraphDelta
from ..errors import ConfigError
from ..graph import DiGraph

__all__ = [
    "IngressUpdate",
    "IncrementalIngress",
    "ReplicationPatch",
    "IncrementalReplication",
]


@dataclass(frozen=True)
class IngressUpdate:
    """Placement-maintenance record of one reconciliation step."""

    step: int
    num_edges: int
    new_placements: int
    removed_placements: int
    reused_placements: int
    reuse_ratio: float
    load_imbalance: float
    full_repartition: bool
    salt: int


class IncrementalIngress:
    """Maintains a per-machine edge placement for a live graph.

    Parameters
    ----------
    graph:
        The live graph store whose edges are being placed — any
        :class:`~repro.store.GraphStore` (a
        :class:`~repro.dynamic.DynamicDiGraph`, a disk-backed
        :class:`~repro.store.SegmentStore`, ...).  The ingress reads
        the store's current edge set on every :meth:`sync`; it never
        mutates the store except through :meth:`apply`.
    num_machines:
        Target (sub-)cluster size.
    seed:
        Base hash salt; distinct seeds yield independent placements
        (sharded deployments run one ingress per shard under distinct
        seeds).
    rebalance_threshold:
        Max/mean edge-load ratio beyond which the ingress re-salts and
        fully repartitions.  ``None`` disables the fallback.
    """

    def __init__(
        self,
        graph: DynamicDiGraph,
        num_machines: int,
        seed: int | None = 0,
        rebalance_threshold: float | None = 2.0,
    ) -> None:
        if num_machines < 1:
            raise ConfigError("num_machines must be positive")
        if rebalance_threshold is not None and rebalance_threshold <= 1.0:
            raise ConfigError(
                "rebalance_threshold must exceed 1.0 (perfect balance) "
                "or be None to disable the fallback"
            )
        from ..store import as_graph_store

        self.graph = as_graph_store(graph)
        self.num_machines = num_machines
        self.seed = 0 if seed is None else int(seed)
        self.rebalance_threshold = rebalance_threshold
        self.full_repartitions = 0
        self.updates: list[IngressUpdate] = []
        self._step = 0
        self._keys = self._graph_keys()
        self._machines = stable_hash_machines(
            self._keys, num_machines, self.salt
        )

    # ------------------------------------------------------------------
    @property
    def salt(self) -> int:
        """Current hash salt; bumps deterministically per repartition."""
        return self.seed + 1_000_003 * self.full_repartitions

    @property
    def num_edges(self) -> int:
        return int(self._keys.size)

    def _graph_keys(self) -> np.ndarray:
        """The store's current edge keys, sorted ascending."""
        return np.asarray(self.graph.edge_keys(), dtype=np.int64)

    def machine_keys(self, machine: int) -> np.ndarray:
        """One machine's placed edge keys via a window-pruned scan.

        The window carries this ingress's exact ``(num_machines,
        salt)`` placement, so a :class:`~repro.store.SegmentStore`
        whose layout matches answers from that machine's segments alone
        — the shard-local read path that never streams another shard's
        edges.  Exactness is the store contract; equality with the
        maintained placement additionally requires that no edge
        predates the current salt (i.e. after any full repartition the
        next :meth:`sync` has run), which holds for every caller inside
        the refresh pipeline.
        """
        from ..store import Window

        return self.graph.scan(
            Window(
                0,
                self.graph.num_vertices,
                machine=int(machine),
                num_machines=self.num_machines,
                salt=self.salt,
            )
        )

    # ------------------------------------------------------------------
    def apply(self, delta: GraphDelta) -> IngressUpdate:
        """Apply one delta to the graph, then reconcile the placement."""
        self.graph.apply(delta)
        return self.sync()

    def sync(self) -> IngressUpdate:
        """Reconcile the placement with the graph's current edge set.

        Only touched edges move: surviving edges keep their machine (a
        pure array intersection), fresh edges are hashed in, vanished
        edges are dropped.  If the resulting load imbalance exceeds the
        threshold, fall back to a full re-salted repartition.
        """
        keys = self._graph_keys()
        survived = np.isin(keys, self._keys, assume_unique=True)
        fresh = keys[~survived]
        machines = np.empty(keys.size, dtype=np.int32)
        if survived.any():
            positions = np.searchsorted(self._keys, keys[survived])
            machines[survived] = self._machines[positions]
        machines[~survived] = stable_hash_machines(
            fresh, self.num_machines, self.salt
        )
        reused = int(survived.sum())
        removed = int(self._keys.size) - reused
        self._keys = keys
        self._machines = machines

        imbalance = self.load_imbalance()
        full = (
            self.rebalance_threshold is not None
            and keys.size > 0
            and imbalance > self.rebalance_threshold
        )
        if full:
            self._full_repartition()
            imbalance = self.load_imbalance()

        update = IngressUpdate(
            step=self._step,
            num_edges=int(keys.size),
            new_placements=int(keys.size) if full else int(fresh.size),
            removed_placements=removed,
            reused_placements=0 if full else reused,
            reuse_ratio=(
                0.0 if full else reused / keys.size if keys.size else 1.0
            ),
            load_imbalance=imbalance,
            full_repartition=full,
            salt=self.salt,
        )
        self.updates.append(update)
        self._step += 1
        return update

    def _full_repartition(self) -> None:
        """Re-salt the hash and replace every placement."""
        self.full_repartitions += 1
        self._machines = stable_hash_machines(
            self._keys, self.num_machines, self.salt
        )

    # ------------------------------------------------------------------
    def partition(self) -> EdgePartition:
        """The maintained placement over the live edge set (key order)."""
        return EdgePartition(self._machines.copy(), self.num_machines)

    def partition_for(self, snapshot: DiGraph) -> EdgePartition:
        """Placement aligned with ``snapshot``'s CSR edge order.

        Snapshot edges that exist in the live graph reuse their
        maintained machine; edges the snapshot added on its own (the
        dangling-vertex self-loop repairs of
        :meth:`~repro.dynamic.DynamicDiGraph.snapshot`) hash to the same
        deterministic placement, so the result is byte-identical to a
        from-scratch stable-hash partition of the snapshot.
        """
        n = snapshot.num_vertices
        if n != self.graph.num_vertices:
            raise ConfigError(
                "snapshot vertex count does not match the live graph"
            )
        keys = snapshot.edge_sources().astype(np.int64) * n + snapshot.indices
        machines = np.empty(keys.size, dtype=np.int32)
        positions = np.searchsorted(self._keys, keys)
        positions = np.minimum(positions, max(self._keys.size - 1, 0))
        known = (
            (self._keys[positions] == keys)
            if self._keys.size
            else np.zeros(keys.size, dtype=bool)
        )
        machines[known] = self._machines[positions[known]]
        machines[~known] = stable_hash_machines(
            keys[~known], self.num_machines, self.salt
        )
        return EdgePartition(machines, self.num_machines)

    # ------------------------------------------------------------------
    def load_imbalance(self) -> float:
        """Max / mean per-machine edge load of the current placement."""
        return EdgePartition(
            self._machines, self.num_machines
        ).load_imbalance()

    def lifetime_reuse_ratio(self) -> float:
        """Reused placements over total placements across all syncs."""
        placed = sum(
            u.reused_placements + u.new_placements for u in self.updates
        )
        if placed == 0:
            return 1.0
        return sum(u.reused_placements for u in self.updates) / placed

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"IncrementalIngress(m={self.num_edges}, "
            f"machines={self.num_machines}, salt={self.salt}, "
            f"repartitions={self.full_repartitions})"
        )


@dataclass(frozen=True)
class RefreshPlan:
    """Everything one :meth:`IncrementalReplication.refresh` decided.

    The plan/apply split exists so the patch *computation* can run
    somewhere else — e.g. on the shard's own worker process through
    :meth:`~repro.serving.ProcessPoolBackend.patch_tables` — while the
    bookkeeping (placement diff, rebuild gating, history) stays with
    the replicator.  ``full`` plans always apply locally (a rebuild is
    a from-scratch construction, not a patch).
    """

    #: Sorted edge keys (``src * n + dst``) of the target snapshot.
    keys: np.ndarray
    #: Maintained placement of the target snapshot.
    partition: EdgePartition
    #: Vertices whose replica row / master / adjacency must be redone.
    changed: np.ndarray
    #: Edges changed between the previous and target placements.
    edges_changed: int
    #: Incident-edge regroup work a patch would do (both directions).
    edges_regrouped: int
    #: Whether churn exceeded the policy gate — rebuild, don't patch.
    full: bool
    #: ``time.perf_counter()`` at planning time (patch_time_s anchor).
    start: float


@dataclass(frozen=True)
class ReplicationPatch:
    """Table-maintenance record of one :meth:`IncrementalReplication.refresh`.

    ``vertices_patched`` and ``edges_regrouped`` are the *structure
    rebuild* cost of the step: how many vertices had their replica row,
    master choice and adjacency groups recomputed, and how many edges
    were re-sorted to do it.  The serving benchmarks hold them to the
    incremental contract — O(churned vertices + their incident edges),
    never O(graph) — whenever ``full_rebuild`` is False.
    """

    step: int
    num_edges: int
    edges_changed: int
    vertices_patched: int
    edges_regrouped: int
    full_rebuild: bool
    patch_time_s: float


class IncrementalReplication:
    """Maintains one (sub-)cluster's :class:`ReplicationTable` under churn.

    Wraps an :class:`IncrementalIngress` and keeps the *derived*
    structures — replica bitmap, master choices, machine-grouped
    adjacency, and the per-ingress kernel-table cache — in lockstep with
    the maintained placement, snapshot by snapshot.  Each
    :meth:`refresh` diffs the new snapshot's placement against the
    previous one (:func:`~repro.cluster.placement_diff`), patches only
    the vertices the diff touches
    (:meth:`~repro.cluster.ReplicationTable.patched`), and pre-seeds the
    new table's ingress cache (kernel tables + mirror bitmap) so the
    first batch of the next epoch starts warm.

    The pinned invariant, tested after arbitrary delta sequences: the
    maintained table is structurally equivalent
    (:meth:`~repro.cluster.ReplicationTable.structurally_equal`) to
    ``ReplicationTable(snapshot, ingress.partition_for(snapshot), seed)``
    built from scratch.  Master equivalence relies on the deterministic
    noise stream of
    :meth:`~repro.cluster.ReplicationTable.master_noise`, so it holds
    for integer seeds; with ``seed=None`` the maintained masters remain
    a valid uniform choice but are not reproducible by a rebuild.

    Tables are never mutated in place: a refresh produces a *new* table
    (sharing spliced arrays' contents, not their buffers), so epochs
    still serving the previous table are unaffected — the property the
    background refresh pipeline depends on.
    """

    def __init__(
        self,
        ingress: IncrementalIngress,
        snapshot: DiGraph,
        seed: int | None = 0,
        policy: RefreshPolicy | None = None,
    ) -> None:
        self.ingress = ingress
        self.seed = seed
        self.policy = policy or RefreshPolicy()
        self.history: list[ReplicationPatch] = []
        self.full_rebuilds = 0
        self._step = 0
        self._noise = ReplicationTable.master_noise(
            snapshot.num_vertices, ingress.num_machines, seed
        )
        self.table = self._rebuild(
            snapshot, *self._snapshot_placement(snapshot)
        )

    # ------------------------------------------------------------------
    def _snapshot_placement(
        self, snapshot: DiGraph
    ) -> tuple[np.ndarray, EdgePartition]:
        """Canonical keys of a store snapshot and its aligned placement."""
        return snapshot.edge_keys(), self.ingress.partition_for(snapshot)

    def _rebuild(
        self, snapshot: DiGraph, keys: np.ndarray, partition: EdgePartition
    ) -> ReplicationTable:
        """From-scratch table over ``snapshot``'s placement
        (``keys`` / ``partition`` as :meth:`_snapshot_placement` gives)."""
        table = ReplicationTable(snapshot, partition, seed=self.seed)
        prime_ingress_caches(table, snapshot)
        self._snap_keys = keys
        self._snap_machines = partition.edge_machine
        return table

    # ------------------------------------------------------------------
    def plan_refresh(self, snapshot: DiGraph) -> RefreshPlan:
        """Diff ``snapshot`` against the maintained placement.

        Pure planning — nothing is mutated.  The returned
        :class:`RefreshPlan` says whether a patch suffices (and for
        which vertices) or churn crossed the
        ``policy.full_rebuild_fraction`` gate; feed it to
        :meth:`apply_plan`, optionally with a table somebody else
        already patched from it.
        """
        start = time.perf_counter()
        n = snapshot.num_vertices
        if n != self.table.graph.num_vertices:
            raise ConfigError(
                "snapshot vertex count does not match the maintained table"
            )
        keys, partition = self._snapshot_placement(snapshot)
        diff = placement_diff(
            self._snap_keys, self._snap_machines, keys, partition.edge_machine
        )
        changed = diff.changed_vertices(n)
        touched = np.zeros(n, dtype=bool)
        touched[changed] = True
        src = snapshot.edge_sources()
        dst = snapshot.indices
        # Projected regroup work: the incident edges of every touched
        # vertex, once per grouping direction.  On power-law graphs a
        # few churned hub edges can touch hubs owning most of the edge
        # set, so the rebuild fallback gates on this — the actual work a
        # patch would do — not on the changed-key count; 2m is what a
        # from-scratch build regroups.
        edges_regrouped = int(touched[src].sum() + touched[dst].sum())
        full = edges_regrouped > self.policy.full_rebuild_fraction * 2 * max(
            keys.size, 1
        )
        return RefreshPlan(
            keys=keys,
            partition=partition,
            changed=changed,
            edges_changed=diff.num_changed,
            edges_regrouped=edges_regrouped,
            full=full,
            start=start,
        )

    def apply_plan(
        self,
        snapshot: DiGraph,
        plan: RefreshPlan,
        table: ReplicationTable | None = None,
    ) -> ReplicationPatch:
        """Adopt ``snapshot`` per ``plan`` and record the patch.

        With ``table=None`` the patch is computed here (the serial
        path).  A caller that already computed the patched table
        elsewhere — a shard worker holding the same structurally-equal
        old table, the cached noise and the plan's inputs — passes it
        in and only the bookkeeping runs; remotely patched tables skip
        :func:`prime_ingress_caches` because the processes that will
        execute on them prime their own mapped copies at attach time.
        ``full`` plans ignore ``table`` and rebuild from scratch.
        """
        n = snapshot.num_vertices
        if plan.full:
            self.table = self._rebuild(snapshot, plan.keys, plan.partition)
            self.full_rebuilds += 1
            vertices_patched = n
            edges_regrouped = 2 * int(plan.keys.size)
        else:
            vertices_patched = int(plan.changed.size)
            edges_regrouped = plan.edges_regrouped
            if table is None:
                table = self.table.patched(
                    snapshot, plan.partition, plan.changed, self._noise
                )
                prime_ingress_caches(table, snapshot)
            self.table = table
            self._snap_keys = plan.keys
            self._snap_machines = plan.partition.edge_machine
        patch = ReplicationPatch(
            step=self._step,
            num_edges=int(plan.keys.size),
            edges_changed=plan.edges_changed,
            vertices_patched=vertices_patched,
            edges_regrouped=edges_regrouped,
            full_rebuild=plan.full,
            patch_time_s=time.perf_counter() - plan.start,
        )
        self.history.append(patch)
        self._step += 1
        return patch

    def refresh(self, snapshot: DiGraph) -> ReplicationPatch:
        """Bring the table to ``snapshot``; patch, or rebuild if churn
        exceeds ``policy.full_rebuild_fraction`` of the edge set."""
        return self.apply_plan(snapshot, self.plan_refresh(snapshot))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"IncrementalReplication(m={self.table.graph.num_edges}, "
            f"machines={self.ingress.num_machines}, "
            f"patches={len(self.history)}, rebuilds={self.full_rebuilds})"
        )
