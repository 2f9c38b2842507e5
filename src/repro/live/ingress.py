"""Edge placement and replication tables for a churning graph.

The paper excludes ingress from its measurements because PowerGraph
pays it once; a *live* serving stack cannot — every refresh of the
served snapshot needs the new edge set placed across machines.
:class:`IncrementalIngress` places edges by the deterministic
endpoint-pair hash of :func:`~repro.cluster.stable_hash_machines`, so
an edge that survives churn keeps its machine and a deployment ships
only the edges that actually changed.  The class tracks exactly how
much it reused (the honesty metric ``tests/test_live_ingress.py``
asserts on).

Because the hash is stateless, the placement is a *function of the
snapshot*: after any sequence of deltas it is, by construction, a
from-scratch ``make_partitioner("stable-hash", salt)`` placement of the
current edge set under the ingress's current salt.  Nothing is carried
from one refresh to the next except the previous key set, which the
survivor count reads — hashing every key again is cheaper than looking
the survivors up in carried state (README, "What a refresh costs").

Hash placement is uniform but not adaptive: adversarial or heavily
skewed churn can drift the per-machine load.  When
:meth:`EdgePartition.load_imbalance` exceeds ``rebalance_threshold``
the ingress falls back to a **full repartition**: it re-salts the hash
(a fresh deterministic stream) and replaces every placement, paying
full ingress cost once to restore statistical balance.

Placement is only half the refresh cost: each machine also keeps the
*derived* master/mirror and machine-grouped adjacency structures
(:class:`~repro.cluster.ReplicationTable`).
:class:`IncrementalReplication` owns one (sub-)cluster's table and
builds the next one from each snapshot — always from scratch: patching
the previous table never measured cheaper than rebuilding it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..cluster import EdgePartition, ReplicationTable, stable_hash_machines
from ..core.frogwild import prime_ingress_caches
from ..dynamic import DynamicDiGraph, GraphDelta
from ..errors import ConfigError
from ..graph import DiGraph
from ..graph.keys import count_common, drop_sorted

__all__ = [
    "IngressUpdate",
    "IncrementalIngress",
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
    """Places a live graph's edges across machines, refresh by refresh.

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
        #: Running totals over every :meth:`sync` (each returns its own
        #: :class:`IngressUpdate`; none is kept).
        self.new_placements = 0
        self.reused_placements = 0
        self._step = 0
        self._keys = np.asarray(self.graph.edge_keys(), dtype=np.int64)
        self._placed: tuple | None = None

    # ------------------------------------------------------------------
    @property
    def salt(self) -> int:
        """Current hash salt; bumps deterministically per repartition."""
        return self.seed + 1_000_003 * self.full_repartitions

    @property
    def num_edges(self) -> int:
        return int(self._keys.size)

    # ------------------------------------------------------------------
    def apply(self, delta: GraphDelta) -> IngressUpdate:
        """Apply one delta to the graph, then reconcile the placement."""
        self.graph.apply(delta)
        return self.sync()

    def sync(self) -> IngressUpdate:
        """Reconcile the placement with the graph's current edge set.

        Every current key is placed by the stateless hash; the previous
        key set is read only to count survivors (the edges a deployment
        would not re-ship).  If the resulting load imbalance exceeds the
        threshold, fall back to a full re-salted repartition.
        """
        keys = np.asarray(self.graph.edge_keys(), dtype=np.int64)
        reused = count_common(keys, self._keys)
        removed = int(self._keys.size) - reused
        self._keys = keys

        imbalance = self.load_imbalance()
        full = (
            self.rebalance_threshold is not None
            and keys.size > 0
            and imbalance > self.rebalance_threshold
        )
        if full:
            # Re-salt: every placement is replaced by the new stream.
            self.full_repartitions += 1
            imbalance = self.load_imbalance()

        update = IngressUpdate(
            step=self._step,
            num_edges=int(keys.size),
            new_placements=int(keys.size) if full else int(keys.size) - reused,
            removed_placements=removed,
            reused_placements=0 if full else reused,
            reuse_ratio=(
                0.0 if full else reused / keys.size if keys.size else 1.0
            ),
            load_imbalance=imbalance,
            full_repartition=full,
            salt=self.salt,
        )
        self.new_placements += update.new_placements
        self.reused_placements += update.reused_placements
        self._step += 1
        return update

    # ------------------------------------------------------------------
    def partition(self) -> EdgePartition:
        """The placement of the live edge set (key order), hashed once
        per ``(key array, salt)``."""
        keys, salt, placed = self._keys, self.salt, self._placed
        if placed is None or placed[0] is not keys or placed[1] != salt:
            machines = stable_hash_machines(keys, self.num_machines, salt)
            machines.flags.writeable = False  # every caller shares it
            placed = keys, salt, EdgePartition(machines, self.num_machines)
            self._placed = placed
        return placed[2]

    def partition_for(self, snapshot: DiGraph) -> EdgePartition:
        """Placement aligned with ``snapshot``'s CSR edge order.

        The same hash over the snapshot's own keys, so the edges a
        snapshot added on its own (the dangling-vertex self-loop repairs
        of :meth:`~repro.dynamic.DynamicDiGraph.snapshot`) place like
        everything else: a from-scratch stable-hash partition of the
        snapshot under the current salt.  A snapshot of the synced keys
        takes :meth:`partition` and hashes only its repair loops.
        """
        n, own = snapshot.num_vertices, self._keys
        if n != self.graph.num_vertices:
            raise ConfigError(
                "snapshot vertex count does not match the live graph"
            )
        # Repair loops: rows that are exactly [v] whose key is not ours.
        rows = np.flatnonzero(np.diff(snapshot.indptr) == 1)
        rows = rows[snapshot.indices[snapshot.indptr[rows]] == rows]
        loops = drop_sorted(rows * (n + 1), own)
        slots = np.searchsorted(own, loops)
        keys = snapshot.edge_sources() * n + snapshot.indices
        synced = np.array_equal(np.insert(own, slots, loops), keys)
        machines = stable_hash_machines(
            loops if synced else keys, self.num_machines, self.salt
        )
        if synced:
            machines = np.insert(self.partition().edge_machine, slots, machines)
        return EdgePartition(machines, self.num_machines)

    # ------------------------------------------------------------------
    def load_imbalance(self) -> float:
        """Max / mean per-machine edge load of the current placement."""
        return self.partition().load_imbalance()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"IncrementalIngress(m={self.num_edges}, "
            f"machines={self.num_machines}, salt={self.salt}, "
            f"repartitions={self.full_repartitions})"
        )


class IncrementalReplication:
    """Owns one (sub-)cluster's :class:`ReplicationTable` under churn.

    Wraps an :class:`IncrementalIngress` and keeps the *derived*
    structures — replica bitmap, master choices, machine-grouped
    adjacency, and the per-ingress kernel-table cache — in lockstep with
    the placement, snapshot by snapshot.  Each :meth:`refresh` places
    the new snapshot, builds its table from scratch, and pre-seeds the
    table's ingress cache (kernel tables + mirror bitmap) so the first
    batch of the next epoch starts warm.  The table is a function of
    ``(snapshot, salt, seed)`` alone: a refresh that raises leaves
    nothing half-updated, and the next one starts from the snapshot.

    Tables are never mutated in place: a refresh produces a *new* table,
    so epochs still serving the previous one are unaffected — the
    property a refresh concurrent with queries depends on.
    """

    def __init__(
        self,
        ingress: IncrementalIngress,
        snapshot: DiGraph,
        seed: int | None = 0,
    ) -> None:
        self.ingress = ingress
        self.seed = seed
        self.table = self.refresh(snapshot)

    # ``bench/`` times a refresh as these two halves by name; folding
    # them into :meth:`refresh` waits for a benchmark-only change.
    def plan_refresh(self, snapshot: DiGraph) -> EdgePartition:
        """Place ``snapshot``: the first half of :meth:`refresh`."""
        return self.ingress.partition_for(snapshot)

    def apply_plan(
        self, snapshot: DiGraph, plan: EdgePartition
    ) -> ReplicationTable:
        """Build and adopt the table of ``snapshot`` placed by ``plan``."""
        table = ReplicationTable(snapshot, plan, seed=self.seed)
        prime_ingress_caches(table, snapshot)
        self.table = table
        return table

    def refresh(self, snapshot: DiGraph) -> ReplicationTable:
        """Bring the table to ``snapshot``: place, build, prime."""
        return self.apply_plan(snapshot, self.plan_refresh(snapshot))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"IncrementalReplication(m={self.table.graph.num_edges}, "
            f"machines={self.ingress.num_machines})"
        )
