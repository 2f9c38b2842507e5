"""Master/mirror replication tables derived from a vertex-cut.

Given an :class:`~repro.cluster.partition.EdgePartition`, this module
precomputes what the engine reads per superstep:

* which machines replicate each vertex and which one is the master,
* the out-edges of each vertex grouped by hosting machine — the unit of
  work a *synchronized mirror* performs during scatter, and the only
  grouping FrogWild reads (its gather is empty),
* on first access only, the in-edges grouped the same way — the unit of
  a distributed gather, read by the GraphLab-PR baseline engines.

The module has one sort, :func:`_by_column`: a stable counting sort of
CSR entries by column.  The graph is CSR-ordered already and the keys
are few (machines) or dense (vertices), so a grouping is two passes —
edges machine-major, then anchor-major — that leave the edges in
``np.lexsort((machine, anchor))`` order with the row pointers as a
by-product and no permutation to gather through.  Everything is flat
numpy arrays; the hot loops touch no Python object per edge.

Dtypes.  Every index array a table stores — ``sorted_other``,
``group_start``, ``group_stop``, ``group_anchor``, ``vertex_ptr``,
``anchor_edge_ptr`` and the per-machine master index — passes through
:func:`_narrow`, the one narrowing rule: int32 when every value lies
below ``_INT32_SPAN`` (2**31), int64 otherwise.  Machine ids
(``masters``, ``group_machine``, ``edge_machine_sorted``) are int32.
A table attached from older int64 arrays (a spill, an arena) is
adopted as it is.  Any key built by *scaling* a table array is
computed in int64 — the replica scatter below, and the frog-record
keys of :mod:`repro.core.kernels.fused` — because ``vertex * machines``
wraps in int32 once n·M reaches 2**31; the fused passes also widen the
per-frog ``dest`` / ``host`` arrays right after gathering them, since
numpy converts an int32 index array on every use.  The kernel tables
alias these arrays rather than copy them
(:class:`repro.core.frogwild._KernelTables`).

A live refresh (:class:`~repro.live.IncrementalReplication`) builds a
fresh table per snapshot through this one constructor; tests compare
tables with :meth:`ReplicationTable.structurally_equal`.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
from scipy import sparse

from ..errors import PartitionError
from ..graph import DiGraph
from .partition import EdgePartition

__all__ = ["ReplicationTable"]

_INT32_SPAN = 2**31


def _narrow(array: np.ndarray) -> np.ndarray:
    """``array`` (non-negative integers) as int32 when every value is
    below ``_INT32_SPAN``, else as int64; no copy when it already has
    that dtype.  The one dtype rule of every table index array, the
    dense group tables and the estimates' records."""
    fits = array.size == 0 or int(array.max()) < _INT32_SPAN
    return array.astype(np.int32 if fits else np.int64, copy=False)


def _by_column(
    ptr: np.ndarray, col: np.ndarray, data: np.ndarray, shape: tuple[int, int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stable counting sort of CSR entries by column.

    ``(ptr, col, data)`` is a CSR layout of ``shape``; rows may be
    unsorted and repeat a column.  Returns ``(column pointer, row,
    data)`` of every entry, column-major, a column's entries in CSR
    order: scipy's CSR -> CSC conversion (one histogram, one prefix sum,
    one scatter; it never sorts or sums duplicates).  ``col`` must lie
    in ``[0, shape[1])`` — the scatter is unchecked.
    """
    csc = sparse.csr_matrix((data, col, ptr), shape=shape).tocsc()
    return csc.indptr, csc.indices, csc.data


def _index_masters(
    masters: np.ndarray, num_machines: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-machine master index: (machine pointer, vertices by master).

    The single definition shared by the constructor and the
    :meth:`ReplicationTable.from_shared_components` attach path, so
    :meth:`ReplicationTable.masters_on` can never diverge between them.
    """
    rows = np.arange(masters.size + 1)  # one entry per row: its master
    ptr, vertices, _ = _by_column(rows, masters, masters, (masters.size, num_machines))
    return _narrow(ptr), _narrow(vertices)


class _GroupedEdges:
    """Edges grouped by (anchor vertex, hosting machine).

    ``anchor`` is the source vertex for scatter grouping and the target
    vertex for gather grouping.  Groups of a vertex occupy a contiguous
    slice ``vertex_ptr[v]:vertex_ptr[v+1]`` in the group arrays.
    """

    __slots__ = (
        "group_machine", "group_anchor", "group_start", "group_stop",
        "vertex_ptr", "anchor_edge_ptr", "sorted_other", "edge_machine_sorted",
    )

    def __init__(
        self, graph: DiGraph, machine: np.ndarray, num_machines: int,
        anchor: str = "src",
    ) -> None:
        """Group ``graph``'s edges, hosted on ``machine`` (CSR-aligned,
        in ``[0, num_machines)``), by ``anchor`` ("src" or "dst")."""
        n, m = graph.num_vertices, graph.num_edges
        # Pass 1: edges machine-major, CSR order within a machine.
        machine_ptr, src, dst = _by_column(
            graph.indptr, machine, graph.indices, (n, num_machines)
        )
        # Pass 2: anchor-major, machine order within an anchor: the
        # (anchor, machine)-sorted edges and each anchor's edge range.
        col, other = (src, dst) if anchor == "src" else (dst, src)
        edge_ptr, machine_sorted, other = _by_column(
            machine_ptr, col, other, (num_machines, n)
        )
        self.anchor_edge_ptr = _narrow(edge_ptr)
        self.edge_machine_sorted = machine_sorted.astype(np.int32, copy=False)
        self.sorted_other = _narrow(other)

        # A group starts where the machine changes or a vertex's edges do.
        boundary = np.empty(m, dtype=bool)
        boundary[:1] = True
        np.not_equal(machine_sorted[1:], machine_sorted[:-1], out=boundary[1:])
        boundary[edge_ptr[edge_ptr < m]] = True
        starts = _narrow(np.flatnonzero(boundary))
        self.group_start = starts
        self.group_stop = _narrow(np.append(starts[1:], m))
        self.group_machine = self.edge_machine_sorted[starts]
        self.vertex_ptr = _narrow(np.searchsorted(starts, self.anchor_edge_ptr))
        self.group_anchor = _narrow(
            np.repeat(np.arange(n), np.diff(self.vertex_ptr))
        )

    @property
    def num_groups(self) -> int:
        return int(self.group_machine.size)

    def group_sizes(self) -> np.ndarray:
        """Edges per group."""
        return self.group_stop - self.group_start

    def edge_anchor(self) -> np.ndarray:
        """Anchor vertex of every edge in sorted order."""
        n = self.anchor_edge_ptr.size - 1
        return np.repeat(
            np.arange(n, dtype=np.int64), np.diff(self.anchor_edge_ptr)
        )

    def split(self, v: int) -> tuple[np.ndarray, list[np.ndarray]]:
        """(machines, other endpoints per machine) of ``v``'s groups."""
        lo, hi = self.vertex_ptr[v], self.vertex_ptr[v + 1]
        spans = zip(self.group_start[lo:hi], self.group_stop[lo:hi])
        return self.group_machine[lo:hi], [self.sorted_other[a:b] for a, b in spans]

    def as_arrays(self, prefix: str = "") -> dict[str, np.ndarray]:
        """Flat component arrays, keyed by slot (shared-memory export)."""
        return {prefix + slot: getattr(self, slot) for slot in self.__slots__}

    @classmethod
    def from_arrays(
        cls, arrays: dict[str, np.ndarray], prefix: str = ""
    ) -> "_GroupedEdges":
        """Reassemble a grouping directly from :meth:`as_arrays` output.

        No sorting, grouping or validation happens — the arrays are
        adopted as-is (they may be read-only shared-memory views), so
        the caller owns the obligation that they came from an actual
        grouping over the same graph.
        """
        grouped = cls.__new__(cls)
        for slot in cls.__slots__:
            setattr(grouped, slot, arrays[prefix + slot])
        return grouped


class ReplicationTable:
    """Master/mirror placement plus machine-grouped adjacency.

    Parameters
    ----------
    graph:
        The partitioned graph.
    partition:
        Edge placement from a :class:`Partitioner`.
    seed:
        Seed for the (uniform) master selection among each vertex's
        replicas, mirroring PowerGraph's randomized master assignment.
    """

    def __init__(
        self, graph: DiGraph, partition: EdgePartition, seed: int | None = 0
    ) -> None:
        if partition.edge_machine.shape != (graph.num_edges,):
            raise PartitionError(
                "partition does not match graph: "
                f"{partition.edge_machine.shape} vs m={graph.num_edges}"
            )
        self.graph = graph
        self.partition = partition
        self.num_machines = partition.num_machines
        # Memo for structures derived purely from this ingress (kernel
        # tables, mirror bitmap, ...), filled lazily via
        # :meth:`repro.engine.ClusterState.ingress_cache` and shared by
        # every accounting state built over this table.
        self._ingress_cache: dict = {}
        n = graph.num_vertices

        self.out_groups = _GroupedEdges(
            graph, partition.edge_machine, self.num_machines
        )

        # Replica bitmap: vertex v lives on machine p iff p hosts an
        # incident edge: (v, p) is an out-group, or some edge hosted on
        # p points at v.  Isolated vertices (possible only with repair
        # disabled) are pinned to machine 0.
        replicas = np.zeros((n, self.num_machines), dtype=bool)
        out = self.out_groups
        replicas[out.group_anchor, out.group_machine] = True
        # int64 key: vertex * machines wraps in int32 past 2**31 cells.
        replicas.reshape(-1)[
            np.multiply(out.sorted_other, self.num_machines, dtype=np.int64)
            + out.edge_machine_sorted
        ] = True
        lonely = ~replicas.any(axis=1)
        replicas[lonely, 0] = True
        self._replicas = replicas
        self.replica_counts = replicas.sum(axis=1).astype(np.int32)

        # Distinct seed stream: master selection must not correlate with
        # other components (partitioner, sync coins) fed the same seed.
        rng = np.random.default_rng(seed if seed is None else [101, seed])
        # Uniform master choice among replicas, vectorized: score every
        # (vertex, machine) cell with iid noise, mask non-replicas, argmax.
        noise = rng.random((n, self.num_machines))
        noise[~replicas] = -1.0
        self.masters = np.argmax(noise, axis=1).astype(np.int32)

        # Vertices mastered on each machine (for init-phase placement).
        self._master_ptr, self._master_sorted_vertices = _index_masters(
            self.masters, self.num_machines
        )

    @cached_property
    def in_groups(self) -> _GroupedEdges:
        """In-edges grouped by (target, hosting machine): the gather side.

        FrogWild never reads it: built on first access (the GraphLab-PR
        baselines) and kept, with nothing m-sized held for it meanwhile.
        """
        return _GroupedEdges(
            self.graph, self.partition.edge_machine, self.num_machines, "dst"
        )

    # ------------------------------------------------------------------
    # Shared-memory export / attach
    # ------------------------------------------------------------------
    def shared_components(self) -> dict[str, np.ndarray]:
        """The component arrays serving reads, flat-keyed for export.

        The multi-process backend places these in a
        :class:`~repro.cluster.SharedArena`; a worker rebuilds an
        equivalent table with :meth:`from_shared_components` from the
        mapped views — no pickling, no re-sorting, no re-grouping.  The
        gather grouping is not exported: an importer builds its own.
        """
        return {
            "masters": self.masters,
            "replicas": self._replicas,
            "edge_machine": self.partition.edge_machine,
            **self.out_groups.as_arrays("out."),
        }

    @classmethod
    def from_shared_components(
        cls, graph: DiGraph, arrays: dict[str, np.ndarray]
    ) -> "ReplicationTable":
        """Rebuild a table from :meth:`shared_components` output.

        The zero-copy attach path of the multi-process backend: the
        arrays are adopted verbatim (possibly read-only shared-memory
        views), skipping every O(m) / O(n * machines) step of
        :meth:`__init__`; only the replica counts and the per-machine
        master index (cheap, per vertex) are re-derived.  ``in.*``
        arrays (an older spill, a test oracle) are adopted when given;
        otherwise :attr:`in_groups` stays lazy.  The result is
        structurally equal to the exported table by construction.
        """
        table = cls.__new__(cls)
        table.graph = graph
        table.partition = EdgePartition(
            arrays["edge_machine"], int(arrays["replicas"].shape[1])
        )
        table.num_machines = table.partition.num_machines
        table._ingress_cache = {}
        table._replicas = arrays["replicas"]
        table.replica_counts = table._replicas.sum(axis=1).astype(np.int32)
        table.masters = arrays["masters"]
        table.out_groups = _GroupedEdges.from_arrays(arrays, "out.")
        if "in.group_start" in arrays:
            table.in_groups = _GroupedEdges.from_arrays(arrays, "in.")
        table._master_ptr, table._master_sorted_vertices = _index_masters(
            table.masters, table.num_machines
        )
        return table

    def structurally_equal(self, other: "ReplicationTable") -> bool:
        """Full structural equivalence: masters, replicas, both groupings.

        Equal in every array the engine reads — what the tests hold a
        refreshed, exported or mapped table to against a from-scratch
        build of the same snapshot.
        """
        pairs = [
            (self.masters, other.masters),
            (self._replicas, other._replicas),
            (self.replica_counts, other.replica_counts),
            (self.partition.edge_machine, other.partition.edge_machine),
        ]
        for mine, theirs in (
            (self.out_groups, other.out_groups),
            (self.in_groups, other.in_groups),
        ):
            pairs += zip(mine.as_arrays().values(), theirs.as_arrays().values())
        return all(np.array_equal(mine, theirs) for mine, theirs in pairs)

    # ------------------------------------------------------------------
    # Placement queries
    # ------------------------------------------------------------------
    def masters_on(self, machine: int) -> np.ndarray:
        """Vertices whose master replica lives on ``machine``."""
        lo, hi = self._master_ptr[machine], self._master_ptr[machine + 1]
        return self._master_sorted_vertices[lo:hi]

    def replication_factor(self) -> float:
        """Average number of replicas per vertex (PowerGraph's lambda)."""
        return float(self.replica_counts.mean())

    @property
    def replica_matrix(self) -> np.ndarray:
        """Boolean (n, num_machines) replica bitmap (read-only)."""
        return self._replicas

    def sync_record_matrix(self, changed: np.ndarray) -> np.ndarray:
        """Per machine-pair sync record counts for ``changed`` vertices.

        ``records[s, d]`` = number of changed vertices mastered on ``s``
        with a mirror on ``d`` — one full synchronization barrier's worth
        of master-to-mirror updates.
        """
        changed = np.asarray(changed, dtype=bool)
        records = np.zeros((self.num_machines, self.num_machines), dtype=np.int64)
        for mirror in range(self.num_machines):
            has_mirror = changed & self._replicas[:, mirror] & (self.masters != mirror)
            if has_mirror.any():
                counts = np.bincount(
                    self.masters[has_mirror], minlength=self.num_machines
                )
                records[:, mirror] += counts
        return records
