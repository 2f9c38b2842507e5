"""Mutable directed graph for churn experiments.

The paper's introduction motivates FrogWild with *dynamic* graphs: OSN
connectivity/activity graphs change constantly, so PageRank "should be
recalculated constantly" and a fast approximation beats an exact solve
every tick.  :class:`DynamicDiGraph` is the substrate for that scenario:
an edge set over a fixed vertex universe supporting batched insertions
and deletions, a monotone version counter, and cheap snapshotting to the
immutable CSR :class:`~repro.graph.DiGraph` every solver consumes.

Edges are stored as a sorted array of ``source * n + target`` keys, so
a snapshot is O(m) with no Python-level per-edge work: the keys go
straight into :func:`~repro.graph.builder.from_sorted_keys`, which
splits them into CSR arrays without re-sorting or deduplicating.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from ..errors import GraphError
from ..graph import DiGraph, from_sorted_keys, sorted_unique
from ..graph.keys import drop_sorted, merge_sorted

__all__ = ["DynamicDiGraph", "GraphDelta"]


class GraphDelta:
    """One batch of edge changes: insertions and deletions.

    Both arrays are ``(k, 2)`` of ``(source, target)`` rows.  A delta is
    immutable; appliers report how many of its edges actually changed
    the graph (duplicates/missing edges are counted as no-ops).
    """

    __slots__ = ("added", "removed")

    def __init__(
        self,
        added: Iterable[tuple[int, int]] | np.ndarray = (),
        removed: Iterable[tuple[int, int]] | np.ndarray = (),
    ) -> None:
        self.added = _as_edge_array(added)
        self.removed = _as_edge_array(removed)

    @property
    def num_added(self) -> int:
        return int(self.added.shape[0])

    @property
    def num_removed(self) -> int:
        return int(self.removed.shape[0])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"GraphDelta(+{self.num_added}, -{self.num_removed})"


def _as_edge_array(edges) -> np.ndarray:
    arr = np.asarray(
        edges if isinstance(edges, np.ndarray) else list(edges),
        dtype=np.int64,
    )
    if arr.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise GraphError(f"edges must be (k, 2) pairs, got shape {arr.shape}")
    if arr.min() < 0:
        raise GraphError("vertex ids must be non-negative")
    return arr


class DynamicDiGraph:
    """Updatable edge set over vertices ``0 .. n-1``.

    Parameters
    ----------
    num_vertices:
        Fixed vertex universe (OSN user base); edges may come and go,
        vertices do not.
    edges:
        Initial edge list (deduplicated).
    """

    def __init__(
        self,
        num_vertices: int,
        edges: Iterable[tuple[int, int]] | np.ndarray = (),
    ) -> None:
        if num_vertices < 1:
            raise GraphError("num_vertices must be positive")
        self._n = int(num_vertices)
        arr = _as_edge_array(edges)
        if arr.size and arr.max() >= self._n:
            raise GraphError("edge endpoint out of range")
        self._keys = sorted_unique(arr[:, 0] * self._n + arr[:, 1])
        self._version = 0

    @classmethod
    def from_digraph(cls, graph: DiGraph) -> "DynamicDiGraph":
        """Seed the dynamic graph with a static snapshot's edges."""
        return cls(graph.num_vertices, graph._edge_array())

    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return self._n

    @property
    def num_edges(self) -> int:
        return int(self._keys.size)

    @property
    def version(self) -> int:
        """Monotone counter bumped by every mutating call."""
        return self._version

    def has_edge(self, source: int, target: int) -> bool:
        self._check_vertex(source)
        self._check_vertex(target)
        key = source * self._n + target
        # Single read of the key array: mutators replace it wholesale
        # (never in place), so one load is a consistent snapshot even
        # when a refresh on another thread applies deltas concurrently.
        keys = self._keys
        pos = np.searchsorted(keys, key)
        return bool(pos < keys.size and keys[pos] == key)

    def edge_keys(self) -> np.ndarray:
        """Current edges as sorted ``source * n + target`` keys.

        The canonical :class:`~repro.store.GraphStore` read — and the
        graph's own internal representation, so this is free.  Reads
        the key array exactly once (mutators replace it wholesale, they
        never write in place), so the result is a consistent snapshot
        even under concurrent :meth:`apply` from another thread.  The
        array is handed out read-only: an ingress keeps it to count the
        next refresh's survivors.
        """
        keys = self._keys
        keys.flags.writeable = False
        return keys

    def scan(self, window) -> np.ndarray:
        """Window-filtered edge keys (see :class:`repro.store.Window`)."""
        from ..store.base import scan_keys

        return scan_keys(self._keys, self._n, window)

    def _edge_array(self) -> np.ndarray:
        """Current edges as ``(m, 2)`` rows (internal, consistent)."""
        keys = self._keys
        return np.column_stack([keys // self._n, keys % self._n])

    def out_degree(self) -> np.ndarray:
        """Current out-degree vector."""
        return np.bincount(self._keys // self._n, minlength=self._n)

    # ------------------------------------------------------------------
    def add_edges(self, edges) -> int:
        """Insert edges; returns how many were actually new."""
        arr = _as_edge_array(edges)
        if arr.size == 0:
            return 0
        if arr.max() >= self._n:
            raise GraphError("edge endpoint out of range")
        keys = self._keys
        self._keys = merged = merge_sorted(
            keys, sorted_unique(arr[:, 0] * self._n + arr[:, 1])
        )
        self._version += 1
        return int(merged.size - keys.size)

    def remove_edges(self, edges) -> int:
        """Delete edges; returns how many actually existed."""
        arr = _as_edge_array(edges)
        if arr.size == 0:
            return 0
        if arr.max() >= self._n:
            raise GraphError("edge endpoint out of range")
        keys = self._keys
        self._keys = kept = drop_sorted(
            keys, sorted_unique(arr[:, 0] * self._n + arr[:, 1])
        )
        self._version += 1
        return int(keys.size - kept.size)

    def apply(self, delta: GraphDelta) -> tuple[int, int]:
        """Apply one delta; returns (edges added, edges removed).

        Removals run first so a delta may atomically rewire (remove an
        edge and re-add it elsewhere) without order surprises.
        """
        removed = self.remove_edges(delta.removed)
        added = self.add_edges(delta.added)
        return added, removed

    # ------------------------------------------------------------------
    def snapshot(self, repair_dangling: str = "self-loop") -> DiGraph:
        """Freeze the current edge set into an immutable CSR graph.

        ``repair_dangling`` follows :class:`~repro.graph.GraphBuilder`
        semantics — the default self-loop repair keeps the snapshot
        walkable even when churn strands vertices without successors.
        """
        return from_sorted_keys(self._keys, self._n, repair_dangling)

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self._n:
            raise GraphError(f"vertex {v} out of range [0, {self._n})")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DynamicDiGraph(n={self._n}, m={self.num_edges}, "
            f"version={self._version})"
        )
