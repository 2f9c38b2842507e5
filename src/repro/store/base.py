"""The :class:`GraphStore` protocol — one storage API for every tier.

The paper's premise is PageRank on graphs too large to treat casually,
so the storage layer cannot assume the edge set is a RAM-resident numpy
array.  This module defines the seam every consumer (ingress, table
builds, serving backends, CLI) reads through:

* a graph store is an edge *set* over a fixed vertex universe,
  canonically represented as sorted ``source * n + target`` int64 keys
  (exactly the encoding :class:`~repro.dynamic.DynamicDiGraph` and
  :func:`~repro.cluster.stable_hash_machines` already use);
* reads are either a full :meth:`~GraphStore.edge_keys` stream or a
  window-pruned :meth:`~GraphStore.scan` over a ``(machine,
  vertex-range)`` interval — the DMR-XPath-style window contract: the
  store may consult only segments whose key interval intersects the
  window, and must return exactly what a full scan filtered to the
  window would (the interval-pruning proof obligation, pinned by the
  property tests in ``tests/test_store.py``);
* the in-RAM tiers are :class:`~repro.graph.DiGraph` and
  :class:`~repro.dynamic.DynamicDiGraph` themselves (both implement
  the protocol natively); the out-of-core tier is
  :class:`~repro.store.SegmentStore`.

:func:`as_graph_store` is the adapter call sites use instead of
branching on graph type.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np

from ..errors import ConfigError
from ..graph.keys import sorted_unique

__all__ = [
    "GraphStore",
    "ScanStats",
    "Window",
    "as_graph_store",
    "edges_to_keys",
    "keys_to_edges",
    "scan_keys",
]


@dataclass(frozen=True)
class Window:
    """One ``(machine, vertex-range)`` scan interval.

    The window selects edges whose *source* vertex lies in
    ``[vertex_lo, vertex_hi)`` and — when ``machine`` is not ``None`` —
    whose key hashes to ``machine`` under
    :func:`~repro.cluster.stable_hash_machines` with this window's
    ``(num_machines, salt)`` placement.  A window whose placement
    matches a :class:`~repro.store.SegmentStore`'s layout is served
    from that machine's segments alone (the pruned path); any other
    placement still answers exactly, via hash filtering.
    """

    vertex_lo: int
    vertex_hi: int
    machine: int | None = None
    num_machines: int = 1
    salt: int = 0

    def __post_init__(self) -> None:
        if self.vertex_lo < 0 or self.vertex_hi < self.vertex_lo:
            raise ConfigError(
                f"window vertex range [{self.vertex_lo}, "
                f"{self.vertex_hi}) is not a valid interval"
            )
        if self.num_machines < 1:
            raise ConfigError("window num_machines must be positive")
        if self.machine is not None and not (
            0 <= self.machine < self.num_machines
        ):
            raise ConfigError(
                f"window machine {self.machine} out of range "
                f"[0, {self.num_machines})"
            )

    def key_range(self, num_vertices: int) -> tuple[int, int]:
        """The half-open key interval ``[lo, hi)`` of this window."""
        return (
            self.vertex_lo * num_vertices,
            min(self.vertex_hi, num_vertices) * num_vertices,
        )


@dataclass
class ScanStats:
    """Per-store counters proving scans are window-pruned.

    ``segments_pruned`` counts segments skipped purely on their
    manifest interval (never opened, never paged in);
    ``bytes_scanned`` counts the key bytes actually read from the
    segments that did intersect.  RAM stores count one virtual
    "segment" per scan.
    """

    scans: int = 0
    segments_considered: int = 0
    segments_scanned: int = 0
    segments_pruned: int = 0
    bytes_scanned: int = 0

    def pruned_fraction(self) -> float:
        """Fraction of considered segments skipped without a read."""
        if self.segments_considered == 0:
            return 0.0
        return self.segments_pruned / self.segments_considered


@runtime_checkable
class GraphStore(Protocol):
    """Storage seam between graph state and everything that reads it.

    ``edge_keys()`` is the canonical full read: sorted, deduplicated
    ``source * n + target`` int64 keys.  ``scan(window)`` is the pruned
    read; its contract is *exactness*: the result equals
    ``scan_keys(edge_keys(), num_vertices, window)`` for every window,
    however the store prunes internally.  ``version`` is a monotone
    counter advanced by every mutation, mixed into serving cache keys.
    """

    @property
    def num_vertices(self) -> int: ...

    @property
    def num_edges(self) -> int: ...

    @property
    def version(self) -> int: ...

    def edge_keys(self) -> np.ndarray: ...

    def scan(self, window: Window) -> np.ndarray: ...

    def snapshot(self, repair_dangling: str = "self-loop"): ...


def edges_to_keys(edges: np.ndarray, num_vertices: int) -> np.ndarray:
    """Sorted unique ``source * n + target`` keys of ``(m, 2)`` rows."""
    edges = np.asarray(edges, dtype=np.int64)
    if edges.size == 0:
        return np.empty(0, dtype=np.int64)
    return sorted_unique(edges[:, 0] * int(num_vertices) + edges[:, 1])


def keys_to_edges(keys: np.ndarray, num_vertices: int) -> np.ndarray:
    """Invert :func:`edges_to_keys` back to ``(m, 2)`` edge rows."""
    keys = np.asarray(keys, dtype=np.int64)
    return np.column_stack(np.divmod(keys, int(num_vertices)))


def _machine_filter(keys: np.ndarray, window: Window) -> np.ndarray:
    """Subset of ``keys`` that hash to the window's machine."""
    if window.machine is None or keys.size == 0:
        return keys
    from ..cluster.partition import stable_hash_machines

    machines = stable_hash_machines(keys, window.num_machines, window.salt)
    return keys[machines == window.machine]


def scan_keys(
    keys: np.ndarray, num_vertices: int, window: Window
) -> np.ndarray:
    """Reference (unpruned) window scan over a sorted key array.

    This is the semantic definition every pruned implementation must
    match bitwise: slice the key interval, then filter by the window's
    machine hash.
    """
    lo, hi = window.key_range(num_vertices)
    a, b = np.searchsorted(keys, [lo, hi])
    return _machine_filter(keys[a:b], window)


def as_graph_store(obj) -> GraphStore:
    """View ``obj`` through the :class:`GraphStore` protocol.

    :class:`~repro.graph.DiGraph`,
    :class:`~repro.dynamic.DynamicDiGraph` and
    :class:`~repro.store.SegmentStore` all implement the protocol
    natively, so this is a checked pass-through — the single place a
    call site's "is this a graph or a store?" branch lives.
    """
    if isinstance(obj, GraphStore):
        return obj
    raise ConfigError(
        f"{type(obj).__name__} does not implement the GraphStore "
        "protocol (num_vertices/num_edges/version/edge_keys/scan/"
        "snapshot)"
    )
