"""Incremental construction of :class:`~repro.graph.digraph.DiGraph`.

The paper assumes every vertex has at least one successor
(``d_out(j) > 0``, Section 2.1).  Real edge lists violate this, so the
builder offers the standard repairs used by PageRank systems:

* ``"self-loop"`` — dangling vertices get a self edge (GraphLab's choice
  for random-walk programs; a frog landing there stays until it dies).
* ``"uniform"`` — not materialized as n-1 edges; instead the builder
  refuses and directs the caller to the exact solver, which handles
  dangling mass analytically.
* ``"drop"`` — recursively remove dangling vertices (relabelling the
  survivors) until none remain.
* ``"none"`` — keep the graph as-is.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from ..errors import GraphError
from .digraph import DiGraph
from .keys import sorted_unique

__all__ = ["GraphBuilder", "from_edges", "from_sorted_keys"]

_REPAIRS = ("self-loop", "drop", "none")


class GraphBuilder:
    """Accumulates directed edges, then emits a deduplicated CSR graph.

    Parameters
    ----------
    num_vertices:
        Fix the vertex count up front.  When omitted the count is inferred
        as ``max vertex id + 1`` at build time.
    repair_dangling:
        One of ``"self-loop"``, ``"drop"``, ``"none"``; see module docs.
    """

    def __init__(
        self,
        num_vertices: int | None = None,
        repair_dangling: str = "self-loop",
    ) -> None:
        if repair_dangling not in _REPAIRS:
            raise GraphError(
                f"repair_dangling must be one of {_REPAIRS}, "
                f"got {repair_dangling!r}"
            )
        if num_vertices is not None and num_vertices < 0:
            raise GraphError("num_vertices must be non-negative")
        self._fixed_n = num_vertices
        self._repair = repair_dangling
        self._sources: list[np.ndarray] = []
        self._targets: list[np.ndarray] = []

    def add_edges(
        self, edges: Iterable[tuple[int, int]] | np.ndarray
    ) -> "GraphBuilder":
        """Add a batch of directed edges.

        Accepts any iterable of ``(source, target)`` pairs or an
        ``(k, 2)`` integer array.  Returns ``self`` for chaining.
        """
        arr = np.asarray(
            edges if isinstance(edges, np.ndarray) else list(edges),
            dtype=np.int64,
        )
        if arr.size == 0:
            return self
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise GraphError(f"edges must be (k, 2) pairs, got shape {arr.shape}")
        if arr.min() < 0:
            raise GraphError("vertex ids must be non-negative")
        self._sources.append(arr[:, 0].copy())
        self._targets.append(arr[:, 1].copy())
        return self

    def build(self) -> DiGraph:
        """Produce the immutable graph: dedup, sort, repair dangling."""
        if self._sources:
            src = np.concatenate(self._sources)
            dst = np.concatenate(self._targets)
        else:
            src = np.empty(0, dtype=np.int64)
            dst = np.empty(0, dtype=np.int64)

        n = self._infer_n(src, dst)
        return _assemble(sorted_unique(src * n + dst), n, self._repair)

    def _infer_n(self, src: np.ndarray, dst: np.ndarray) -> int:
        observed = 0
        if src.size:
            observed = int(max(src.max(), dst.max())) + 1
        if self._fixed_n is None:
            return observed
        if observed > self._fixed_n:
            raise GraphError(
                f"edge references vertex {observed - 1} but "
                f"num_vertices={self._fixed_n}"
            )
        return self._fixed_n


def from_edges(
    edges: Iterable[tuple[int, int]] | np.ndarray,
    num_vertices: int | None = None,
    repair_dangling: str = "self-loop",
) -> DiGraph:
    """One-shot convenience wrapper around :class:`GraphBuilder`."""
    builder = GraphBuilder(num_vertices, repair_dangling)
    builder.add_edges(edges)
    return builder.build()


def from_sorted_keys(
    keys: np.ndarray,
    num_vertices: int,
    repair_dangling: str = "self-loop",
) -> DiGraph:
    """CSR graph straight from strictly increasing edge keys.

    ``keys`` are ``source * num_vertices + target`` int64 values, sorted
    and distinct — the canonical :class:`~repro.store.GraphStore` read,
    so a store snapshot needs no re-sort and no dedup.  The keys are
    validated in O(m) (range and strict monotonicity; anything else
    raises :class:`~repro.errors.GraphError`) and handed to the one CSR
    assembly path, which :meth:`GraphBuilder.build` reaches with the
    keys it has just made canonical itself.
    """
    if repair_dangling not in _REPAIRS:
        raise GraphError(
            f"repair_dangling must be one of {_REPAIRS}, "
            f"got {repair_dangling!r}"
        )
    n = int(num_vertices)
    if n < 0:
        raise GraphError("num_vertices must be non-negative")
    keys = np.asarray(keys, dtype=np.int64)
    if keys.ndim != 1:
        raise GraphError(f"keys must be one-dimensional, got {keys.shape}")
    if keys.size:
        if not bool((keys[1:] > keys[:-1]).all()):
            raise GraphError("edge keys must be strictly increasing")
        if keys[0] < 0 or int(keys[-1]) >= n * n:
            raise GraphError(
                f"edge key out of range [0, {n * n}) for "
                f"num_vertices={n}"
            )
    return _assemble(keys, n, repair_dangling)


def _assemble(keys: np.ndarray, n: int, repair_dangling: str) -> DiGraph:
    """Repair and CSR-pack canonical keys (validated by the caller)."""
    if repair_dangling == "self-loop":
        keys = _repair_self_loops(keys, n)
    src, dst = np.divmod(keys, n)
    if repair_dangling == "drop":
        src, dst, n = _repair_drop(src, dst, n)
    return _to_csr(src, dst, n)


def _repair_self_loops(keys: np.ndarray, n: int) -> np.ndarray:
    """Merge a self-edge key for every dangling vertex into ``keys``.

    A dangling vertex owns no key in its row ``[v * n, (v + 1) * n)``,
    so its loop key ``v * (n + 1)`` is new and one ``searchsorted`` +
    ``insert`` keeps the array strictly increasing — no re-sort.
    """
    row_ptr = np.searchsorted(keys, np.arange(n + 1, dtype=np.int64) * n)
    dangling = np.flatnonzero(row_ptr[1:] == row_ptr[:-1])
    if dangling.size == 0:
        return keys
    return np.insert(keys, row_ptr[dangling], dangling * (n + 1))


def _repair_drop(
    src: np.ndarray, dst: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray, int]:
    """Iteratively delete dangling vertices and compact vertex ids."""
    keep_vertex = np.ones(n, dtype=bool)
    while True:
        out_deg = np.bincount(src, minlength=n)
        newly_dangling = keep_vertex & (out_deg == 0)
        if not newly_dangling.any():
            break
        keep_vertex &= ~newly_dangling
        edge_ok = keep_vertex[src] & keep_vertex[dst]
        src, dst = src[edge_ok], dst[edge_ok]
    relabel = np.cumsum(keep_vertex) - 1
    return relabel[src], relabel[dst], int(keep_vertex.sum())


def _to_csr(src: np.ndarray, dst: np.ndarray, n: int) -> DiGraph:
    counts = np.bincount(src, minlength=n) if src.size else np.zeros(n, dtype=np.int64)
    indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    return DiGraph(indptr, dst, validate=False)
