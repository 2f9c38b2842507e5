"""Compressed sparse row (CSR) directed graph.

This is the base substrate every other subsystem builds on.  A
:class:`DiGraph` is immutable once constructed: vertices are the integers
``0 .. n-1`` and edges are stored twice, once in out-adjacency (CSR) form
and once in in-adjacency (CSC-like) form, so both successor and
predecessor scans are O(degree).

The PageRank transition matrix convention follows the paper (Section 2.1):
``P[i, j] = A[i, j] / d_out(j)`` where ``A[i, j] = 1`` iff there is an edge
``j -> i``; i.e. a random walker at ``j`` moves to a uniformly random
successor of ``j``.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ..errors import GraphError
from .keys import sorted_unique

__all__ = ["DiGraph"]


class DiGraph:
    """Immutable directed graph over vertices ``0 .. n-1`` in CSR form.

    Parameters
    ----------
    indptr:
        Out-adjacency index pointer, shape ``(n + 1,)``.  The successors of
        vertex ``v`` are ``indices[indptr[v]:indptr[v + 1]]``.
    indices:
        Flat successor array, shape ``(m,)``.
    validate:
        When true (default), check structural invariants.  Generators that
        construct graphs guaranteed-valid may skip validation for speed.
    """

    __slots__ = (
        "_indptr",
        "_indices",
        "_in_indptr",
        "_in_indices",
        "_n",
        "_m",
    )

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        validate: bool = True,
    ) -> None:
        indptr = np.asarray(indptr, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int64)
        if indptr.ndim != 1 or indices.ndim != 1:
            raise GraphError("indptr and indices must be one-dimensional")
        if indptr.size == 0:
            raise GraphError("indptr must have at least one entry")
        n = indptr.size - 1
        m = indices.size
        if validate:
            if indptr[0] != 0 or indptr[-1] != m:
                raise GraphError(
                    "indptr must start at 0 and end at the edge count "
                    f"(got {indptr[0]}..{indptr[-1]}, m={m})"
                )
            if np.any(np.diff(indptr) < 0):
                raise GraphError("indptr must be non-decreasing")
            if m and (indices.min() < 0 or indices.max() >= n):
                raise GraphError("edge targets out of range")
        self._indptr = indptr
        self._indices = indices
        self._n = int(n)
        self._m = int(m)
        self._in_indptr: np.ndarray | None = None
        self._in_indices: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices ``n``."""
        return self._n

    @property
    def num_edges(self) -> int:
        """Number of directed edges ``m`` (parallel edges were deduped)."""
        return self._m

    @property
    def indptr(self) -> np.ndarray:
        """Out-adjacency CSR index pointer (read-only view)."""
        return self._indptr

    @property
    def indices(self) -> np.ndarray:
        """Out-adjacency CSR successor array (read-only view)."""
        return self._indices

    def csr_components(self) -> dict[str, np.ndarray]:
        """The out-adjacency CSR arrays, keyed for zero-copy export.

        Together with :meth:`from_csr_arrays` this is the zero-copy
        transport of a graph across process (or storage) boundaries:
        the owner places these arrays in a
        :class:`~repro.cluster.SharedArena` — or spills them to
        ``.npy`` files reopened with ``mmap_mode="r"``
        (:mod:`repro.store.spill`) — and consumers rebuild an
        equivalent graph from the mapped views without pickling an
        edge.
        """
        return {"indptr": self._indptr, "indices": self._indices}

    @classmethod
    def from_csr_arrays(cls, arrays: dict[str, np.ndarray]) -> "DiGraph":
        """Rebuild a graph from :meth:`csr_components` output (no copy).

        Validation is skipped: the arrays come from an already-validated
        graph, and the views may be read-only shared-memory mappings.
        """
        return cls(arrays["indptr"], arrays["indices"], validate=False)

    def __len__(self) -> int:
        return self._n

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DiGraph(n={self._n}, m={self._m})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiGraph):
            return NotImplemented
        return (
            self._n == other._n
            and self._m == other._m
            and bool(np.array_equal(self._indptr, other._indptr))
            and bool(np.array_equal(self._indices, other._indices))
        )

    def __hash__(self) -> int:
        return hash((self._n, self._m, self._indices[: min(self._m, 64)].tobytes()))

    # ------------------------------------------------------------------
    # Degrees and adjacency
    # ------------------------------------------------------------------
    def out_degree(self, v: int | None = None) -> int | np.ndarray:
        """Out-degree of vertex ``v``, or the full out-degree vector."""
        if v is None:
            return np.diff(self._indptr)
        self._check_vertex(v)
        return int(self._indptr[v + 1] - self._indptr[v])

    def in_degree(self, v: int | None = None) -> int | np.ndarray:
        """In-degree of vertex ``v``, or the full in-degree vector."""
        self._ensure_in_adjacency()
        assert self._in_indptr is not None
        if v is None:
            return np.diff(self._in_indptr)
        self._check_vertex(v)
        return int(self._in_indptr[v + 1] - self._in_indptr[v])

    def successors(self, v: int) -> np.ndarray:
        """Successors of ``v`` (vertices ``w`` with an edge ``v -> w``)."""
        self._check_vertex(v)
        return self._indices[self._indptr[v] : self._indptr[v + 1]]

    def predecessors(self, v: int) -> np.ndarray:
        """Predecessors of ``v`` (vertices ``u`` with an edge ``u -> v``)."""
        self._check_vertex(v)
        self._ensure_in_adjacency()
        assert self._in_indptr is not None and self._in_indices is not None
        return self._in_indices[self._in_indptr[v] : self._in_indptr[v + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the directed edge ``u -> v`` exists."""
        return bool(np.isin(v, self.successors(u)).item())

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate over all ``(source, target)`` edge pairs in CSR order."""
        for u in range(self._n):
            for w in self.successors(u):
                yield u, int(w)

    def edge_sources(self) -> np.ndarray:
        """Source vertex of every edge, aligned with :attr:`indices`."""
        return np.repeat(np.arange(self._n, dtype=np.int64), np.diff(self._indptr))

    def _edge_array(self) -> np.ndarray:
        """All edges as an ``(m, 2)`` array, in CSR order (internal)."""
        return np.column_stack([self.edge_sources(), self._indices])

    # ------------------------------------------------------------------
    # GraphStore protocol (the in-RAM tier)
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """Store-protocol version counter; immutable graphs are 0."""
        return 0

    def edge_keys(self) -> np.ndarray:
        """Sorted unique ``source * n + target`` keys of every edge.

        The canonical :class:`~repro.store.GraphStore` read, and the one
        place a graph's keys are derived.  CSR rows built by
        :func:`~repro.graph.builder.from_sorted_keys` already store
        successors sorted and distinct, so the common case is one
        multiply-add over the CSR arrays plus an O(m) monotonicity check
        and the keys stay aligned with :attr:`indices`; hand-built graphs
        with unsorted or repeated rows pay one sort + dedup.
        """
        keys = self.edge_sources() * self._n + self._indices
        if keys.size > 1 and not bool((keys[1:] > keys[:-1]).all()):
            keys = sorted_unique(keys)
        return keys

    def scan(self, window) -> np.ndarray:
        """Window-filtered edge keys (see :class:`repro.store.Window`)."""
        from ..store.base import scan_keys

        return scan_keys(self.edge_keys(), self._n, window)

    def snapshot(self, repair_dangling: str = "self-loop") -> "DiGraph":
        """Store-protocol snapshot: an immutable graph is its own.

        When a dangling repair is requested and the graph actually has
        dangling vertices, a repaired copy is built (matching
        :meth:`~repro.dynamic.DynamicDiGraph.snapshot` semantics);
        otherwise this returns ``self`` unchanged.
        """
        if repair_dangling not in ("none", None) and bool(
            (np.diff(self._indptr) == 0).any()
        ):
            from .builder import from_sorted_keys

            return from_sorted_keys(self.edge_keys(), self._n, repair_dangling)
        return self

    # ------------------------------------------------------------------
    # Derived structures
    # ------------------------------------------------------------------
    def transition_matrix(self) -> np.ndarray:
        """Dense column-stochastic transition matrix ``P`` (Eq. 1).

        ``P[i, j] = 1 / d_out(j)`` if the edge ``j -> i`` exists.  Intended
        for small graphs (tests, theory validation); raises for graphs
        whose dense form would exceed ~64M entries.
        """
        if self._n * self._n > 64_000_000:
            raise GraphError(
                f"dense transition matrix for n={self._n} is too large; "
                "use sparse power iteration instead"
            )
        out_deg = np.diff(self._indptr)
        if np.any(out_deg == 0):
            raise GraphError(
                "transition matrix undefined for dangling vertices; "
                "repair the graph first (GraphBuilder(repair_dangling=...))"
            )
        p = np.zeros((self._n, self._n), dtype=np.float64)
        sources = self.edge_sources()
        p[self._indices, sources] = 1.0 / out_deg[sources]
        return p

    def subgraph_edges(self, keep: np.ndarray) -> "DiGraph":
        """Graph on the same vertex set keeping only edges where ``keep``.

        ``keep`` is a boolean mask aligned with CSR edge order (the order
        of :attr:`indices`).  Used by the sparsification baseline.
        """
        keep = np.asarray(keep, dtype=bool)
        if keep.shape != (self._m,):
            raise GraphError(
                f"keep mask must have shape ({self._m},), got {keep.shape}"
            )
        sources = self.edge_sources()[keep]
        targets = self._indices[keep]
        counts = np.bincount(sources, minlength=self._n)
        indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        order = np.argsort(sources, kind="stable")
        return DiGraph(indptr, targets[order], validate=False)

    def dangling_vertices(self) -> np.ndarray:
        """Vertices with out-degree zero."""
        return np.flatnonzero(np.diff(self._indptr) == 0)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self._n:
            raise GraphError(f"vertex {v} out of range [0, {self._n})")

    def _ensure_in_adjacency(self) -> None:
        """Build the in-adjacency (reverse CSR) lazily, once."""
        if self._in_indptr is not None:
            return
        targets = self._indices
        counts = np.bincount(targets, minlength=self._n)
        in_indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        perm = np.argsort(targets, kind="stable")
        in_indices = self.edge_sources()[perm]
        self._in_indptr = in_indptr
        self._in_indices = in_indices
