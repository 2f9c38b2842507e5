"""Graph transformations for preparing real-world edge lists.

SNAP datasets (LiveJournal, Twitter) are not strongly connected; random
walks can drain into rank sinks and PageRank experiments often restrict
to the largest strongly connected component (LSCC).  This module
provides the standard preparation steps: SCC decomposition (via
scipy's compiled Tarjan), vertex-induced subgraphs with id compaction,
and LSCC extraction.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

from ..errors import GraphError
from .builder import from_edges
from .digraph import DiGraph
from .keys import sorted_unique

__all__ = [
    "strongly_connected_components",
    "subgraph_vertices",
    "largest_scc",
]


def strongly_connected_components(graph: DiGraph) -> np.ndarray:
    """Component label per vertex (0-based, arbitrary order)."""
    n = graph.num_vertices
    if n == 0:
        return np.empty(0, dtype=np.int64)
    adjacency = sp.csr_matrix(
        (
            np.ones(graph.num_edges, dtype=np.int8),
            graph.indices,
            graph.indptr,
        ),
        shape=(n, n),
    )
    _, labels = csgraph.connected_components(
        adjacency, directed=True, connection="strong"
    )
    return labels.astype(np.int64)


def subgraph_vertices(
    graph: DiGraph,
    vertices: np.ndarray,
    repair_dangling: str = "self-loop",
    return_mapping: bool = False,
) -> DiGraph | tuple[DiGraph, np.ndarray]:
    """Induced subgraph on ``vertices`` with compacted ids.

    Vertex ``vertices[i]`` of the original graph becomes vertex ``i``;
    with ``return_mapping=True`` the original ids are returned too.
    """
    vertices = sorted_unique(np.asarray(vertices, dtype=np.int64))
    if vertices.size == 0:
        raise GraphError("vertex set must be non-empty")
    if vertices.min() < 0 or vertices.max() >= graph.num_vertices:
        raise GraphError("vertex ids out of range")
    keep = np.zeros(graph.num_vertices, dtype=bool)
    keep[vertices] = True
    relabel = np.full(graph.num_vertices, -1, dtype=np.int64)
    relabel[vertices] = np.arange(vertices.size)

    src = graph.edge_sources()
    dst = graph.indices
    inside = keep[src] & keep[dst]
    edges = np.column_stack([relabel[src[inside]], relabel[dst[inside]]])
    sub = from_edges(
        edges, num_vertices=vertices.size, repair_dangling=repair_dangling
    )
    if return_mapping:
        return sub, vertices
    return sub


def largest_scc(
    graph: DiGraph, return_mapping: bool = False
) -> DiGraph | tuple[DiGraph, np.ndarray]:
    """The subgraph induced by the largest strongly connected component."""
    labels = strongly_connected_components(graph)
    if labels.size == 0:
        raise GraphError("graph has no vertices")
    counts = np.bincount(labels)
    biggest = int(np.argmax(counts))
    members = np.flatnonzero(labels == biggest)
    return subgraph_vertices(
        graph, members, repair_dangling="none", return_mapping=return_mapping
    )
