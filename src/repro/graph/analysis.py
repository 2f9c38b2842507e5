"""Structural graph statistics used by experiments and documentation.

These helpers characterize workloads the way the paper does: degree
distributions and their power-law tail exponent (Section 2.3 relies on a
tail exponent θ ≈ 2.2 for PageRank values) and reciprocity
(distinguishes the Twitter-like from the LiveJournal-like regime).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .digraph import DiGraph

__all__ = ["GraphSummary", "summarize", "reciprocity", "power_law_exponent"]


@dataclass(frozen=True)
class GraphSummary:
    """Descriptive statistics for a directed graph."""

    num_vertices: int
    num_edges: int
    avg_out_degree: float
    max_out_degree: int
    max_in_degree: int
    dangling_count: int
    reciprocity: float
    in_degree_tail_exponent: float

    def as_dict(self) -> dict[str, float]:
        """Plain-dict view, convenient for report tables."""
        return {
            "num_vertices": self.num_vertices,
            "num_edges": self.num_edges,
            "avg_out_degree": self.avg_out_degree,
            "max_out_degree": self.max_out_degree,
            "max_in_degree": self.max_in_degree,
            "dangling_count": self.dangling_count,
            "reciprocity": self.reciprocity,
            "in_degree_tail_exponent": self.in_degree_tail_exponent,
        }


def summarize(graph: DiGraph) -> GraphSummary:
    """Compute a :class:`GraphSummary` for ``graph``."""
    out_deg = np.asarray(graph.out_degree())
    in_deg = np.asarray(graph.in_degree())
    return GraphSummary(
        num_vertices=graph.num_vertices,
        num_edges=graph.num_edges,
        avg_out_degree=float(out_deg.mean()) if out_deg.size else 0.0,
        max_out_degree=int(out_deg.max()) if out_deg.size else 0,
        max_in_degree=int(in_deg.max()) if in_deg.size else 0,
        dangling_count=int((out_deg == 0).sum()),
        reciprocity=reciprocity(graph),
        in_degree_tail_exponent=power_law_exponent(in_deg),
    )


def reciprocity(graph: DiGraph) -> float:
    """Fraction of edges ``u -> v`` whose reverse ``v -> u`` also exists."""
    if graph.num_edges == 0:
        return 0.0
    n = graph.num_vertices
    forward = graph.edge_sources() * n + graph.indices
    backward = graph.indices * n + graph.edge_sources()
    forward_set = np.sort(forward)
    found = np.searchsorted(forward_set, backward)
    found = np.clip(found, 0, forward_set.size - 1)
    mutual = forward_set[found] == backward
    return float(mutual.mean())


def power_law_exponent(degrees: np.ndarray, d_min: int = 4) -> float:
    """Maximum-likelihood (Hill) estimator of a degree tail exponent.

    Uses the discrete-to-continuous approximation
    ``theta = 1 + k / sum(log(d_i / (d_min - 0.5)))`` over degrees
    ``>= d_min`` (Clauset–Shalizi–Newman).  Returns ``nan`` when fewer
    than 10 tail samples exist.
    """
    degrees = np.asarray(degrees, dtype=np.float64)
    tail = degrees[degrees >= d_min]
    if tail.size < 10:
        return float("nan")
    return float(1.0 + tail.size / np.log(tail / (d_min - 0.5)).sum())
