"""Uniform-sparsification baseline (Section 2.4 and Figure 5).

The natural heuristic the paper compares against: delete every edge
independently with probability ``r`` (keep with ``q = 1 - r``), then run
a couple of GraphLab PR iterations on the sparsified graph.  Fewer edges
mean less gather traffic per iteration, but the paper shows FrogWild is
still faster at comparable accuracy.

Vertices whose whole out-neighbourhood gets deleted receive a self-loop
so the random-surfer semantics stay well-defined (mirroring what the
dangling-repair logic in a real deployment would do).
"""

from __future__ import annotations

import numpy as np

from ..cluster import CostModel, MessageSizeModel
from ..errors import ConfigError
from ..graph import DiGraph, from_sorted_keys
from .graphlab_pr import GraphLabPageRankResult, graphlab_pagerank

__all__ = ["sparsify_uniform", "sparsified_pagerank"]


def sparsify_uniform(
    graph: DiGraph, keep_probability: float, seed: int | None = 0
) -> DiGraph:
    """Keep each edge independently with probability ``q``.

    Returns a graph on the same vertex set; vertices left dangling are
    repaired with self loops.
    """
    if not 0.0 < keep_probability <= 1.0:
        raise ConfigError(
            f"keep_probability must lie in (0, 1], got {keep_probability}"
        )
    if keep_probability == 1.0:
        return graph
    rng = np.random.default_rng(seed)
    keep = rng.random(graph.num_edges) < keep_probability
    return from_sorted_keys(
        graph.subgraph_edges(keep).edge_keys(), graph.num_vertices, "self-loop"
    )


def sparsified_pagerank(
    graph: DiGraph,
    keep_probability: float,
    iterations: int = 2,
    num_machines: int = 16,
    p_teleport: float = 0.15,
    partitioner: str = "random",
    cost_model: CostModel | None = None,
    size_model: MessageSizeModel | None = None,
    seed: int | None = 0,
) -> GraphLabPageRankResult:
    """Sparsify, then run ``iterations`` of GraphLab PR on the result.

    The paper runs 2 iterations: a single iteration merely measures
    in-degree, which the engine already knows after ingress (Section
    2.4), so 2 is the first informative setting.
    """
    sparse_graph = sparsify_uniform(graph, keep_probability, seed=seed)
    result = graphlab_pagerank(
        sparse_graph,
        num_machines=num_machines,
        iterations=iterations,
        p_teleport=p_teleport,
        partitioner=partitioner,
        cost_model=cost_model,
        size_model=size_model,
        seed=seed,
    )
    result.report.extra["keep_probability"] = keep_probability
    return result
