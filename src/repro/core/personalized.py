"""Personalized PageRank (PPR) with FrogWild walkers.

The paper discusses PPR as related work (Section 2.4): it measures the
influence of a *seed set* on every other vertex, and top-k PPR is the
basis of recommendation and local-community queries.  FrogWild extends
to PPR for free: by Lemma 16 the walk restarts at its birth law, so
frogs born on the seed set — instead of uniformly — sample exactly the
PPR vector with teleport distribution concentrated on the seeds.

This is the repository's implementation of that extension.  The exact
counterpart lives in :func:`repro.pagerank.exact_pagerank` via its
``personalization`` argument.
"""

from __future__ import annotations

import numpy as np

from ..cluster import CostModel, MessageSizeModel
from ..engine import ClusterState, build_cluster
from ..graph import DiGraph
from .batched import BatchedFrogWildRunner, BatchQuery
from .config import FrogWildConfig, check_seed_set
from .frogwild import FrogWildResult

__all__ = ["seed_distribution", "run_personalized_frogwild"]


def seed_distribution(
    num_vertices: int,
    seeds: np.ndarray,
    weights: np.ndarray | None = None,
) -> np.ndarray:
    """Teleport distribution concentrated on ``seeds``, as an n-vector.

    Uniform over the seed set by default; ``weights`` (same length as
    ``seeds``) gives a weighted restart law.  This is the
    ``personalization`` vector of exact PPR
    (:func:`repro.pagerank.exact_pagerank`).  The runner never builds
    it: frogs are born on the seed set itself
    (:class:`~repro.core.batched.BatchQuery`).
    """
    seeds, weights = check_seed_set(seeds, weights, num_vertices)
    distribution = np.zeros(num_vertices, dtype=np.float64)
    distribution[seeds] = (
        1.0 / seeds.size if weights is None else weights / weights.sum()
    )
    return distribution


def run_personalized_frogwild(
    graph: DiGraph,
    seeds: np.ndarray,
    config: FrogWildConfig | None = None,
    weights: np.ndarray | None = None,
    num_machines: int = 16,
    partitioner: str = "random",
    cost_model: CostModel | None = None,
    size_model: MessageSizeModel | None = None,
    state: ClusterState | None = None,
) -> FrogWildResult:
    """FrogWild estimate of the Personalized PageRank of ``seeds``.

    Its frogs are born on ``seeds`` (under ``weights``), so the
    returned estimate approximates the PPR vector with teleport
    distribution :func:`seed_distribution`; compare against
    ``exact_pagerank(graph, personalization=...)``.
    """
    config = config or FrogWildConfig()
    # Refuse a bad seed set before paying for the ingress.
    seeds, weights = check_seed_set(seeds, weights, graph.num_vertices)
    if state is None:
        state = build_cluster(
            graph,
            num_machines,
            partitioner=partitioner,
            cost_model=cost_model,
            size_model=size_model,
            seed=config.seed,
        )
    else:
        state.check_graph(graph)
    return BatchedFrogWildRunner(
        state, config, [BatchQuery(seeds=seeds, weights=weights)]
    ).run_single()
