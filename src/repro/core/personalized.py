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

from typing import Sequence

import numpy as np

from ..cluster import CostModel, MessageSizeModel
from ..engine import ClusterState, build_cluster
from ..errors import ConfigError
from ..graph import DiGraph, sorted_unique
from .batched import (
    BatchedFrogWildResult,
    BatchedFrogWildRunner,
    BatchQuery,
    run_frogwild_batch,
)
from .config import FrogWildConfig
from .frogwild import FrogWildResult

__all__ = [
    "seed_distribution",
    "run_personalized_frogwild",
    "run_personalized_frogwild_batch",
]


def seed_distribution(
    num_vertices: int,
    seeds: np.ndarray,
    weights: np.ndarray | None = None,
) -> np.ndarray:
    """Teleport distribution concentrated on ``seeds``.

    Uniform over the seed set by default; ``weights`` (same length as
    ``seeds``) gives a weighted restart law.
    """
    seeds = np.asarray(seeds, dtype=np.int64)
    if seeds.size == 0:
        raise ConfigError("seed set must be non-empty")
    if seeds.min() < 0 or seeds.max() >= num_vertices:
        raise ConfigError("seed ids out of range")
    if sorted_unique(seeds).size != seeds.size:
        raise ConfigError("seed ids must be distinct")
    distribution = np.zeros(num_vertices, dtype=np.float64)
    if weights is None:
        distribution[seeds] = 1.0 / seeds.size
    else:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != seeds.shape:
            raise ConfigError("weights must align with seeds")
        if not np.isfinite(weights).all():
            raise ConfigError("weights must be finite")
        if weights.min() < 0 or weights.sum() <= 0:
            raise ConfigError("weights must be non-negative with mass")
        distribution[seeds] = weights / weights.sum()
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

    The returned estimate approximates the PPR vector with teleport
    distribution :func:`seed_distribution`; compare against
    ``exact_pagerank(graph, personalization=...)``.
    """
    config = config or FrogWildConfig()
    distribution = seed_distribution(graph.num_vertices, seeds, weights)
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
        state, config, [BatchQuery(start_distribution=distribution)]
    ).run_single()


def run_personalized_frogwild_batch(
    graph: DiGraph,
    seed_sets: Sequence[np.ndarray],
    config: FrogWildConfig | None = None,
    weights: Sequence[np.ndarray | None] | None = None,
    num_machines: int = 16,
    partitioner: str = "random",
    cost_model: CostModel | None = None,
    size_model: MessageSizeModel | None = None,
    state: ClusterState | None = None,
) -> BatchedFrogWildResult:
    """Answer B personalized top-k queries through one shared traversal.

    Each entry of ``seed_sets`` becomes one frog population whose birth
    law is :func:`seed_distribution` of that seed set — by Lemma 16, the
    population samples that PPR vector — and all B populations advance
    together in a :class:`~repro.core.batched.BatchedFrogWildRunner`.
    ``weights`` optionally aligns per-query restart weights with
    ``seed_sets``.  Results come back in query order with per-query cost
    attribution; a single-element batch is bit-identical to
    :func:`run_personalized_frogwild`.
    """
    if not len(seed_sets):
        raise ConfigError("seed_sets must be non-empty")
    if weights is not None and len(weights) != len(seed_sets):
        raise ConfigError("weights must align with seed_sets")
    config = config or FrogWildConfig()
    queries = [
        BatchQuery(
            start_distribution=seed_distribution(
                graph.num_vertices,
                seeds,
                None if weights is None else weights[index],
            )
        )
        for index, seeds in enumerate(seed_sets)
    ]
    return run_frogwild_batch(
        graph,
        queries,
        config,
        num_machines=num_machines,
        partitioner=partitioner,
        cost_model=cost_model,
        size_model=size_model,
        state=state,
    )
