"""Golden top-k regression tests against exact PageRank.

Seeded FrogWild and batched-FrogWild runs on small fixed graphs must
keep identifying the exact top-k within the tolerances the paper
justifies (Theorem 1 bounds the uncaptured mass; Figures 2/5 show >90%
of the top-100 mass captured at the paper's operating points).  The
thresholds here are deliberately *below* observed values by a safety
margin but far above chance, so a kernel refactor that silently
degrades accuracy — or breaks determinism — fails loudly.
"""

import numpy as np

from repro.core import (
    BatchQuery,
    FrogWildConfig,
    run_frogwild,
    run_frogwild_batch,
    seed_distribution,
)
from repro.graph import star_graph, twitter_like
from repro.metrics import normalized_mass_captured
from repro.pagerank import exact_pagerank

GRAPH = twitter_like(n=1000, seed=21)
TRUTH = exact_pagerank(GRAPH)


def _overlap(estimated: np.ndarray, exact_ranking: np.ndarray, k: int) -> float:
    exact_top = set(np.argsort(-exact_ranking)[:k].tolist())
    return len(set(estimated.tolist()) & exact_top) / k


class TestSingleRunGolden:
    def test_top10_overlap_with_exact(self):
        result = run_frogwild(
            GRAPH,
            FrogWildConfig(num_frogs=20_000, iterations=6, seed=4),
            num_machines=4,
        )
        assert _overlap(result.estimate.top_k(10), TRUTH, 10) >= 0.8

    def test_mass_captured_at_paper_operating_point(self):
        """ps = 0.7, t = 4: the regime of Figures 2 and 4."""
        result = run_frogwild(
            GRAPH,
            FrogWildConfig(num_frogs=20_000, iterations=4, ps=0.7, seed=4),
            num_machines=8,
        )
        mass = normalized_mass_captured(result.estimate.vector(), TRUTH, 50)
        assert mass > 0.9

    def test_star_graph_hub_is_exact(self):
        graph = star_graph(40)
        result = run_frogwild(
            graph,
            FrogWildConfig(num_frogs=4_000, iterations=4, seed=0),
            num_machines=4,
        )
        assert int(result.estimate.top_k(1)[0]) == 0

    def test_seeded_run_is_reproducible(self):
        config = FrogWildConfig(num_frogs=5_000, iterations=4, seed=123)
        first = run_frogwild(GRAPH, config, num_machines=4)
        second = run_frogwild(GRAPH, config, num_machines=4)
        np.testing.assert_array_equal(
            first.estimate.counts, second.estimate.counts
        )


class TestBatchedGolden:
    def test_batched_global_queries_hit_exact_topk(self):
        """Every population of a B=4 batch captures the exact top-k."""
        result = run_frogwild_batch(
            GRAPH,
            [BatchQuery(seed=s) for s in range(4)],
            FrogWildConfig(num_frogs=20_000, iterations=6, seed=0, ps=0.8),
            num_machines=4,
        )
        for lane in result.results:
            assert _overlap(lane.estimate.top_k(10), TRUTH, 10) >= 0.7
            mass = normalized_mass_captured(
                lane.estimate.vector(), TRUTH, 50
            )
            assert mass > 0.85

    def test_batched_personalized_matches_exact_ppr(self):
        """Each lane's top-k overlaps the exact PPR of its seed set."""
        seed_sets = [np.array([7]), np.array([11, 42]), np.array([100, 3])]
        result = run_frogwild_batch(
            GRAPH,
            [BatchQuery(seeds=seeds) for seeds in seed_sets],
            FrogWildConfig(num_frogs=30_000, iterations=8, seed=1, ps=0.8),
            num_machines=4,
        )
        for seeds, lane in zip(seed_sets, result.results):
            personalization = seed_distribution(GRAPH.num_vertices, seeds)
            ppr_truth = exact_pagerank(GRAPH, personalization=personalization)
            assert _overlap(lane.estimate.top_k(10), ppr_truth, 10) >= 0.6
            mass = normalized_mass_captured(
                lane.estimate.vector(), ppr_truth, 20
            )
            assert mass > 0.8

    def test_batched_accuracy_not_below_sequential(self):
        """Batching must not trade accuracy: the mean captured mass of a
        batch tracks the sequential runs' within a small tolerance (it
        is exactly equal when seeds match, which lanes here do)."""
        config = FrogWildConfig(num_frogs=10_000, iterations=5, seed=6, ps=0.7)
        lane_seeds = [6, 7, 8]
        batched = run_frogwild_batch(
            GRAPH,
            [BatchQuery(seed=s) for s in lane_seeds],
            config,
            num_machines=4,
        )
        batched_mass = np.mean([
            normalized_mass_captured(lane.estimate.vector(), TRUTH, 50)
            for lane in batched.results
        ])
        sequential_mass = np.mean([
            normalized_mass_captured(
                run_frogwild(
                    GRAPH, config.with_updates(seed=s), num_machines=4
                ).estimate.vector(),
                TRUTH,
                50,
            )
            for s in lane_seeds
        ])
        assert batched_mass >= sequential_mass - 0.02
