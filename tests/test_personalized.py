"""Tests for the Personalized PageRank extension."""

import numpy as np
import pytest

from repro.core import (
    FrogWildConfig,
    run_personalized_frogwild,
    seed_distribution,
)
from repro.errors import ConfigError
from repro.graph import cycle_graph, twitter_like
from repro.metrics import normalized_mass_captured
from repro.pagerank import exact_pagerank


class TestSeedDistribution:
    def test_uniform_over_seeds(self):
        dist = seed_distribution(10, np.array([2, 5]))
        assert dist[2] == pytest.approx(0.5)
        assert dist[5] == pytest.approx(0.5)
        assert dist.sum() == pytest.approx(1.0)

    def test_weighted(self):
        dist = seed_distribution(5, np.array([0, 1]), np.array([3.0, 1.0]))
        assert dist[0] == pytest.approx(0.75)
        assert dist[1] == pytest.approx(0.25)

    def test_validation(self):
        with pytest.raises(ConfigError):
            seed_distribution(5, np.array([], dtype=np.int64))
        with pytest.raises(ConfigError):
            seed_distribution(5, np.array([7]))
        with pytest.raises(ConfigError):
            seed_distribution(5, np.array([1, 1]))
        with pytest.raises(ConfigError):
            seed_distribution(5, np.array([0, 1]), np.array([1.0]))
        with pytest.raises(ConfigError):
            seed_distribution(5, np.array([0]), np.array([-1.0]))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_weights_rejected(self, bad):
        """A non-finite weight is refused where the law is made, never
        turned into a NaN law that the runner rejects later."""
        with pytest.raises(ConfigError, match="finite"):
            seed_distribution(10, np.array([0, 1]), np.array([bad, 1.0]))
        with pytest.raises(ConfigError, match="finite"):
            run_personalized_frogwild(
                cycle_graph(10),
                np.array([0, 1]),
                FrogWildConfig(num_frogs=50, iterations=2),
                weights=np.array([bad, 1.0]),
                num_machines=2,
            )


class TestSeedIdsAreIntegers:
    """A float or bool seed id is refused with a ConfigError wherever a
    seed set enters, never truncated to a vertex (1.9 -> 1, True -> 1)."""

    BAD = ([1.9, 3.2], [0.5, 3.9], [True, 3], np.array([1.0, 2.0]))

    @pytest.mark.parametrize("seeds", BAD)
    def test_seed_distribution(self, seeds):
        with pytest.raises(ConfigError, match="integers"):
            seed_distribution(10, seeds)

    @pytest.mark.parametrize("seeds", BAD)
    def test_run_personalized_frogwild(self, seeds):
        with pytest.raises(ConfigError, match="integers"):
            run_personalized_frogwild(
                cycle_graph(10),
                seeds,
                FrogWildConfig(num_frogs=50, iterations=2),
                num_machines=2,
            )

    @pytest.mark.parametrize("seeds", BAD)
    def test_batch_query(self, seeds):
        from repro.core import BatchQuery, run_frogwild_batch

        with pytest.raises(ConfigError, match="integers"):
            run_frogwild_batch(
                cycle_graph(10),
                [BatchQuery(), BatchQuery(seeds=seeds)],
                FrogWildConfig(num_frogs=50, iterations=2),
                num_machines=2,
            )


class TestExactPersonalized:
    def test_mass_concentrates_near_seeds(self):
        graph = cycle_graph(30)
        personalization = seed_distribution(30, np.array([0]))
        ppr = exact_pagerank(graph, personalization=personalization)
        # On a directed cycle, PPR decays geometrically ahead of the seed.
        assert ppr[0] > ppr[1] > ppr[2]
        assert ppr[0] > 0.1
        assert ppr.sum() == pytest.approx(1.0)

    def test_uniform_personalization_equals_classic(self, small_twitter):
        n = small_twitter.num_vertices
        classic = exact_pagerank(small_twitter)
        uniform = exact_pagerank(
            small_twitter, personalization=np.full(n, 1.0 / n)
        )
        np.testing.assert_allclose(classic, uniform, atol=1e-10)

    def test_validation(self, small_twitter):
        with pytest.raises(ConfigError, match="shape"):
            exact_pagerank(small_twitter, personalization=np.ones(3))
        bad = np.zeros(small_twitter.num_vertices)
        bad[0] = 2.0
        with pytest.raises(ConfigError, match="probability"):
            exact_pagerank(small_twitter, personalization=bad)


class TestFrogWildPersonalized:
    @pytest.fixture(scope="class")
    def graph(self):
        return twitter_like(n=2000, seed=9)

    def test_matches_exact_ppr_topk(self, graph):
        seeds = np.array([5, 10, 15])
        truth = exact_pagerank(
            graph,
            personalization=seed_distribution(graph.num_vertices, seeds),
        )
        result = run_personalized_frogwild(
            graph,
            seeds,
            FrogWildConfig(num_frogs=20_000, iterations=8, seed=0),
            num_machines=4,
        )
        mass = normalized_mass_captured(result.estimate.vector(), truth, 20)
        assert mass > 0.9

    def test_differs_from_global_pagerank(self, graph):
        seeds = np.array([123])
        global_truth = exact_pagerank(graph)
        result = run_personalized_frogwild(
            graph,
            seeds,
            FrogWildConfig(num_frogs=10_000, iterations=8, seed=0),
            num_machines=4,
        )
        # The seed itself ranks far higher in PPR than globally.
        ppr_rank = int(
            np.flatnonzero(result.estimate.top_k(graph.num_vertices) == 123)[0]
        )
        global_rank = int(np.flatnonzero(np.argsort(-global_truth) == 123)[0])
        assert ppr_rank < global_rank

    def test_conserves_frogs(self, graph):
        result = run_personalized_frogwild(
            graph,
            np.array([0, 1]),
            FrogWildConfig(num_frogs=2_000, iterations=4, ps=0.5, seed=1),
            num_machines=4,
        )
        assert result.estimate.total_stopped == 2_000

    def test_bad_seed_set_rejected(self, graph, monkeypatch):
        """One seed-set check serves every run: a batch and its single
        run, and without a prebuilt state both refuse before building
        the cluster."""
        from repro.core import (
            BatchedFrogWildRunner,
            BatchQuery,
            batched,
            personalized,
        )
        from repro.engine import build_cluster

        n = graph.num_vertices
        state = build_cluster(graph, 2, seed=0)

        def no_ingress(*args, **kwargs):
            raise AssertionError("built the cluster for a bad seed set")

        monkeypatch.setattr(batched, "build_cluster", no_ingress)
        monkeypatch.setattr(personalized, "build_cluster", no_ingress)
        for seeds, weights, message in [
            ([], None, "non-empty"),
            ([0, n], None, "out of range"),
            ([-1, 2], None, "out of range"),
            ([4, 4], None, "distinct"),
            ([0.5, 3.9], None, "integers"),
            ([True, 3], None, "integers"),
            ([0, 1], [1.0], "align"),
            ([0, 1], [-0.5, 1.5], "positive mass"),
            ([0, 1], [0.0, 0.0], "positive mass"),
            ([0, 1], [1e308, 1e308], "positive mass"),
            ([0, 1], [np.nan, 1.0], "finite"),
        ]:
            for prebuilt in (state, None):
                with pytest.raises(ConfigError, match=message):
                    run_personalized_frogwild(
                        graph, seeds, FrogWildConfig(), weights,
                        state=prebuilt,
                    )
            with pytest.raises(ConfigError, match=message):
                batched.run_frogwild_batch(
                    graph, [BatchQuery(seeds=seeds, weights=weights)]
                )
            for queries in (
                [BatchQuery(seeds=seeds, weights=weights)],
                [BatchQuery(), BatchQuery(seeds=seeds, weights=weights)],
            ):
                with pytest.raises(ConfigError, match=message):
                    BatchedFrogWildRunner(state, FrogWildConfig(), queries)
