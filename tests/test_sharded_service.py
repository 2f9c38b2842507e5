"""Sharded execution backend: accuracy, exact cost partition, merging.

The sharded backend splits each query's frog budget across shard
sub-clusters and merges the per-shard counters by summation — exact
because frogs are independent walkers.  These tests pin down:

* golden-tolerance agreement of the 4-shard top-k with both the
  unsharded :class:`LocalBackend` and exact (personalized) PageRank,
  at the same thresholds as ``test_golden_topk``;
* exact partitioning of per-query cost attribution across shards;
* the merge primitives (counter, ledger, report) in isolation.
"""

import numpy as np
import pytest

from repro.core import (
    FrogWildConfig,
    PageRankEstimate,
    merge_shard_results,
    seed_distribution,
)
from repro.engine import CostLedger
from repro.errors import ConfigError
from repro.graph import twitter_like
from repro.metrics import normalized_mass_captured
from repro.pagerank import exact_pagerank
from repro.serving import (
    LocalBackend,
    RankingQuery,
    RankingService,
    ServiceConfig,
    ShardedBackend,
)

GRAPH = twitter_like(n=1000, seed=21)  # the golden regression graph
CONFIG = FrogWildConfig(num_frogs=30_000, iterations=8, seed=1, ps=0.8)
SEED_SETS = [np.array([7]), np.array([11, 42]), np.array([100, 3])]
QUERIES = [
    RankingQuery(seeds=tuple(seeds.tolist()), k=10) for seeds in SEED_SETS
]


def _overlap(estimated: np.ndarray, ranking: np.ndarray, k: int) -> float:
    exact_top = set(np.argsort(-ranking)[:k].tolist())
    return len(set(estimated.tolist()) & exact_top) / k


@pytest.fixture(scope="module")
def outcomes():
    local = LocalBackend(GRAPH, num_machines=8, seed=0)
    sharded = ShardedBackend(GRAPH, num_shards=4, num_machines=8, seed=0)
    return (
        local.run_batch(CONFIG, QUERIES),
        sharded.run_batch(CONFIG, QUERIES),
    )


class TestShardedGolden:
    def test_topk_within_golden_tolerance_of_local(self, outcomes):
        """4-shard top-k agrees with the unsharded backend at the
        thresholds of ``test_golden_topk``: both are FrogWild samples of
        the same PPR law, so they overlap each other at least as well
        as each overlaps the exact ranking."""
        local, sharded = outcomes
        for seeds, local_lane, sharded_lane in zip(
            SEED_SETS, local.lanes, sharded.lanes
        ):
            personalization = seed_distribution(GRAPH.num_vertices, seeds)
            truth = exact_pagerank(GRAPH, personalization=personalization)
            # Same tolerances as TestBatchedGolden's personalized check.
            assert _overlap(sharded_lane.estimate.top_k(10), truth, 10) >= 0.6
            mass = normalized_mass_captured(
                sharded_lane.estimate.vector(), truth, 20
            )
            assert mass > 0.8
            # Sharded and local agree with each other.
            assert _overlap(
                sharded_lane.estimate.top_k(10),
                local_lane.estimate.vector(),
                10,
            ) >= 0.6

    def test_merged_estimate_spends_the_full_budget(self, outcomes):
        _, sharded = outcomes
        for lane in sharded.lanes:
            assert lane.estimate.num_frogs == CONFIG.num_frogs
            assert lane.report.extra["shards"] == 4.0

    def test_sharded_execution_is_deterministic(self):
        backend = ShardedBackend(GRAPH, num_shards=4, num_machines=8, seed=0)
        first = backend.run_batch(CONFIG, QUERIES)
        second = backend.run_batch(CONFIG, QUERIES)
        for a, b in zip(first.lanes, second.lanes):
            np.testing.assert_array_equal(a.estimate.counts, b.estimate.counts)
            assert a.report.network_bytes == b.report.network_bytes


class TestCostPartition:
    def test_attribution_sums_exactly_across_shards(self, outcomes):
        """Billed bytes partition exactly: summed per-query attribution
        equals the summed per-shard attribution, and the shared bytes
        equal the sum of shard wire traffic."""
        _, sharded = outcomes
        assert len(sharded.shards) == 4
        lane_attributed = sum(
            lane.report.network_bytes for lane in sharded.lanes
        )
        shard_attributed = sum(
            cost.attributed_network_bytes for cost in sharded.shards
        )
        assert lane_attributed == shard_attributed
        assert sharded.shared_network_bytes == sum(
            cost.shared_network_bytes for cost in sharded.shards
        )
        lane_cpu = sum(lane.report.cpu_seconds for lane in sharded.lanes)
        shard_cpu = sum(cost.cpu_seconds for cost in sharded.shards)
        assert lane_cpu == pytest.approx(shard_cpu)

    def test_merge_goes_through_the_ledger(self):
        """Batched-runner lanes carry their CostLedger, and
        merge_shard_results merges through it: the merged report's
        bytes equal the merged ledger's standalone pricing, which in
        turn equals the sum of the per-shard priced bytes (pricing is
        linear in records and messages)."""
        from repro.core import run_frogwild_batch, BatchQuery

        config = FrogWildConfig(num_frogs=1_000, iterations=3, seed=0)
        shard_lanes = []
        for shard in range(2):
            result = run_frogwild_batch(
                GRAPH,
                [BatchQuery(num_frogs=500, seed=shard)],
                config,
                num_machines=4,
            )
            lane = result.results[0]
            assert lane.ledger is not None
            shard_lanes.append(lane)
        merged = merge_shard_results(shard_lanes)
        assert merged.ledger is not None
        assert merged.report.network_bytes == (
            merged.ledger.standalone_network_bytes()
        )
        assert merged.report.network_bytes == sum(
            lane.report.network_bytes for lane in shard_lanes
        )
        assert merged.ledger.supersteps == max(
            lane.ledger.supersteps for lane in shard_lanes
        )
        # Merging copied, it did not mutate the first shard's ledger.
        assert shard_lanes[0].ledger.network_records <= (
            merged.ledger.network_records
        )
        assert shard_lanes[0].report.network_bytes == (
            shard_lanes[0].ledger.standalone_network_bytes()
        )

    def test_batch_wall_time_is_slowest_shard(self, outcomes):
        _, sharded = outcomes
        assert sharded.simulated_time_s == max(
            cost.simulated_time_s for cost in sharded.shards
        )
        for lane in sharded.lanes:
            assert lane.report.total_time_s <= sharded.simulated_time_s

    def test_each_shard_amortizes_internally(self, outcomes):
        _, sharded = outcomes
        for cost in sharded.shards:
            assert cost.shared_network_bytes <= cost.attributed_network_bytes


class TestBudgetSplit:
    def test_uneven_budget_goes_to_low_shards(self):
        backend = ShardedBackend(GRAPH, num_shards=4, num_machines=8, seed=0)
        assert backend._shares(10) == [3, 3, 2, 2]
        assert backend._shares(4) == [1, 1, 1, 1]

    def test_budget_smaller_than_shards_skips_idle_shards(self):
        backend = ShardedBackend(GRAPH, num_shards=4, num_machines=8, seed=0)
        config = FrogWildConfig(num_frogs=2, iterations=2, seed=0)
        outcome = backend.run_batch(config, QUERIES[:1])
        assert len(outcome.shards) == 2  # shards 2 and 3 sat this out
        assert outcome.lanes[0].estimate.num_frogs == 2

    def test_validation(self):
        with pytest.raises(ConfigError):
            ShardedBackend(GRAPH, num_shards=0)
        # A fleet smaller than the shard count cannot be split honestly.
        with pytest.raises(ConfigError):
            ShardedBackend(GRAPH, num_shards=4, num_machines=2)
        # Remainder machines stay idle.
        backend = ShardedBackend(GRAPH, num_shards=3, num_machines=7)
        assert backend.machines_per_shard == 2


class TestShardedService:
    def test_service_with_shards_reports_breakdown(self):
        service = RankingService(
            GRAPH,
            ServiceConfig(
                config=FrogWildConfig(num_frogs=2_000, iterations=4, seed=0),
                num_machines=8, num_shards=4, max_batch_size=4
            ),
        )
        assert service.num_shards == 4
        assert service.replication is None  # no single-cluster ingress
        answers = service.query_batch(
            [RankingQuery(seeds=(v,)) for v in range(3)]
        )
        assert len(answers) == 3
        breakdown = service.stats.shard_breakdown()
        assert sorted(breakdown) == [0, 1, 2, 3]
        assert sum(
            costs["attributed_network_bytes"] for costs in breakdown.values()
        ) == service.stats.attributed_network_bytes
        row = service.stats.as_dict()
        assert "shard0_shared_network_bytes" in row
        # Cached replay is unaffected by sharding.
        assert service.query([0]).cached


class TestMergePrimitives:
    def test_estimate_merge_sums_counts_and_frogs(self):
        a = PageRankEstimate(np.array([1, 2, 3]), 6)
        b = PageRankEstimate(np.array([4, 0, 1]), 5)
        merged = PageRankEstimate.merge([a, b])
        np.testing.assert_array_equal(merged.counts, [5, 2, 4])
        assert merged.num_frogs == 11

    def test_estimate_merge_validates(self):
        with pytest.raises(ConfigError):
            PageRankEstimate.merge([])
        with pytest.raises(ConfigError):
            PageRankEstimate.merge([
                PageRankEstimate(np.array([1]), 1),
                PageRankEstimate(np.array([1, 2]), 1),
            ])

    def test_ledger_merge_adds_costs_takes_max_steps(self):
        a = CostLedger(record_bytes=8, message_header_bytes=32,
                       supersteps=5, cpu_ops=100, network_records=10,
                       network_messages=3)
        b = CostLedger(record_bytes=8, message_header_bytes=32,
                       supersteps=7, cpu_ops=50, network_records=4,
                       network_messages=2)
        a.merge(b)
        assert a.supersteps == 7
        assert a.cpu_ops == 150
        assert a.network_records == 14 and a.network_messages == 5
        assert a.standalone_network_bytes() == 32 * 5 + 8 * 14

    def test_ledger_merge_rejects_mismatched_pricing(self):
        from repro.errors import EngineError

        a = CostLedger(record_bytes=8, message_header_bytes=32)
        b = CostLedger(record_bytes=16, message_header_bytes=32)
        with pytest.raises(EngineError):
            a.merge(b)

    def test_merge_shard_results_single_lane_passthrough(self):
        backend = LocalBackend(GRAPH, num_machines=4, seed=0)
        outcome = backend.run_batch(
            FrogWildConfig(num_frogs=500, iterations=2, seed=0), QUERIES[:1]
        )
        lane = outcome.lanes[0]
        from repro.core.frogwild import FrogWildResult

        result = FrogWildResult(lane.estimate, lane.report, None)
        assert merge_shard_results([result]) is result
        with pytest.raises(ConfigError):
            merge_shard_results([])
