"""Tests for stable hash ingress and the dynamic top-k tracker."""

import numpy as np
import pytest

from repro.cluster import ReplicationTable
from repro.core import FrogWildConfig
from repro.dynamic import (
    ChurnGenerator,
    DynamicDiGraph,
    GraphDelta,
    PageRankTracker,
    stable_hash_partition,
)
from repro.errors import ConfigError
from repro.graph import twitter_like
from repro.store import keys_to_edges


def _edges(graph):
    return keys_to_edges(graph.edge_keys(), graph.num_vertices)


class TestStableHashPartition:
    def test_uniform_balance(self, small_twitter):
        part = stable_hash_partition(small_twitter, 8)
        assert part.load_imbalance() < 1.2

    def test_deterministic(self, small_twitter):
        a = stable_hash_partition(small_twitter, 8, seed=1)
        b = stable_hash_partition(small_twitter, 8, seed=1)
        assert np.array_equal(a.edge_machine, b.edge_machine)

    def test_seed_changes_placement(self, small_twitter):
        a = stable_hash_partition(small_twitter, 8, seed=1)
        b = stable_hash_partition(small_twitter, 8, seed=2)
        assert not np.array_equal(a.edge_machine, b.edge_machine)

    def test_surviving_edges_keep_machines(self):
        """The stability property: placement is a pure edge function."""
        base = twitter_like(n=400, seed=5)
        dynamic = DynamicDiGraph.from_digraph(base)
        snap_a = dynamic.snapshot()
        part_a = stable_hash_partition(snap_a, 6)
        placement_a = {
            (int(u), int(v)): int(m)
            for (u, v), m in zip(_edges(snap_a), part_a.edge_machine)
        }

        churn = ChurnGenerator(add_rate=0.05, remove_rate=0.05, seed=0)
        dynamic.apply(churn.step(dynamic))
        snap_b = dynamic.snapshot()
        part_b = stable_hash_partition(snap_b, 6)
        for (u, v), machine in zip(_edges(snap_b), part_b.edge_machine):
            key = (int(u), int(v))
            if key in placement_a:
                assert placement_a[key] == int(machine)

    def test_rejects_zero_machines(self, small_twitter):
        with pytest.raises(ConfigError):
            stable_hash_partition(small_twitter, 0)

    def test_usable_for_replication(self, small_twitter):
        part = stable_hash_partition(small_twitter, 4)
        table = ReplicationTable(small_twitter, part)
        assert table.replication_factor() >= 1.0


class TestPageRankTracker:
    @pytest.fixture
    def tracked(self):
        base = twitter_like(n=600, seed=9)
        dynamic = DynamicDiGraph.from_digraph(base)
        tracker = PageRankTracker(
            dynamic,
            k=15,
            config=FrogWildConfig(num_frogs=8_000, iterations=4, seed=0),
            num_machines=4,
            seed=0,
        )
        return dynamic, tracker

    def test_initial_refresh_recorded(self, tracked):
        _, tracker = tracked
        assert len(tracker.history) == 1
        first = tracker.history[0]
        assert first.step == 0
        assert first.jaccard_vs_previous == 1.0
        assert first.new_edge_placements > 0

    def test_current_top_k_size(self, tracked):
        _, tracker = tracked
        assert tracker.current_top_k.size == 15

    def test_update_applies_delta(self, tracked):
        dynamic, tracker = tracked
        m0 = dynamic.num_edges
        update = tracker.update(GraphDelta(added=[(0, 1), (1, 0)]))
        assert dynamic.num_edges >= m0
        assert update.step == 1
        assert len(tracker.history) == 2

    def test_incremental_ingress_charges_only_new_edges(self, tracked):
        dynamic, tracker = tracked
        churn = ChurnGenerator(add_rate=0.01, remove_rate=0.01, seed=1)
        delta = churn.step(dynamic)
        update = tracker.update(delta)
        # Placements are bounded by the batch of added edges (plus any
        # self-loop repairs for newly dangling vertices).
        assert update.new_edge_placements <= delta.num_added + delta.num_removed

    def test_small_churn_keeps_list_stable(self, tracked):
        dynamic, tracker = tracked
        churn = ChurnGenerator(add_rate=0.005, remove_rate=0.005, seed=2)
        for _ in range(3):
            tracker.update(churn.step(dynamic))
        assert tracker.churn_stability() > 0.6

    def test_totals_aggregate_history(self, tracked):
        dynamic, tracker = tracked
        tracker.update(GraphDelta(added=[(2, 3)]))
        assert tracker.total_network_bytes() == sum(
            u.network_bytes for u in tracker.history
        )
        assert tracker.total_time_s() == pytest.approx(
            sum(u.total_time_s for u in tracker.history)
        )

    def test_validate_mode_scores_against_exact(self):
        base = twitter_like(n=400, seed=2)
        tracker = PageRankTracker(
            DynamicDiGraph.from_digraph(base),
            k=10,
            config=FrogWildConfig(num_frogs=10_000, iterations=4, seed=0),
            num_machines=4,
            validate=True,
        )
        mass = tracker.history[0].mass_vs_exact
        assert mass is not None
        assert mass > 0.8

    def test_rejects_k_above_n(self):
        with pytest.raises(ConfigError):
            PageRankTracker(DynamicDiGraph(5, [(0, 1)]), k=10)

    def test_rejects_nonpositive_k(self):
        with pytest.raises(ConfigError):
            PageRankTracker(DynamicDiGraph(5, [(0, 1)]), k=0)

    def test_hub_takeover_is_detected(self):
        """Rewiring the graph toward a new hub must change the list."""
        base = twitter_like(n=500, seed=4)
        dynamic = DynamicDiGraph.from_digraph(base)
        tracker = PageRankTracker(
            dynamic,
            k=5,
            config=FrogWildConfig(num_frogs=10_000, iterations=4, seed=0),
            num_machines=4,
        )
        newcomer = 499  # tail vertex: give it massive in-links
        sources = [v for v in range(200) if v != newcomer]
        update = tracker.update(
            GraphDelta(added=[(s, newcomer) for s in sources])
        )
        assert newcomer in set(update.top_k.tolist())
        assert update.jaccard_vs_previous < 1.0
