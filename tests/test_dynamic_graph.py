"""Tests for the mutable graph and churn generator."""

import numpy as np
import pytest

from repro.dynamic import ChurnGenerator, DynamicDiGraph, GraphDelta
from repro.errors import ConfigError, GraphError
from repro.graph import twitter_like


class TestGraphDelta:
    def test_empty_delta(self):
        delta = GraphDelta()
        assert delta.num_added == 0
        assert delta.num_removed == 0

    def test_counts(self):
        delta = GraphDelta(added=[(0, 1), (1, 2)], removed=[(2, 3)])
        assert delta.num_added == 2
        assert delta.num_removed == 1

    def test_rejects_bad_shape(self):
        with pytest.raises(GraphError):
            GraphDelta(added=np.array([1, 2, 3]))

    def test_rejects_negative_ids(self):
        with pytest.raises(GraphError):
            GraphDelta(added=[(-1, 2)])


class TestDynamicDiGraph:
    def test_initial_edges_deduped(self):
        graph = DynamicDiGraph(4, [(0, 1), (0, 1), (1, 2)])
        assert graph.num_edges == 2

    def test_rejects_zero_vertices(self):
        with pytest.raises(GraphError):
            DynamicDiGraph(0)

    def test_rejects_out_of_range_edges(self):
        with pytest.raises(GraphError):
            DynamicDiGraph(3, [(0, 5)])

    def test_add_counts_only_new(self):
        graph = DynamicDiGraph(4, [(0, 1)])
        assert graph.add_edges([(0, 1), (1, 2)]) == 1
        assert graph.num_edges == 2

    def test_remove_counts_only_existing(self):
        graph = DynamicDiGraph(4, [(0, 1), (1, 2)])
        assert graph.remove_edges([(0, 1), (2, 3)]) == 1
        assert graph.num_edges == 1

    def test_has_edge(self):
        graph = DynamicDiGraph(4, [(0, 1)])
        assert graph.has_edge(0, 1)
        assert not graph.has_edge(1, 0)

    def test_has_edge_bounds_checked(self):
        with pytest.raises(GraphError):
            DynamicDiGraph(2).has_edge(0, 7)

    def test_version_bumps_on_mutation(self):
        graph = DynamicDiGraph(4, [(0, 1)])
        v0 = graph.version
        graph.add_edges([(1, 2)])
        graph.remove_edges([(0, 1)])
        assert graph.version == v0 + 2

    def test_apply_removes_before_adding(self):
        graph = DynamicDiGraph(4, [(0, 1)])
        # Atomic rewire: delete (0,1), re-add it — the edge must survive.
        added, removed = graph.apply(
            GraphDelta(added=[(0, 1)], removed=[(0, 1)])
        )
        assert (added, removed) == (1, 1)
        assert graph.has_edge(0, 1)

    def test_out_degree(self):
        graph = DynamicDiGraph(3, [(0, 1), (0, 2), (1, 2)])
        assert list(graph.out_degree()) == [2, 1, 0]

    def test_snapshot_roundtrip(self):
        graph = DynamicDiGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        snapshot = graph.snapshot()
        assert snapshot.num_vertices == 4
        assert snapshot.num_edges == 4
        assert np.array_equal(snapshot.edge_keys(), graph.edge_keys())

    def test_snapshot_repairs_dangling(self):
        graph = DynamicDiGraph(3, [(0, 1), (1, 2)])
        snapshot = graph.snapshot()  # vertex 2 dangles -> self loop
        assert snapshot.out_degree(2) == 1

    def test_from_digraph_roundtrip(self):
        base = twitter_like(n=300, seed=1)
        dynamic = DynamicDiGraph.from_digraph(base)
        assert dynamic.num_edges == base.num_edges
        assert dynamic.snapshot(repair_dangling="none") == base


class TestChurnGenerator:
    @pytest.fixture
    def live_graph(self):
        return DynamicDiGraph.from_digraph(twitter_like(n=500, seed=7))

    def test_rejects_bad_rates(self):
        with pytest.raises(ConfigError):
            ChurnGenerator(add_rate=-0.1)
        with pytest.raises(ConfigError):
            ChurnGenerator(add_rate=0.0, remove_rate=0.0)
        with pytest.raises(ConfigError):
            ChurnGenerator(attachment_bias=2.0)

    def test_step_sizes_follow_rates(self, live_graph):
        churn = ChurnGenerator(add_rate=0.02, remove_rate=0.01, seed=0)
        delta = churn.step(live_graph)
        m = live_graph.num_edges
        assert delta.num_added == round(0.02 * m)
        assert delta.num_removed == round(0.01 * m)

    def test_removals_are_existing_edges(self, live_graph):
        churn = ChurnGenerator(add_rate=0.0, remove_rate=0.05, seed=0)
        delta = churn.step(live_graph)
        for u, v in delta.removed:
            assert live_graph.has_edge(int(u), int(v))

    def test_no_self_loops_added(self, live_graph):
        churn = ChurnGenerator(add_rate=0.05, remove_rate=0.0, seed=0)
        delta = churn.step(live_graph)
        assert np.all(delta.added[:, 0] != delta.added[:, 1])

    def test_steady_state_under_equal_rates(self, live_graph):
        churn = ChurnGenerator(add_rate=0.02, remove_rate=0.02, seed=0)
        m0 = live_graph.num_edges
        for _ in churn.stream(live_graph, steps=10):
            pass
        # Added edges may collide with existing ones, so the count can
        # drift slightly down, never explode.
        assert 0.8 * m0 < live_graph.num_edges <= m0 * 1.05

    def test_preferential_attachment_targets_hubs(self, live_graph):
        """With full bias, added targets concentrate above uniform."""
        biased = ChurnGenerator(
            add_rate=0.5, remove_rate=0.0, attachment_bias=1.0, seed=0
        )
        delta = biased.step(live_graph)
        in_degree = np.bincount(
            live_graph.edge_keys() % live_graph.num_vertices,
            minlength=live_graph.num_vertices,
        )
        hubs = np.argsort(in_degree)[-50:]
        share = np.isin(delta.added[:, 1], hubs).mean()
        uniform_share = 50 / live_graph.num_vertices
        assert share > 3 * uniform_share

    def test_stream_without_apply_forks(self, live_graph):
        churn = ChurnGenerator(add_rate=0.02, remove_rate=0.02, seed=0)
        m0 = live_graph.num_edges
        deltas = list(churn.stream(live_graph, steps=3, apply=False))
        assert len(deltas) == 3
        assert live_graph.num_edges == m0

    def test_stream_rejects_negative_steps(self, live_graph):
        churn = ChurnGenerator(seed=0)
        with pytest.raises(ConfigError):
            list(churn.stream(live_graph, steps=-1))

    def test_deterministic(self):
        a_graph = DynamicDiGraph.from_digraph(twitter_like(n=200, seed=3))
        b_graph = DynamicDiGraph.from_digraph(twitter_like(n=200, seed=3))
        a = ChurnGenerator(seed=11).step(a_graph)
        b = ChurnGenerator(seed=11).step(b_graph)
        assert np.array_equal(a.added, b.added)
        assert np.array_equal(a.removed, b.removed)
