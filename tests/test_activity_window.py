"""Tests for the sliding-window activity graph."""

import numpy as np
import pytest

from repro.core import FrogWildConfig
from repro.dynamic import ActivityWindow, DynamicDiGraph
from repro.errors import ConfigError, GraphError
from repro.live import LiveRankingService
from repro.store import keys_to_edges


class TestValidation:
    @pytest.mark.parametrize("horizon", [0.0, np.nan, np.inf])
    def test_rejects_bad_horizon(self, horizon):
        with pytest.raises(ConfigError):
            ActivityWindow(10, horizon=horizon)

    def test_rejects_zero_vertices(self):
        with pytest.raises(GraphError):
            ActivityWindow(0, horizon=1.0)

    @pytest.mark.parametrize("timestamp", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_timestamp(self, timestamp):
        window = ActivityWindow(10, horizon=1.0)
        with pytest.raises(ConfigError, match="finite"):
            window.observe([(1, 2)], timestamp=timestamp)
        # Refused before it touched the window: later batches still
        # expire on time.
        window.observe([(3, 4)], timestamp=100.0)
        window.observe([(5, 6)], timestamp=200.0)
        assert window.current_edges().tolist() == [[5, 6]]

    def test_rejects_time_travel(self):
        window = ActivityWindow(10, horizon=5.0)
        window.observe([(0, 1)], timestamp=10.0)
        with pytest.raises(ConfigError):
            window.observe([(1, 2)], timestamp=9.0)

    def test_rejects_out_of_range_edges(self):
        window = ActivityWindow(3, horizon=5.0)
        with pytest.raises(GraphError):
            window.observe([(0, 7)], timestamp=0.0)


class TestTransitions:
    def test_first_interaction_adds_edge(self):
        window = ActivityWindow(10, horizon=5.0)
        delta = window.observe([(0, 1)], timestamp=0.0)
        assert delta.num_added == 1
        assert delta.num_removed == 0

    def test_repeat_interaction_is_silent(self):
        window = ActivityWindow(10, horizon=5.0)
        window.observe([(0, 1)], timestamp=0.0)
        delta = window.observe([(0, 1)], timestamp=1.0)
        assert delta.num_added == 0
        assert delta.num_removed == 0
        # Both interactions count: the edge outlives the first one.
        assert window.observe([], timestamp=5.5).num_removed == 0
        assert window.observe([], timestamp=6.0).num_removed == 1

    def test_expiry_removes_edge(self):
        window = ActivityWindow(10, horizon=5.0)
        window.observe([(0, 1)], timestamp=0.0)
        delta = window.observe([(2, 3)], timestamp=6.0)
        assert delta.num_added == 1
        removed = {tuple(row) for row in delta.removed}
        assert removed == {(0, 1)}

    def test_refresh_prevents_expiry(self):
        """A second interaction inside the horizon keeps the edge alive
        past the first one's expiry."""
        window = ActivityWindow(10, horizon=5.0)
        window.observe([(0, 1)], timestamp=0.0)
        window.observe([(0, 1)], timestamp=4.0)
        delta = window.observe([], timestamp=6.0)  # first event expires
        assert delta.num_removed == 0
        delta = window.observe([], timestamp=10.0)  # second one too
        removed = {tuple(row) for row in delta.removed}
        assert removed == {(0, 1)}

    def test_same_batch_refresh_not_expired(self):
        """An edge re-observed in the same batch that evicts its old
        interaction must stay present."""
        window = ActivityWindow(10, horizon=5.0)
        window.observe([(0, 1)], timestamp=0.0)
        delta = window.observe([(0, 1)], timestamp=6.0)
        assert delta.num_added == 0
        assert delta.num_removed == 0
        # One interaction is left: the edge dies with it.
        assert window.observe([], timestamp=11.0).num_removed == 1

    def test_exact_cutoff_expires(self):
        """Interactions aged exactly `horizon` are evicted."""
        window = ActivityWindow(10, horizon=5.0)
        window.observe([(0, 1)], timestamp=0.0)
        delta = window.observe([], timestamp=5.0)
        assert delta.num_removed == 1


class TestStateQueries:
    def test_current_edges(self):
        window = ActivityWindow(10, horizon=5.0)
        window.observe([(0, 1), (1, 2)], timestamp=0.0)
        window.observe([(2, 3)], timestamp=6.0)
        edges = {tuple(row) for row in window.current_edges()}
        assert edges == {(2, 3)}

    def test_clock_advances(self):
        window = ActivityWindow(10, horizon=5.0)
        window.observe([(0, 1)], timestamp=3.5)
        assert window.clock == 3.5

    def test_current_edges_seed_a_dynamic_graph(self):
        window = ActivityWindow(10, horizon=5.0)
        window.observe([(0, 1), (4, 5)], timestamp=0.0)
        graph = DynamicDiGraph(10, window.current_edges())
        assert graph.num_edges == 2
        assert graph.has_edge(4, 5)


class TestDeltaStreamConsistency:
    def test_applying_deltas_reproduces_window(self):
        """A DynamicDiGraph driven purely by observe() deltas always
        equals the window's own edge set."""
        rng = np.random.default_rng(0)
        window = ActivityWindow(20, horizon=3.0)
        live = DynamicDiGraph(20)
        for t in range(12):
            batch = rng.integers(0, 20, size=(5, 2))
            batch = batch[batch[:, 0] != batch[:, 1]]
            delta = window.observe(batch, timestamp=float(t))
            live.apply(delta)
            window_edges = {tuple(r) for r in window.current_edges()}
            live_edges = {
                tuple(r) for r in keys_to_edges(live.edge_keys(), 20)
            }
            assert window_edges == live_edges

    def test_feeds_a_live_service(self):
        """End-to-end: interaction stream -> window -> live service."""
        rng = np.random.default_rng(1)
        n = 300
        window = ActivityWindow(n, horizon=4.0)
        live = DynamicDiGraph(n)
        # Preload activity so the first snapshot is non-trivial.
        warmup = rng.integers(0, n, size=(3_000, 2))
        warmup = warmup[warmup[:, 0] != warmup[:, 1]]
        live.apply(window.observe(warmup, timestamp=0.0))
        service = LiveRankingService(
            live,
            config=FrogWildConfig(num_frogs=3_000, iterations=4, seed=0),
            num_machines=4,
        )
        for t in range(1, 4):
            batch = rng.integers(0, n, size=(500, 2))
            batch = batch[batch[:, 0] != batch[:, 1]]
            update = service.refresh(window.observe(batch, float(t)))
            assert update.num_edges == live.num_edges
            assert service.query(np.arange(n), k=10).vertices.size == 10
        assert service.current_epoch.sequence == 3
