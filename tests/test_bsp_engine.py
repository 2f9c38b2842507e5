"""Unit tests for the BSP engine driver and the GAS phase accounting."""

import numpy as np
import pytest

from repro.engine import ApplyResult, BSPEngine, BulkVertexProgram, build_cluster
from repro.errors import EngineError
from repro.graph import cycle_graph, from_edges


class SumInNeighbours(BulkVertexProgram):
    """data <- sum of in-neighbour data; used to check gather exactness."""

    gather_edges = "in"
    name = "sum-in"

    def __init__(self, rounds=1):
        self.rounds = rounds

    def initial_data(self, state):
        return np.arange(state.num_vertices, dtype=np.float64)

    def gather_contribution(self, sources, data, state):
        return data[sources]

    def apply_bulk(self, active, gather_sums, data, state, step):
        return ApplyResult(
            new_values=gather_sums,
            signal_mask=np.ones(active.size, dtype=bool),
            done=step + 1 >= self.rounds,
        )


class NoGatherCountdown(BulkVertexProgram):
    """gather_edges='none': data decrements until zero, no signals."""

    gather_edges = "none"
    name = "countdown"

    def initial_data(self, state):
        return np.full(state.num_vertices, 3.0)

    def apply_bulk(self, active, gather_sums, data, state, step):
        assert np.all(gather_sums == 0.0)
        new = data[active] - 1.0
        return ApplyResult(
            new_values=new,
            signal_mask=None if np.all(new <= 0) else np.ones(active.size, bool),
        )


class TestGatherExactness:
    def test_one_round_sums_in_neighbours(self):
        graph = from_edges([(0, 1), (0, 2), (1, 2), (2, 0), (3, 0)])
        state = build_cluster(graph, num_machines=3, seed=1)
        engine = BSPEngine(state, SumInNeighbours())
        engine.run()
        # initial data = [0,1,2,3]; in-neighbours: 0<-{2,3}, 1<-{0}, 2<-{0,1}, 3<-{}
        np.testing.assert_allclose(engine.data, [5.0, 0.0, 1.0, 0.0])

    def test_gather_independent_of_partitioning(self, small_twitter):
        results = []
        for machines in (1, 3, 5):
            state = build_cluster(small_twitter, machines, seed=2)
            engine = BSPEngine(state, SumInNeighbours())
            engine.run()
            results.append(engine.data)
        np.testing.assert_allclose(results[0], results[1])
        np.testing.assert_allclose(results[0], results[2])


class TestActivationFlow:
    def test_signals_keep_frontier_alive(self):
        state = build_cluster(cycle_graph(6), num_machines=2, seed=0)
        engine = BSPEngine(state, SumInNeighbours(rounds=4))
        report = engine.run()
        assert report.supersteps == 4

    def test_empty_frontier_terminates(self):
        state = build_cluster(cycle_graph(6), num_machines=2, seed=0)
        engine = BSPEngine(state, NoGatherCountdown())
        report = engine.run(max_supersteps=50)
        # 3 decrements reach zero; frontier dies after round 3.
        assert report.supersteps == 3
        np.testing.assert_allclose(engine.data, np.zeros(6))

    def test_max_supersteps_cap(self):
        state = build_cluster(cycle_graph(6), num_machines=2, seed=0)
        engine = BSPEngine(state, SumInNeighbours(rounds=1000))
        report = engine.run(max_supersteps=5)
        assert report.supersteps == 5


class TestTrafficAccounting:
    def test_single_machine_no_network(self):
        state = build_cluster(cycle_graph(10), num_machines=1, seed=0)
        engine = BSPEngine(state, SumInNeighbours(rounds=3))
        report = engine.run()
        assert report.network_bytes == 0

    def test_multi_machine_generates_all_kinds(self, small_twitter):
        state = build_cluster(small_twitter, num_machines=4, seed=0)
        engine = BSPEngine(state, SumInNeighbours(rounds=2))
        engine.run()
        kinds = state.bytes_by_kind
        assert kinds.get("gather", 0) > 0
        assert kinds.get("sync", 0) > 0
        assert kinds.get("scatter", 0) > 0

    def test_more_machines_more_traffic(self, small_twitter):
        totals = []
        for machines in (2, 8):
            state = build_cluster(small_twitter, machines, seed=0)
            report = BSPEngine(state, SumInNeighbours(rounds=2)).run()
            totals.append(report.network_bytes)
        assert totals[1] > totals[0]

    def test_report_fields(self, small_twitter):
        state = build_cluster(small_twitter, num_machines=4, seed=0)
        engine = BSPEngine(state, SumInNeighbours(rounds=2))
        report = engine.run()
        assert report.algorithm == "sum-in"
        assert report.num_machines == 4
        assert report.supersteps == 2
        assert report.total_time_s > 0
        assert report.time_per_iteration_s == pytest.approx(
            report.total_time_s / 2
        )
        assert report.cpu_seconds > 0


class TestValidation:
    def test_bad_gather_mode_rejected(self, small_cluster):
        class Bad(SumInNeighbours):
            gather_edges = "out"

        with pytest.raises(EngineError, match="gather_edges"):
            BSPEngine(small_cluster, Bad())

    def test_misaligned_apply_result(self, small_cluster):
        class Bad(SumInNeighbours):
            def apply_bulk(self, active, gather_sums, data, state, step):
                return ApplyResult(new_values=np.zeros(3))

        with pytest.raises(EngineError, match="misaligned"):
            BSPEngine(small_cluster, Bad()).run()

    def test_bad_initial_data_shape(self, small_cluster):
        class Bad(SumInNeighbours):
            def initial_data(self, state):
                return np.zeros(7)

        with pytest.raises(EngineError, match="initial_data"):
            BSPEngine(small_cluster, Bad()).run()
