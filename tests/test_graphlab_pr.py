"""Unit tests for the GraphLab PageRank baseline and its GAS superstep."""

import numpy as np
import pytest

from repro.engine import build_cluster
from repro.errors import ConfigError
from repro.graph import cycle_graph, from_edges
from repro.pagerank import exact_pagerank, graphlab_pagerank


class TestFixedIterations:
    @pytest.mark.parametrize("iterations", [1, 3])
    def test_superstep_count(self, small_twitter, iterations):
        result = graphlab_pagerank(
            small_twitter, num_machines=4, iterations=iterations
        )
        assert result.report.supersteps == iterations
        assert len(result.residuals) == iterations

    def test_ranks_independent_of_machine_count(self, small_twitter):
        ranks = [
            graphlab_pagerank(small_twitter, machines, iterations=3).ranks
            for machines in (1, 3, 5)
        ]
        np.testing.assert_allclose(ranks[1], ranks[0], rtol=1e-12)
        np.testing.assert_allclose(ranks[2], ranks[0], rtol=1e-12)

    def test_one_iteration_closed_form(self, small_twitter):
        """After one synchronous iteration from uniform:
        rank = pT/n + (1-pT) * sum_in 1/(n * d_out)."""
        n = small_twitter.num_vertices
        result = graphlab_pagerank(small_twitter, num_machines=4, iterations=1)
        out_deg = np.asarray(small_twitter.out_degree(), dtype=np.float64)
        expected = np.full(n, 0.15 / n)
        contrib = 1.0 / (n * out_deg)
        for u, v in small_twitter.edges():
            expected[v] += 0.85 * contrib[u]
        np.testing.assert_allclose(result.ranks, expected, rtol=1e-10)

    def test_two_iterations_better_than_one(self, small_twitter):
        truth = exact_pagerank(small_twitter)
        one = graphlab_pagerank(small_twitter, num_machines=4, iterations=1)
        two = graphlab_pagerank(small_twitter, num_machines=4, iterations=2)
        err1 = np.abs(one.distribution() - truth).sum()
        err2 = np.abs(two.distribution() - truth).sum()
        assert err2 < err1


class TestDynamicConvergence:
    def test_converges_to_truth(self, small_twitter):
        truth = exact_pagerank(small_twitter)
        result = graphlab_pagerank(
            small_twitter, num_machines=4, tolerance=1e-9
        )
        np.testing.assert_allclose(result.ranks, truth, atol=1e-6)

    def test_tighter_tolerance_more_supersteps(self, small_twitter):
        loose = graphlab_pagerank(small_twitter, num_machines=4, tolerance=1e-2)
        tight = graphlab_pagerank(small_twitter, num_machines=4, tolerance=1e-8)
        assert tight.report.supersteps > loose.report.supersteps

    def test_run_ends_when_frontier_empties(self):
        # On a path 0 -> 1 -> 2 -> 3 only the change at the source
        # travels; the sink (left dangling) still moves in the last
        # superstep but has no one to signal, so the run ends with 196
        # supersteps to spare.
        path = from_edges([(0, 1), (1, 2), (2, 3)], repair_dangling="none")
        result = graphlab_pagerank(path, num_machines=2, tolerance=1e-6)
        assert result.report.supersteps == 4
        assert result.residuals[-1] > 1e-6 / 4

    def test_max_supersteps_caps_a_dynamic_run(self, small_twitter):
        result = graphlab_pagerank(
            small_twitter, num_machines=4, tolerance=1e-12, max_supersteps=5
        )
        assert result.report.supersteps == 5
        assert "tol" in result.report.algorithm

    def test_unmoved_vertices_send_no_sync(self, small_twitter):
        def sync_records(supersteps):
            # One sync op per record a mirror receives.
            state = build_cluster(small_twitter, 4, seed=0)
            graphlab_pagerank(
                small_twitter, state=state, tolerance=1e-3,
                max_supersteps=supersteps,
            )
            return state.ops_by_phase.get("sync", 0)

        first = sync_records(1)
        late = sync_records(6) - sync_records(5)
        assert 0 < late < first

    def test_uniform_graph_converges_immediately(self):
        # On a cycle the uniform start is the fixed point.
        result = graphlab_pagerank(cycle_graph(12), num_machines=2)
        assert result.report.supersteps <= 2
        np.testing.assert_allclose(result.ranks, 1 / 12, atol=1e-9)


class TestResultApi:
    def test_distribution_normalized(self, small_twitter):
        result = graphlab_pagerank(small_twitter, num_machines=4, iterations=2)
        assert result.distribution().sum() == pytest.approx(1.0)

    def test_top_k(self, small_twitter):
        result = graphlab_pagerank(small_twitter, num_machines=4, iterations=2)
        top = result.top_k(5)
        assert top.size == 5
        ranks = result.ranks[top]
        assert np.all(np.diff(ranks) <= 0)

    def test_algorithm_label(self, small_twitter):
        fixed = graphlab_pagerank(small_twitter, num_machines=2, iterations=2)
        assert "2 iters" in fixed.report.algorithm
        dynamic = graphlab_pagerank(small_twitter, num_machines=2)
        assert "tol" in dynamic.report.algorithm


class TestTraffic:
    def test_single_machine_no_network(self):
        result = graphlab_pagerank(cycle_graph(10), num_machines=1, iterations=3)
        assert result.report.network_bytes == 0

    def test_bills_gather_sync_and_scatter(self, small_twitter):
        result = graphlab_pagerank(small_twitter, num_machines=4, iterations=2)
        kinds = result.state.bytes_by_kind
        assert kinds.get("gather", 0) > 0
        assert kinds.get("sync", 0) > 0
        assert kinds.get("scatter", 0) > 0

    def test_more_machines_more_traffic(self, small_twitter):
        two, eight = (
            graphlab_pagerank(small_twitter, machines, iterations=2)
            for machines in (2, 8)
        )
        assert eight.report.network_bytes > two.report.network_bytes

    def test_report_fields(self, small_twitter):
        report = graphlab_pagerank(
            small_twitter, num_machines=4, iterations=2
        ).report
        assert report.algorithm == "graphlab_pr(2 iters)"
        assert report.num_machines == 4
        assert report.supersteps == 2
        assert report.total_time_s > 0
        assert report.time_per_iteration_s == pytest.approx(
            report.total_time_s / 2
        )
        assert report.cpu_seconds > 0

    def test_exact_far_more_traffic_than_one_iter(self, small_twitter):
        one = graphlab_pagerank(small_twitter, num_machines=4, iterations=1)
        exact = graphlab_pagerank(
            small_twitter, num_machines=4, tolerance=1e-9
        )
        assert exact.report.network_bytes > 5 * one.report.network_bytes

    def test_traffic_scales_with_iterations(self, small_twitter):
        one = graphlab_pagerank(small_twitter, num_machines=4, iterations=1)
        three = graphlab_pagerank(small_twitter, num_machines=4, iterations=3)
        ratio = three.report.network_bytes / one.report.network_bytes
        assert 2.0 < ratio < 4.0


class TestResiduals:
    def test_residuals_decrease_geometrically(self, small_twitter):
        result = graphlab_pagerank(
            small_twitter, num_machines=4, tolerance=1e-8
        )
        assert len(result.residuals) == result.report.supersteps
        assert result.report.extra["final_residual"] == result.residuals[-1]
        assert result.residuals[-1] < 1e-6

    def test_residual_trail_monotone(self, small_twitter):
        residuals = graphlab_pagerank(
            small_twitter, num_machines=4, tolerance=1e-8, max_supersteps=50
        ).residuals
        assert len(residuals) >= 5
        # After the first couple of steps the contraction factor is
        # bounded by (1 - p_T) = 0.85.
        for before, after in zip(residuals[2:], residuals[3:]):
            assert after <= before * 0.9 + 1e-15


class TestValidation:
    def test_bad_params(self, small_twitter):
        with pytest.raises(ConfigError, match="p_teleport"):
            graphlab_pagerank(small_twitter, 4, p_teleport=0.0)
        with pytest.raises(ConfigError, match="tolerance"):
            graphlab_pagerank(small_twitter, 4, tolerance=0.0)
        with pytest.raises(ConfigError, match="iterations"):
            graphlab_pagerank(small_twitter, 4, iterations=0)
        with pytest.raises(ConfigError, match="max_supersteps"):
            graphlab_pagerank(small_twitter, 4, max_supersteps=0)

    def test_iterations_beyond_the_cap_are_refused(self, small_twitter):
        # Running 2 supersteps under a "5 iters" label would hide it.
        with pytest.raises(
            ConfigError, match="iterations=5 exceeds max_supersteps=2"
        ):
            graphlab_pagerank(
                small_twitter, 4, iterations=5, max_supersteps=2
            )
        result = graphlab_pagerank(
            small_twitter, 4, iterations=2, max_supersteps=2
        )
        assert result.report.supersteps == 2
