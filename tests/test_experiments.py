"""Unit tests for workloads, harness, the Pareto front and reporting."""

import pytest

from repro.errors import ExperimentError
from repro.experiments import (
    ExperimentHarness,
    format_rows,
    format_table,
    format_value,
    livejournal_workload,
    pareto_front,
    twitter_workload,
)


@pytest.fixture(scope="module")
def tiny_workload():
    return twitter_workload(n=1200, default_frogs=1500, default_machines=4)


@pytest.fixture(scope="module")
def harness(tiny_workload):
    return ExperimentHarness(tiny_workload, seed=0)


class TestWorkloads:
    def test_twitter_defaults(self):
        w = twitter_workload(n=800)
        assert w.name == "twitter"
        assert w.graph.num_vertices == 800
        assert w.default_iterations == 4

    def test_graph_cached_per_size(self):
        a = twitter_workload(n=900)
        b = twitter_workload(n=900)
        assert a.graph is b.graph

    def test_truth_lazy_and_cached(self, tiny_workload):
        truth = tiny_workload.truth
        assert truth.sum() == pytest.approx(1.0)
        assert tiny_workload.truth is truth

    def test_frogs_scaled(self):
        w = livejournal_workload(n=500, default_frogs=1000)
        assert w.frogs_scaled(800_000) == 1000
        assert w.frogs_scaled(400_000) == 500
        assert w.frogs_scaled(1_400_000) == 1750


class TestHarness:
    def test_partition_cached_per_size(self, harness):
        a = harness.partition_for(4)
        b = harness.partition_for(4)
        assert a is b
        c = harness.partition_for(2)
        assert c is not a

    def test_frogwild_row(self, harness):
        row = harness.run_frogwild(ks=(10, 50))
        assert row.workload == "twitter"
        assert row.algorithm.startswith("FrogWild")
        assert set(row.mass_captured) == {10, 50}
        assert 0.0 <= row.mass_captured[10] <= 1.0
        assert row.network_bytes > 0
        assert row.params["num_frogs"] == 1500

    def test_frogwild_overrides(self, harness):
        row = harness.run_frogwild(ps=0.3, iterations=2, num_frogs=500)
        assert row.params["ps"] == 0.3
        assert row.supersteps == 2
        assert row.params["num_frogs"] == 500

    def test_graphlab_rows(self, harness):
        exact = harness.run_graphlab(tolerance=1e-6)
        one = harness.run_graphlab(iterations=1)
        assert exact.algorithm == "GraphLab PR exact"
        assert one.algorithm == "GraphLab PR 1 iters"
        assert exact.supersteps > one.supersteps
        assert exact.network_bytes > one.network_bytes

    def test_sparsified_row(self, harness):
        row = harness.run_sparsified(0.5)
        assert "q=0.5" in row.algorithm
        assert row.params["q"] == 0.5

    def test_sparsified_validates_q(self, harness):
        with pytest.raises(ExperimentError):
            harness.run_sparsified(0.0)

    def test_row_as_dict(self, harness):
        row = harness.run_frogwild(ks=(10,))
        d = row.as_dict()
        assert d["workload"] == "twitter"
        assert "mass@10" in d
        assert d["machines"] == 4

    def test_same_partition_for_all_algorithms(self, harness):
        """Both algorithms must see identical ingress (fair comparison)."""
        row_a = harness.run_frogwild()
        row_b = harness.run_frogwild()
        assert row_a.network_bytes == row_b.network_bytes


class TestParetoFront:
    def test_pareto_front(self, harness):
        rows = [harness.run_frogwild(ks=(100,), ps=ps) for ps in (1.0, 0.1)]
        front = pareto_front(rows, k=100)
        assert 1 <= len(front) <= len(rows)
        # Front is sorted by cost and strictly improving in accuracy.
        costs = [r.total_time_s for r in front]
        assert costs == sorted(costs)

    def test_pareto_requires_metric(self, harness):
        rows = [harness.run_frogwild(ks=(10,), ps=1.0)]
        with pytest.raises(ExperimentError, match="mass@100"):
            pareto_front(rows, k=100)


class TestReporting:
    def test_format_value(self):
        assert format_value(3) == "3"
        assert format_value(2_500_000) == "2.500e+06"
        assert format_value(0.25) == "0.2500"
        assert format_value(1e-9) == "1.000e-09"
        assert format_value(0) == "0"
        assert format_value("x") == "x"
        assert format_value(123.456) == "123.5"

    def test_format_table_alignment(self):
        rows = [{"a": 1, "b": "xy"}, {"a": 22, "b": "z"}]
        text = format_table(rows, title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "b" in lines[1]
        assert len(lines) == 5

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([])

    def test_format_rows_accepts_experiment_rows(self, harness):
        row = harness.run_frogwild(ks=(10,))
        text = format_rows([row])
        assert "FrogWild" in text

    def test_format_table_union_columns(self):
        rows = [{"a": 1}, {"b": 2}]
        text = format_table(rows)
        assert "a" in text and "b" in text
