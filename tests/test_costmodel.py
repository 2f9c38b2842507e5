"""Unit tests for the simulated-time cost model."""

import numpy as np
import pytest

from repro.cluster import CostModel


class TestCostModel:
    def test_superstep_components(self):
        model = CostModel(
            bandwidth_bytes_per_s=100.0,
            barrier_latency_s=0.5,
            cpu_ops_per_s=10.0,
            per_message_overhead_s=0.0,
        )
        cost = model.superstep_time(
            bytes_sent=np.array([200.0, 0.0]),
            bytes_received=np.array([0.0, 200.0]),
            cpu_ops=np.array([5.0, 20.0]),
        )
        assert cost.barrier_s == pytest.approx(0.5)
        assert cost.comm_s == pytest.approx(2.0)  # 200 bytes / 100 B/s
        assert cost.compute_s == pytest.approx(2.0)  # 20 ops / 10 ops/s
        assert cost.total_s == pytest.approx(4.5)

    def test_straggler_dominates(self):
        model = CostModel(bandwidth_bytes_per_s=1.0, barrier_latency_s=0.0,
                          cpu_ops_per_s=1.0, per_message_overhead_s=0.0)
        cost = model.superstep_time(
            bytes_sent=np.array([10.0, 1.0]),
            bytes_received=np.array([1.0, 3.0]),
            cpu_ops=np.array([0.0, 0.0]),
        )
        assert cost.comm_s == pytest.approx(10.0)

    def test_message_overhead(self):
        model = CostModel(per_message_overhead_s=0.1, barrier_latency_s=0.0)
        cost = model.superstep_time(
            np.zeros(2), np.zeros(2), np.zeros(2), num_messages=5
        )
        assert cost.comm_s == pytest.approx(0.5)

    def test_empty_cluster_arrays(self):
        model = CostModel()
        cost = model.superstep_time(np.zeros(1), np.zeros(1), np.zeros(1))
        assert cost.total_s == pytest.approx(model.barrier_latency_s)

    def test_cpu_seconds(self):
        model = CostModel(cpu_ops_per_s=100.0)
        assert model.cpu_seconds(250) == pytest.approx(2.5)
