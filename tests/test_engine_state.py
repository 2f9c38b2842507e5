"""Unit tests for ClusterState — the run's one bill — and build_cluster."""

import numpy as np
import pytest

from repro.cluster import CostModel, MessageSizeModel, RandomVertexCut
from repro.core import (
    BatchQuery,
    FrogWildConfig,
    run_frogwild,
    run_frogwild_batch,
    run_personalized_frogwild,
)
from repro.engine import build_cluster, traffic_breakdown
from repro.errors import ConfigError, EngineError, PartitionError
from repro.faults import FaultSchedule, StragglerCostModel, run_frogwild_with_faults
from repro.graph import twitter_like
from repro.pagerank import graphlab_pagerank

_FEW_FROGS = FrogWildConfig(num_frogs=200, iterations=2, seed=0)

#: Every entry point that takes both a graph and a prebuilt state.
ENTRY_POINTS = {
    "run_frogwild": lambda graph, state: run_frogwild(
        graph, _FEW_FROGS, state=state
    ),
    "run_frogwild_batch": lambda graph, state: run_frogwild_batch(
        graph, [BatchQuery()], _FEW_FROGS, state=state
    ),
    "run_personalized_frogwild": lambda graph, state: (
        run_personalized_frogwild(graph, [0, 1], _FEW_FROGS, state=state)
    ),
    "run_frogwild_batch_seeded": lambda graph, state: run_frogwild_batch(
        graph, [BatchQuery(seeds=[0, 1])], _FEW_FROGS, state=state
    ),
    "run_frogwild_with_faults": lambda graph, state: run_frogwild_with_faults(
        graph, FaultSchedule(), _FEW_FROGS, state=state
    ),
    "graphlab_pagerank": lambda graph, state: graphlab_pagerank(
        graph, iterations=1, state=state
    ),
}


class TestBuildCluster:
    def test_builds_consistent_state(self, small_twitter):
        state = build_cluster(small_twitter, num_machines=4)
        assert state.num_machines == 4
        assert state.num_vertices == small_twitter.num_vertices
        assert state.bytes_by_kind == {}
        assert state.messages_by_kind == {}
        assert state.ops_by_phase == {}
        assert state.supersteps == 0
        assert state.total_time_s == 0.0

    def test_reuses_supplied_partition(self, small_twitter):
        part = RandomVertexCut(seed=9).partition(small_twitter, 4)
        state = build_cluster(small_twitter, 4, partition=part)
        assert state.replication.partition is part

    def test_rejects_partition_machine_mismatch(self, small_twitter):
        part = RandomVertexCut(seed=9).partition(small_twitter, 4)
        with pytest.raises(EngineError, match="targets 4 machines"):
            build_cluster(small_twitter, 8, partition=part)

    def test_rejects_empty_cluster(self, small_twitter):
        with pytest.raises(PartitionError):
            build_cluster(small_twitter, 0)

    def test_rejects_cost_model_sized_for_another_cluster(self, small_twitter):
        """Refused when the cluster is built, not at the first barrier
        of a run that has already computed a superstep."""
        with pytest.raises(ConfigError, match="sized for 2 machines"):
            build_cluster(
                small_twitter,
                8,
                cost_model=StragglerCostModel(slowdowns=(1.0, 3.0)),
            )

    def test_accepts_cost_model_sized_for_it(self, small_twitter):
        model = StragglerCostModel(slowdowns=(1.0, 3.0))
        assert build_cluster(small_twitter, 2, cost_model=model).cost_model is model


class TestStateBuiltForAnotherGraph:
    """A prebuilt state answers only for the graph it was built for."""

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_foreign_state_refused(self, entry):
        graph = twitter_like(n=500, seed=1)
        foreign = build_cluster(twitter_like(n=800, seed=1), 4, seed=0)
        with pytest.raises(ConfigError, match="800 vertices"):
            ENTRY_POINTS[entry](graph, foreign)

    def test_same_size_other_edges_refused(self, small_twitter):
        state = build_cluster(small_twitter, 4, seed=0)
        other = twitter_like(n=small_twitter.num_vertices, seed=7)
        assert other.num_edges != small_twitter.num_edges
        with pytest.raises(ConfigError, match="edges"):
            state.check_graph(other)


class TestMessageSizeModel:
    def test_record_bytes(self):
        model = MessageSizeModel(
            vertex_id_bytes=8, payload_bytes=8, record_overhead_bytes=4
        )
        assert model.record_bytes() == 20

    def test_batch_includes_header(self):
        model = MessageSizeModel(message_header_bytes=32)
        assert model.batch_bytes(3) == 32 + 3 * model.record_bytes()

    def test_empty_batch_free(self):
        assert MessageSizeModel().batch_bytes(0) == 0


class TestCharge:
    def test_tallies_by_phase(self, small_cluster):
        small_cluster.charge_many(np.array([1, 2, 3, 4]))
        small_cluster.charge_many(np.array([0, 5, 0, 0]), phase="scatter")
        small_cluster.charge_many(np.array([2, 0, 0, 0]))
        assert small_cluster.ops_by_phase == {"compute": 12, "scatter": 5}

    def test_all_zero_vector_adds_no_phase(self, small_cluster):
        small_cluster.charge_many(np.zeros(4, dtype=np.int64), phase="sync")
        assert small_cluster.ops_by_phase == {}

    def test_shape_checked(self, small_cluster):
        with pytest.raises(EngineError, match="shape"):
            small_cluster.charge_many(np.array([1, 2]))

    def test_rejects_negative(self, small_cluster):
        with pytest.raises(EngineError, match="negative"):
            small_cluster.charge_many(np.array([1, -1, 0, 0]))
        assert small_cluster.ops_by_phase == {}


class TestSendPairMatrix:
    def test_each_message_pays_one_header(self, small_cluster):
        records = np.zeros((4, 4), dtype=np.int64)
        records[0, 1] = 3
        records[2, 3] = 1
        small_cluster.send_pair_matrix(records, kind="sync")
        model = small_cluster.size_model
        assert small_cluster.bytes_by_kind == {
            "sync": 2 * model.message_header_bytes + 4 * model.record_bytes()
        }
        assert small_cluster.messages_by_kind == {"sync": 2}

    def test_diagonal_is_free_and_uncounted(self, small_cluster):
        records = np.diag([100, 0, 7, 1])
        small_cluster.send_pair_matrix(records, kind="sync")
        assert small_cluster.bytes_by_kind == {}
        assert small_cluster.messages_by_kind == {}
        small_cluster.end_superstep()
        # Nothing crossed the wire, so the step is the barrier alone.
        assert small_cluster.total_time_s == (
            small_cluster.cost_model.barrier_latency_s
        )

    def test_bytes_split_by_kind(self, small_cluster):
        one = np.zeros((4, 4), dtype=np.int64)
        one[0, 1] = 1
        three = np.zeros((4, 4), dtype=np.int64)
        three[1, 0] = 3
        small_cluster.send_pair_matrix(one, kind="sync")
        small_cluster.send_pair_matrix(one, kind="scatter")
        small_cluster.send_pair_matrix(three, kind="sync")
        model = small_cluster.size_model
        assert small_cluster.messages_by_kind == {"sync": 2, "scatter": 1}
        assert small_cluster.bytes_by_kind == {
            "sync": model.batch_bytes(1) + model.batch_bytes(3),
            "scatter": model.batch_bytes(1),
        }
        breakdown = traffic_breakdown(small_cluster)
        assert breakdown.bytes_by_kind == small_cluster.bytes_by_kind
        assert breakdown.messages_by_kind == small_cluster.messages_by_kind

    def test_shape_checked(self, small_cluster):
        with pytest.raises(EngineError, match="record matrix"):
            small_cluster.send_pair_matrix(np.zeros((2, 2)), kind="x")

    def test_rejects_negative_records(self, small_cluster):
        records = np.zeros((4, 4), dtype=np.int64)
        records[0, 1] = -1
        with pytest.raises(EngineError, match="non-negative"):
            small_cluster.send_pair_matrix(records, kind="x")
        assert small_cluster.bytes_by_kind == {}

    def test_callers_matrix_left_alone(self, small_cluster):
        records = np.full((4, 4), 2, dtype=np.int64)
        small_cluster.send_pair_matrix(records, kind="x")
        assert (records == 2).all()


def _unit_cluster(graph, machines):
    """Bytes and ops map one-to-one onto seconds: 1 B/s, 1 op/s, no
    barrier, no per-message overhead."""
    return build_cluster(
        graph,
        machines,
        cost_model=CostModel(
            bandwidth_bytes_per_s=1.0,
            barrier_latency_s=0.0,
            cpu_ops_per_s=1.0,
            per_message_overhead_s=0.0,
        ),
    )


class TestBarrier:
    def test_returns_the_steps_seconds(self, small_twitter):
        state = _unit_cluster(small_twitter, 3)
        state.charge_many(np.array([0, 7, 0]))
        assert state.end_superstep() == 7.0
        assert state.supersteps == 1
        assert state.total_time_s == 7.0

    def test_prices_the_busiest_machine(self, small_twitter):
        """Machine 0 sends two messages, machines 1 and 2 receive one
        each: the step's traffic is machine 0's."""
        state = _unit_cluster(small_twitter, 3)
        records = np.zeros((3, 3), dtype=np.int64)
        records[0, 1] = records[0, 2] = 1
        state.send_pair_matrix(records, kind="x")
        assert state.end_superstep() == 2 * state.size_model.batch_bytes(1)

    def test_resets_the_per_step_sums(self, small_twitter):
        state = _unit_cluster(small_twitter, 2)
        state.charge_many(np.array([100, 0]), phase="apply")
        records = np.zeros((2, 2), dtype=np.int64)
        records[0, 1] = 10
        state.send_pair_matrix(records, kind="sync")
        first = state.end_superstep()
        assert first == 100.0 + state.size_model.batch_bytes(10)

        # The next step starts from zero; the tallies survive.
        assert state.end_superstep() == 0.0
        assert state.supersteps == 2
        assert state.total_time_s == first
        assert state.ops_by_phase == {"apply": 100}
        assert state.bytes_by_kind == {"sync": state.size_model.batch_bytes(10)}

    def test_time_includes_barrier_latency(self, small_cluster):
        seconds = small_cluster.end_superstep()
        assert seconds == small_cluster.cost_model.barrier_latency_s
        assert small_cluster.total_time_s == seconds

    def test_message_overhead_counts_wire_messages(self, small_twitter):
        model = CostModel(
            bandwidth_bytes_per_s=1e30,
            barrier_latency_s=0.0,
            cpu_ops_per_s=1.0,
            per_message_overhead_s=0.5,
        )
        state = build_cluster(small_twitter, 3, cost_model=model)
        records = np.ones((3, 3), dtype=np.int64)  # 6 remote, 3 local
        state.send_pair_matrix(records, kind="x")
        assert state.end_superstep() == pytest.approx(3.0)


class TestReport:
    def test_reads_the_bill(self, small_twitter):
        state = _unit_cluster(small_twitter, 2)
        state.charge_many(np.array([3, 1]), phase="apply")
        state.end_superstep()
        state.charge_many(np.array([0, 5]), phase="gather")
        records = np.zeros((2, 2), dtype=np.int64)
        records[1, 0] = 2
        state.send_pair_matrix(records, kind="gather")
        state.end_superstep()

        report = state.report("bill", {"ps": 0.5})
        wire = state.size_model.batch_bytes(2)
        assert report.algorithm == "bill"
        assert report.num_machines == 2
        assert report.supersteps == 2
        assert report.total_time_s == 3.0 + wire + 5.0
        assert report.time_per_iteration_s == report.total_time_s / 2
        assert report.network_bytes == wire
        assert report.cpu_seconds == 9.0
        assert report.extra == {"ps": 0.5}

    def test_empty_run(self, small_cluster):
        report = small_cluster.report("nothing")
        assert report.supersteps == 0
        assert report.total_time_s == 0.0
        assert report.time_per_iteration_s == 0.0
        assert report.network_bytes == 0
        assert report.cpu_seconds == 0.0
        assert report.extra == {}
