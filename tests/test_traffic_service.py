"""End-to-end traffic tests: overload, admission, degraded modes.

The deterministic acceptance scenario of the traffic subsystem: an
open-loop flash crowd replayed on a virtual clock against a
single-server queue model of the service.  Without admission control
the pending queue grows monotonically through the burst; with it the
queue stays bounded, shed queries fail fast with a typed
:class:`~repro.errors.OverloadError`, every degraded answer carries
its Theorem-1 error bound, and non-degraded answers still match the
full-fidelity golden result.

Also here: the :class:`~repro.serving.service.ServiceStats` memory
regressions the traffic harness exists to catch (bounded batch-size
window, shard-breakdown key union), the
:class:`~repro.serving.RankingFuture` failure paths, and the count
every snapshot must balance: each submitted query is served, failed,
shed or still in flight, exactly once.
"""

import threading

import numpy as np
import pytest

from repro.core import FrogWildConfig
from repro.errors import ConfigError, OverloadError
from repro.serving import (
    RankingQuery,
    RankingService,
    ServiceConfig,
    VirtualClock,
)
from repro.obs import flatten
from repro.serving.service import ServiceStats
from repro.traffic import (
    AdmissionController,
    BurstArrivals,
    TrafficHarness,
    TrafficWorkload,
    UserPopulation,
)

MAX_PENDING = 12
BURST = dict(base_qps=3.0, burst_qps=150.0, burst_start_s=1.0,
             burst_duration_s=1.0, seed=2)
DURATION_S = 4.0
SCALE = 40.0


@pytest.fixture(scope="module")
def graph():
    from repro.graph import twitter_like

    return twitter_like(n=200, seed=7)


@pytest.fixture(scope="module")
def workload(graph):
    population = UserPopulation(
        num_users=200,
        num_vertices=graph.num_vertices,
        seeds_per_user=2,
        seed=1,
    )
    return TrafficWorkload(population, BurstArrivals(**BURST), seed=3)


def make_service(graph, admission=None):
    return RankingService(
        graph,
        ServiceConfig(
            config=FrogWildConfig(num_frogs=800, iterations=3, seed=0),
            num_machines=4, max_batch_size=4, max_delay_s=0.05,
            cache_ttl_s=0.5, clock=VirtualClock(), admission=admission
        ),
    )


@pytest.fixture(scope="module")
def open_loop(graph, workload):
    """The burst replayed with no admission control."""
    harness = TrafficHarness(
        make_service(graph), workload, service_time_scale=SCALE
    )
    return harness.run_virtual(DURATION_S)


@pytest.fixture(scope="module")
def admitted(graph, workload):
    """The same burst with admission control and the default ladder."""
    service = make_service(
        graph, admission=AdmissionController(max_pending=MAX_PENDING)
    )
    harness = TrafficHarness(service, workload, service_time_scale=SCALE)
    result = harness.run_virtual(DURATION_S)
    return service, result


class TestOverloadWithoutAdmission:
    def test_queue_grows_monotonically_through_the_burst(self, open_loop):
        """rho > 1: each burst quarter's peak depth exceeds the last."""
        start = BURST["burst_start_s"]
        quarter = BURST["burst_duration_s"] / 4.0
        peaks = []
        for i in range(4):
            lo, hi = start + i * quarter, start + (i + 1) * quarter
            peaks.append(
                max(d for t, d in open_loop.depth_samples if lo <= t < hi)
            )
        assert peaks == sorted(peaks)
        assert peaks[-1] > peaks[0]

    def test_queue_depth_blows_past_any_reasonable_bound(self, open_loop):
        assert open_loop.report["queue_depth_max"] > 2 * MAX_PENDING

    def test_nothing_is_shed_and_everyone_eventually_answers(
        self, open_loop
    ):
        assert len(open_loop.answers()) == open_loop.report["arrivals"]
        assert "admission_shed" not in open_loop.report
        assert open_loop.report["service_queries_served"] == (
            open_loop.report["arrivals"]
        )


class TestAdmissionControl:
    def test_queue_depth_is_bounded_at_max_pending(self, admitted):
        _, result = admitted
        assert result.report["queue_depth_max"] <= MAX_PENDING
        assert max(d for _, d in result.depth_samples) <= MAX_PENDING

    def test_shed_queries_fail_fast_with_typed_error(self, admitted):
        _, result = admitted
        shed = [
            f for f in result.futures
            if f.done() and f.trace is not None and f.trace.status == "shed"
        ]
        assert shed, "the burst must shed under a 12-deep bound"
        for future in shed:
            with pytest.raises(OverloadError) as err:
                future.result(timeout=0)
            assert err.value.limit == MAX_PENDING
            assert err.value.depth >= MAX_PENDING
            assert future.trace.resolve_s is not None

    def test_every_query_is_traced_to_a_terminal_status(self, admitted):
        _, result = admitted
        assert all(f.trace is not None for f in result.futures)
        statuses = {f.trace.status for f in result.futures}
        assert statuses <= {"served", "shed"}
        row = result.report
        assert row["service_queries_submitted"] == row["arrivals"]
        assert row["service_queries_served"] + row["admission_shed"] == (
            row["service_queries_submitted"]
        )

    def test_latency_is_tamed_relative_to_open_loop(
        self, admitted, open_loop
    ):
        _, result = admitted
        p99 = result.report["latency_p99"]
        assert np.isfinite(p99)
        assert p99 < 0.75 * open_loop.report["latency_p99"]

    def test_degraded_answers_carry_their_error_bound(self, admitted):
        service, result = admitted
        degraded = [a for a in result.answers() if a.degraded]
        assert degraded, "the ladder must engage during the burst"
        for answer in degraded:
            assert answer.error_bound is not None
            assert answer.error_bound > 0
            expected = service.admission.error_bound(
                answer.query.effective_config(service.default_config),
                answer.query.k,
                service.graph.num_vertices,
            )
            assert answer.error_bound == pytest.approx(expected)
        traces = [f.trace for f in result.futures if f.trace.degraded]
        assert all(trace.error_bound is not None for trace in traces)
        assert max(trace.error_bound for trace in traces) > 0

    def test_degraded_configs_walked_down_the_ladder(self, admitted):
        service, result = admitted
        base = service.default_config
        levels = {
            a.degrade_level: a.query.effective_config(base)
            for a in result.answers()
            if a.degraded
        }
        for level, config in levels.items():
            rung = service.admission.ladder.rungs[level - 1]
            assert config.num_frogs == max(
                1, int(base.num_frogs * rung.frog_fraction)
            )
            if rung.max_iterations is not None:
                assert config.iterations <= rung.max_iterations

    def test_non_degraded_answers_match_the_golden_topk(
        self, admitted, graph
    ):
        """Degradation never contaminates full-fidelity batchmates."""
        service, result = admitted
        executed = [
            a for a in result.answers() if not a.degraded and not a.cached
        ]
        assert executed
        golden = make_service(graph)
        for answer in executed[:5]:
            reference = golden.query_batch([answer.query])[0]
            assert np.array_equal(answer.vertices, reference.vertices)

    def test_admission_counters_reconcile(self, admitted):
        service, result = admitted
        stats = service.admission.stats
        assert stats.offered == (
            stats.admitted + stats.degraded + stats.shed
        )
        assert 0 < stats.shed < stats.offered
        assert result.report["admission_shed"] == float(stats.shed)

    def test_perf_row_is_flat_and_json_ready(self, admitted):
        _, result = admitted
        row = result.report
        for key, value in row.items():
            assert isinstance(key, str)
            assert isinstance(value, float) and np.isfinite(value), key
        assert row["queue_depth_max"] <= MAX_PENDING
        assert row["admission_shed"] > 0


class TestAdmissionOnAStartedService:
    """Admission rules on the queue a started service really builds:
    while a batch runs, misses wait in the queue (none leaves inline in
    its submitter), so a burst reaches ``max_pending`` and is shed."""

    def test_a_burst_behind_a_running_batch_is_shed(self, graph):
        service = RankingService(
            graph,
            ServiceConfig(
                config=FrogWildConfig(num_frogs=800, iterations=3, seed=0),
                num_machines=4, max_batch_size=4, max_delay_s=0.05,
                admission=AdmissionController(max_pending=MAX_PENDING),
            ),
        )
        running, release = threading.Event(), threading.Event()
        run_batch = service.backend.run_batch

        def held_first(config, queries):
            if not running.is_set():
                running.set()
                release.wait(timeout=30.0)
            return run_batch(config, queries)

        service.backend.run_batch = held_first
        with service:
            first = service.submit(seeds=(0,), k=5)
            assert running.wait(timeout=30.0)
            burst = [
                service.submit(seeds=(i, i + 1), k=5)
                for i in range(1, 2 * MAX_PENDING)
            ]
            # Nothing ran inline: a future done at submit was shed.
            shed = [f for f in burst if f.done()]
            assert service.admission.stats.shed == len(shed) > 0
            for future in shed:
                with pytest.raises(OverloadError) as err:
                    future.result(timeout=0)
                assert err.value.limit == MAX_PENDING
            release.set()
            admitted = [first] + [f for f in burst if f not in shed]
            for future in admitted:
                assert future.result(timeout=30.0).query is not None
        stats = service.admission.stats
        assert stats.offered - stats.shed == len(admitted)


class TestFutureFailurePaths:
    def test_shed_future_is_done_immediately(self, graph):
        service = make_service(
            graph, admission=AdmissionController(max_pending=2)
        )
        # Distinct seed sets so nothing coalesces; a 50-wide batch
        # never fills, so the queue just grows until the bound.
        service.scheduler.coalescer.max_batch_size = 50
        futures = [
            service.submit(seeds=(i, i + 1), k=5) for i in range(6)
        ]
        shed = [f for f in futures if f.done()]
        live = [f for f in futures if not f.done()]
        assert len(live) == 2 and len(shed) == 4
        for future in shed:
            with pytest.raises(OverloadError) as err:
                future.result(timeout=0)
            assert err.value.limit == 2
        # Pending futures report a typed timeout, not a hang.
        with pytest.raises(TimeoutError):
            live[0].result(timeout=0)
        service.flush()
        assert all(f.done() for f in live)

    def test_overload_error_propagates_through_query_batch(self, graph):
        service = make_service(
            graph, admission=AdmissionController(max_pending=1)
        )
        service.scheduler.coalescer.max_batch_size = 50
        queries = [RankingQuery(seeds=(i,), k=5) for i in range(4)]
        with pytest.raises(OverloadError):
            service.query_batch(queries)

    def test_done_after_fail_with_arbitrary_error(self):
        from repro.serving.service import RankingFuture

        future = RankingFuture(RankingQuery(seeds=(1,), k=5))
        assert not future.done()
        future._fail(ValueError("boom"))
        assert future.done()
        with pytest.raises(ValueError, match="boom"):
            future.result(timeout=0)

    def test_overload_error_carries_depth_and_limit(self):
        error = OverloadError("shed", depth=17, limit=16)
        assert error.depth == 17
        assert error.limit == 16
        assert isinstance(error, Exception)


class TestServiceStatsRegressions:
    def test_batch_size_memory_is_bounded(self):
        stats = ServiceStats()
        window = stats.batch_size.recent.maxlen
        for i in range(3 * window):
            stats.batch_size.add(1 + (i % 7))
        assert len(stats.batch_size.recent) == window
        assert stats.batch_size_count == stats.batches_run == 3 * window
        assert stats.batch_size_sum == stats.queries_executed == sum(
            1 + (i % 7) for i in range(3 * window)
        )
        assert stats.batch_size.max == 7
        assert stats.batch_size.mean() == pytest.approx(
            stats.batch_size_sum / stats.batch_size_count
        )
        assert 1 <= stats.batch_size.quantile(0.95) <= 7
        with pytest.raises(ConfigError):
            stats.batch_size.quantile(1.5)

    def test_batch_sizes_window_keeps_most_recent(self):
        stats = ServiceStats()
        window = stats.batch_size.recent.maxlen
        for i in range(window + 10):
            stats.batch_size.add(i)
        assert stats.batch_size.recent[0] == 10
        assert stats.batch_size.recent[-1] == window + 9

    def test_shard_breakdown_unions_all_key_sets(self):
        stats = ServiceStats()
        stats.shard_shared_bytes[0] = 100
        stats.shard_attributed_bytes[1] = 200
        stats.shard_cpu_seconds[2] = 0.5
        breakdown = stats.shard_breakdown()
        assert sorted(breakdown) == [0, 1, 2]
        assert breakdown[1]["attributed_network_bytes"] == 200.0
        assert breakdown[1]["shared_network_bytes"] == 0.0
        assert breakdown[2]["cpu_seconds"] == 0.5
        row = flatten({"service": stats})
        assert row["service_shard_cpu_seconds_2"] == 0.5
        assert "service_shard_shared_bytes_1" not in row


def _unaccounted(row: dict[str, float]) -> float:
    """Submitted queries not yet served, failed, shed or in flight."""
    return row["service_queries_submitted"] - (
        row["service_queries_served"]
        + row["service_queries_failed"]
        + row.get("admission_shed", 0.0)
        + row["queries_in_flight"]
    )


class TestEveryQueryAccountedOnce:
    """submitted == served + failed + shed + in flight, in every case."""

    def test_burst_with_admission(self, admitted):
        _, result = admitted
        row = result.report
        assert row["admission_shed"] > 0
        assert _unaccounted(row) == 0

    def test_queries_still_queued_count_as_in_flight(self, graph):
        service = make_service(graph)
        service.submit(seeds=(1,), k=5)
        service.submit(seeds=(2,), k=5)
        row = service.snapshot()
        assert row["queries_in_flight"] == 2
        assert _unaccounted(row) == 0
        service.flush()
        row = service.snapshot()
        assert row["queries_in_flight"] == 0
        assert row["service_queries_served"] == 2
        assert _unaccounted(row) == 0

    def test_a_raising_backend_fails_every_query_once(self, graph):
        class Exploding:
            num_shards = 1

            def run_batch(self, config, queries):
                raise RuntimeError("backend down")

        service = RankingService(
            graph,
            ServiceConfig(
                config=FrogWildConfig(num_frogs=200, iterations=2, seed=0),
                num_machines=4, max_batch_size=2, backend=Exploding(),
            ),
        )
        other = FrogWildConfig(num_frogs=300, iterations=2, seed=0)
        queries = [
            RankingQuery(seeds=(1,), config=other),  # abandoned lane
            RankingQuery(seeds=(2,)),
            RankingQuery(seeds=(3,)),  # fills the batch that raises
        ]
        with pytest.raises(RuntimeError, match="backend down"):
            service.query_batch(queries)
        row = service.snapshot()
        assert row["service_queries_submitted"] == 3
        assert row["service_queries_failed"] == 3
        assert _unaccounted(row) == 0

    def test_coalesced_duplicates_are_served_once_each(self, graph):
        service = make_service(graph)
        answers = service.query_batch(
            [RankingQuery(seeds=(4,)), RankingQuery(seeds=(4,), k=3)]
            + [RankingQuery(seeds=(5,))]
        )
        assert len(answers) == 3
        row = service.snapshot()
        assert row["service_queries_coalesced"] == 1
        assert row["service_batch_size_count"] == 1
        assert row["service_queries_served"] == 3
        assert _unaccounted(row) == 0
