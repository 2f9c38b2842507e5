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
window, shard-breakdown key union) and the
:class:`~repro.serving.RankingFuture` failure paths.
"""

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
from repro.serving.service import BATCH_SIZE_WINDOW, ServiceStats
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
        assert open_loop.report.queue_depth_max > 2 * MAX_PENDING

    def test_nothing_is_shed_and_everyone_eventually_answers(
        self, open_loop
    ):
        assert open_loop.shed_count() == 0
        assert len(open_loop.answers()) == open_loop.report.arrivals
        assert open_loop.report.traffic["shed"] == 0


class TestAdmissionControl:
    def test_queue_depth_is_bounded_at_max_pending(self, admitted):
        _, result = admitted
        assert result.report.queue_depth_max <= MAX_PENDING
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
        summary = result.report.traffic
        assert summary["offered"] == result.report.arrivals
        assert summary["served"] + summary["shed"] == summary["offered"]

    def test_latency_is_tamed_relative_to_open_loop(
        self, admitted, open_loop
    ):
        _, result = admitted
        p99 = result.report.traffic["latency_p99"]
        assert np.isfinite(p99)
        assert p99 < 0.75 * open_loop.report.traffic["latency_p99"]

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
        summary = result.report.traffic
        assert summary["degraded_with_bound"] == summary["degraded"]
        assert summary["max_error_bound"] > 0

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
        assert stats.shed == service.stats.queries_shed
        assert 0.0 < stats.shed_rate() < 1.0
        assert result.report.admission["shed"] == float(stats.shed)

    def test_perf_row_is_flat_and_json_ready(self, admitted):
        _, result = admitted
        row = result.report.as_dict()
        for key, value in row.items():
            assert isinstance(key, str)
            assert isinstance(value, (int, float)), key
        assert row["queue_depth_max"] <= MAX_PENDING
        assert row["admission_shed_rate"] > 0


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
        for i in range(3 * BATCH_SIZE_WINDOW):
            stats.record_batch_size(1 + (i % 7))
        assert len(stats.batch_sizes) == BATCH_SIZE_WINDOW
        assert stats.batch_size_count == 3 * BATCH_SIZE_WINDOW
        assert stats.batch_size_sum == sum(
            1 + (i % 7) for i in range(3 * BATCH_SIZE_WINDOW)
        )
        assert stats.largest_batch == 7
        assert stats.mean_batch_size() == pytest.approx(
            stats.batch_size_sum / stats.batch_size_count
        )
        assert 1 <= stats.batch_size_quantile(0.95) <= 7
        with pytest.raises(ConfigError):
            stats.batch_size_quantile(1.5)

    def test_batch_sizes_window_keeps_most_recent(self):
        stats = ServiceStats()
        for i in range(BATCH_SIZE_WINDOW + 10):
            stats.record_batch_size(i)
        assert stats.batch_sizes[0] == 10
        assert stats.batch_sizes[-1] == BATCH_SIZE_WINDOW + 9

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
        row = stats.as_dict()
        assert row["shard2_cpu_seconds"] == 0.5
