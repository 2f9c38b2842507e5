"""Unit tests for the traffic subsystem's building blocks.

Arrival processes (determinism, thinning correctness), the double-Zipf
workload, the admission controller and its degradation ladder, and the
query tracer.  End-to-end overload behavior
against a real service lives in ``test_traffic_service.py``.
"""

import numpy as np
import pytest

from repro.core import FrogWildConfig
from repro.errors import ConfigError
from repro.obs import flatten
from repro.theory.bounds import (
    intersection_probability_bound,
    theorem1_epsilon,
)
from repro.traffic import (
    AdmissionController,
    BurstArrivals,
    DegradationLadder,
    DegradeRung,
    DiurnalArrivals,
    PoissonArrivals,
    QueryTrace,
    QueryTracer,
    TrafficWorkload,
    UserPopulation,
)


class TestArrivals:
    def test_poisson_is_deterministic_and_sorted(self):
        a = PoissonArrivals(rate_qps=50.0, seed=4)
        b = PoissonArrivals(rate_qps=50.0, seed=4)
        ta, tb = a.times(10.0), b.times(10.0)
        assert np.array_equal(ta, tb)
        assert np.all(np.diff(ta) > 0)
        assert ta.min() >= 0.0 and ta.max() < 10.0

    def test_poisson_count_matches_rate(self):
        arrivals = PoissonArrivals(rate_qps=100.0, seed=0)
        count = len(arrivals.times(20.0))
        # 2000 expected, sd ~45; 5 sigma keeps this deterministic-safe.
        assert abs(count - 2000) < 225
        assert arrivals.expected_count(20.0) == pytest.approx(2000.0)

    def test_different_seeds_differ(self):
        a = PoissonArrivals(rate_qps=50.0, seed=1).times(5.0)
        b = PoissonArrivals(rate_qps=50.0, seed=2).times(5.0)
        assert not np.array_equal(a, b)

    def test_burst_concentrates_arrivals_in_window(self):
        arrivals = BurstArrivals(
            base_qps=2.0, burst_qps=200.0, burst_start_s=4.0,
            burst_duration_s=2.0, seed=3,
        )
        times = arrivals.times(10.0)
        inside = np.sum((times >= 4.0) & (times < 6.0))
        outside = len(times) - inside
        # ~400 inside vs ~16 outside.
        assert inside > 10 * outside
        assert arrivals.in_burst(5.0) and not arrivals.in_burst(7.0)
        assert arrivals.rate(5.0) == 200.0 and arrivals.rate(1.0) == 2.0

    def test_diurnal_rate_envelope(self):
        arrivals = DiurnalArrivals(
            trough_qps=10.0, peak_qps=90.0, period_s=60.0, seed=0
        )
        rates = [arrivals.rate(t) for t in np.linspace(0, 60, 241)]
        assert min(rates) >= 10.0 - 1e-9
        assert max(rates) <= 90.0 + 1e-9
        assert arrivals.peak_rate == 90.0
        # Thinning never exceeds the announced peak: all kept points
        # fall in the window and the realized count tracks the mean.
        times = arrivals.times(60.0)
        expected = arrivals.expected_count(60.0)
        assert abs(len(times) - expected) < 5 * np.sqrt(expected)

    def test_validation(self):
        with pytest.raises(ConfigError):
            PoissonArrivals(rate_qps=0.0)
        with pytest.raises(ConfigError):
            DiurnalArrivals(trough_qps=5.0, peak_qps=4.0, period_s=10.0)
        with pytest.raises(ConfigError):
            BurstArrivals(
                base_qps=1.0, burst_qps=0.5,
                burst_start_s=0.0, burst_duration_s=1.0,
            )
        with pytest.raises(ConfigError):
            PoissonArrivals(rate_qps=1.0).times(0.0)


class TestWorkload:
    def test_users_issue_persistent_queries(self):
        pop = UserPopulation(
            num_users=50, num_vertices=200, seeds_per_user=3, seed=5
        )
        q1, q2 = pop.query_for(7), pop.query_for(7)
        assert q1 == q2
        assert len(q1.seeds) == 3
        assert all(0 <= s < 200 for s in q1.seeds)
        assert pop.distinct_queries() <= 50

    def test_events_are_deterministic_and_ordered(self):
        pop = UserPopulation(num_users=30, num_vertices=100, seed=1)
        arrivals = PoissonArrivals(rate_qps=40.0, seed=2)
        workload = TrafficWorkload(pop, arrivals, seed=3)
        e1 = workload.events(5.0)
        e2 = workload.events(5.0)
        assert [(e.time_s, e.user_id) for e in e1] == [
            (e.time_s, e.user_id) for e in e2
        ]
        times = [e.time_s for e in e1]
        assert times == sorted(times)
        for event in e1:
            assert event.query == pop.query_for(event.user_id)

    def test_zipf_user_law_is_head_heavy(self):
        pop = UserPopulation(num_users=100, num_vertices=100, seed=0)
        workload = TrafficWorkload(
            pop, PoissonArrivals(rate_qps=200.0, seed=0),
            user_exponent=1.2, seed=0,
        )
        users = [e.user_id for e in workload.events(10.0)]
        head = sum(1 for u in users if u < 10)
        # Zipf(1.2) over 100 users puts well over a third of the
        # traffic on the top decile; uniform would give ~10%.
        assert head / len(users) > 0.3

    def test_validation(self):
        with pytest.raises(ConfigError):
            UserPopulation(num_users=0, num_vertices=10)
        with pytest.raises(ConfigError):
            UserPopulation(num_users=5, num_vertices=10, seeds_per_user=11)
        pop = UserPopulation(num_users=5, num_vertices=10)
        with pytest.raises(ConfigError):
            pop.query_for(5)
        with pytest.raises(ConfigError):
            TrafficWorkload(
                pop, PoissonArrivals(rate_qps=1.0), user_exponent=0.0
            )


class TestDegradationLadder:
    def test_levels_engage_at_trigger_fractions(self):
        ladder = DegradationLadder()
        assert ladder.level_for(0, 16) == 0
        assert ladder.level_for(7, 16) == 0
        assert ladder.level_for(8, 16) == 1
        assert ladder.level_for(11, 16) == 1
        assert ladder.level_for(12, 16) == 2
        assert ladder.level_for(15, 16) == 2

    def test_validation(self):
        with pytest.raises(ConfigError):
            DegradeRung(frog_fraction=0.0)
        with pytest.raises(ConfigError):
            DegradationLadder(
                rungs=(DegradeRung(0.5),), trigger_fractions=(0.5, 0.7)
            )
        with pytest.raises(ConfigError):
            DegradationLadder(
                rungs=(DegradeRung(0.5), DegradeRung(0.25)),
                trigger_fractions=(0.7, 0.5),
            )
        with pytest.raises(ConfigError):
            # Rungs must get cheaper down the ladder.
            DegradationLadder(
                rungs=(DegradeRung(0.25), DegradeRung(0.5)),
                trigger_fractions=(0.5, 0.75),
            )


class TestAdmissionController:
    def test_decide_admits_degrades_sheds(self):
        ctl = AdmissionController(max_pending=16)
        assert ctl.decide(0).action == "admit"
        degrade = ctl.decide(8)
        assert degrade.action == "degrade" and degrade.level == 1
        assert ctl.decide(12).level == 2
        shed = ctl.decide(16)
        assert shed.action == "shed"
        assert shed.depth == 16 and shed.limit == 16
        assert ctl.stats.shed / ctl.stats.offered == pytest.approx(0.25)
        assert flatten({"admission": ctl.stats}) == {
            "admission_offered": 4.0,
            "admission_admitted": 1.0,
            "admission_degraded": 2.0,
            "admission_shed": 1.0,
            "admission_degraded_by_level_1": 1.0,
            "admission_degraded_by_level_2": 1.0,
        }

    def test_degraded_config_shrinks_monotonically(self):
        ctl = AdmissionController(max_pending=16)
        config = FrogWildConfig(num_frogs=2000, iterations=5, seed=0)
        level1 = ctl.degraded_config(config, 1)
        level2 = ctl.degraded_config(config, 2)
        assert level1.num_frogs == 1000 and level1.iterations == 3
        assert level2.num_frogs == 500 and level2.iterations == 2
        # Everything else is preserved — config purity for batching.
        assert level1.ps == config.ps and level1.seed == config.seed
        with pytest.raises(ConfigError):
            ctl.degraded_config(config, 3)

    def test_degraded_config_is_identity_when_nothing_changes(self):
        ctl = AdmissionController(
            max_pending=8,
            ladder=DegradationLadder(
                rungs=(DegradeRung(frog_fraction=1.0),),
                trigger_fractions=(0.5,),
            ),
        )
        config = FrogWildConfig(num_frogs=100, iterations=2, seed=0)
        assert ctl.degraded_config(config, 1) is config

    def test_error_bound_matches_theorem1(self):
        ctl = AdmissionController(max_pending=16, delta=0.1, pi_max=0.01)
        config = FrogWildConfig(num_frogs=500, iterations=2, seed=0)
        expected = theorem1_epsilon(
            k=10,
            delta=0.1,
            num_frogs=500,
            ps=config.ps,
            t=2,
            p_intersect=intersection_probability_bound(
                1000, 2, 0.01, config.p_teleport
            ),
            p_teleport=config.p_teleport,
        )
        assert ctl.error_bound(config, 10, 1000) == pytest.approx(expected)
        # Fewer frogs -> weaker promise: the bound must grow.
        cheaper = config.with_updates(num_frogs=125)
        assert ctl.error_bound(cheaper, 10, 1000) > expected


class TestQueryTracer:
    def test_lifecycle_routes_by_status(self):
        tracer = QueryTracer()
        served = tracer.begin((1, 2), 10, now=0.0)
        served.status = "served"
        served.dispatch_s = 0.5
        served.resolve_s = 1.0
        served.batch_size = 4
        tracer.complete(served)
        shed = tracer.begin((3,), 10, now=0.2)
        shed.status = "shed"
        shed.shed_depth = 16
        tracer.complete(shed)
        # Only the served trace has a latency to record.
        assert tracer.latency.count == 1
        assert tracer.latency.max == pytest.approx(1.0)
        assert tracer.queue_delay.max == pytest.approx(0.5)
        assert [t.status for t in tracer.recent()] == ["served", "shed"]
        assert tracer.recent()[1].shed_depth == 16

    def test_degraded_answers_feed_max_error_bound(self):
        tracer = QueryTracer()
        trace = tracer.begin((1,), 10, now=0.0)
        trace.status = "served"
        trace.degrade_level = 2
        trace.error_bound = 0.42
        tracer.complete(trace)
        # The rung and the bound stay on the trace itself.
        degraded = [t for t in tracer.recent() if t.degraded]
        assert [t.degrade_level for t in degraded] == [2]
        assert max(t.error_bound for t in degraded) == pytest.approx(0.42)

    def test_pending_trace_cannot_complete(self):
        tracer = QueryTracer()
        trace = tracer.begin((1,), 10, now=0.0)
        with pytest.raises(ConfigError):
            tracer.complete(trace)

    def test_recent_ring_is_bounded(self):
        tracer = QueryTracer(recent_capacity=8)
        for i in range(20):
            trace = tracer.begin((i + 1,), 10, now=float(i))
            trace.status = "shed"
            tracer.complete(trace)
        assert len(tracer.recent()) == 8
        assert tracer.recent(3)[-1].seeds == (20,)


def test_trace_dataclass_round_trip():
    trace = QueryTrace(
        query_id=1, seeds=(4, 5), k=10, enqueue_s=1.0,
        status="served", dispatch_s=2.0, resolve_s=3.5,
    )
    assert trace.queue_delay_s == pytest.approx(1.0)
    assert trace.latency_s == pytest.approx(2.5)
    assert not trace.degraded
    row = trace.as_dict()
    assert row["latency_s"] == pytest.approx(2.5)
    assert row["seeds"] == [4, 5]
