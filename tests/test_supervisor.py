"""Fail-soft process pool: supervision, partial answers, chaos parity.

The paper's graceful-degradation claim (losing a machine costs ~1/M of
the frogs, nothing else) is only real if the *implementation* survives
losing a machine.  These tests SIGKILL actual worker processes and pin
down the three ``on_shard_failure`` policies:

* ``"partial"`` — a mid-batch kill still answers, from an exact merge
  of the surviving shards, with the estimator's population rescaled
  and a wider (finite) Theorem-1 bound; the *next* batch is bitwise
  identical to a never-crashed pool;
* ``"fail"`` — the same kill raises a typed
  :class:`~repro.errors.ShardFailure` *after* the pool is restored —
  no wedged backend, no leaked ``/dev/shm`` segments;
* ``"retry"`` — the lost slice re-runs on the respawned worker and
  the batch comes back bitwise identical (same share, same per-shard
  seed), with nothing marked degraded.

Plus the supervisor lifecycle (heartbeat revival, respawn re-attach to
the live epoch, orphan sweeps) and the simulated-vs-real bridge: a
:class:`~repro.traffic.ChaosSchedule` round-trips through
:class:`~repro.faults.FaultSchedule`, and the accuracy dent a real
partial merge suffers matches what the simulated fault layer predicts
at the same lost-frog fraction.
"""

import math
import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.cluster import SharedArena
from repro.core import FrogWildConfig, merge_shard_results
from repro.errors import ConfigError, ShardFailure, WorkerCrashError
from repro.faults import (
    FAULT_KINDS,
    FaultSchedule,
    MachineCrash,
    MessageDrop,
    run_frogwild_with_faults,
)
from repro.graph import twitter_like
from repro.metrics import normalized_mass_captured
from repro.pagerank import exact_pagerank
from repro.serving import (
    ProcessPoolBackend,
    RankingQuery,
    RankingService,
    ServiceConfig,
)
from repro.serving.backend import _run_slice, _shard_seed
from repro.theory.bounds import config_error_bound
from repro.traffic import ChaosEvent, ChaosInjector, ChaosSchedule

GRAPH = twitter_like(n=300, seed=3)
CONFIG = FrogWildConfig(num_frogs=1_500, iterations=3, seed=5)
QUERIES = [RankingQuery(seeds=(1, 2), k=10)]


def _pool(**overrides):
    kwargs = dict(
        num_shards=3,
        num_machines=6,
        seed=0,
        timeout_s=20.0,
        on_shard_failure="partial",
    )
    kwargs.update(overrides)
    return ProcessPoolBackend(GRAPH, **kwargs)


def _kill_mid_batch(backend, shard, after_s=0.3, park_s=30.0):
    """Arm a deterministic mid-batch SIGKILL of one shard's worker.

    The ``delay`` chaos op makes the worker compute its next batch and
    then *withhold* the reply; the timer's SIGKILL therefore lands
    while the batch is in flight, every time.
    """
    backend.inject_chaos(shard, "delay", park_s)
    pid = backend.worker_pid(shard)
    timer = threading.Timer(after_s, os.kill, (pid, signal.SIGKILL))
    timer.daemon = True
    timer.start()
    return timer


def _survivor_lanes(backend, shards):
    """Query 0's lanes of ``shards``, run in process on the pool's own
    layout, shares and per-shard seeds."""
    shares = backend._shares(CONFIG.num_frogs)
    return [
        _run_slice(
            GRAPH,
            backend.fresh_state(shard),
            CONFIG,
            QUERIES,
            shares[shard],
            _shard_seed(CONFIG.seed, shard, backend.num_shards),
        ).results[0]
        for shard in shards
    ]


# ----------------------------------------------------------------------
# Policy: partial
# ----------------------------------------------------------------------
class TestPartialPolicy:
    def test_mid_batch_kill_answers_with_rescaled_population(self):
        with _pool() as backend:
            healthy = backend.run_batch(CONFIG, QUERIES)
            _kill_mid_batch(backend, shard=1)
            partial = backend.run_batch(CONFIG, QUERIES)
            assert partial.degraded_shards == (1,)
            assert partial.lost_frogs > 0
            assert (
                partial.lanes[0].estimate.num_frogs
                == healthy.lanes[0].estimate.num_frogs - partial.lost_frogs
            )
            # The merge is exact over survivors: no shard-1 cost row,
            # and the answer is the record merge of shards 0 and 2 as
            # the in-process fan-out runs them.
            assert [c.shard for c in partial.shards] == [0, 2]
            survivors = _survivor_lanes(backend, shards=(0, 2))
            expected = merge_shard_results(survivors).estimate
            got = partial.lanes[0].estimate
            assert got.num_frogs == expected.num_frogs
            for mine, theirs in zip(got.records, expected.records):
                assert np.array_equal(mine, theirs)
            # Respawned pool: the next batch is bitwise healthy.
            again = backend.run_batch(CONFIG, QUERIES)
            assert again.degraded_shards == ()
            assert np.array_equal(
                again.lanes[0].estimate.counts,
                healthy.lanes[0].estimate.counts,
            )
            assert backend.supervisor.stats.respawns >= 1

    def test_partial_answer_carries_widened_bound_and_skips_cache(self):
        pool = _pool()
        service = RankingService(
            GRAPH,
            ServiceConfig(
                config=CONFIG, num_machines=6, cache_capacity=8, seed=0,
                backend=pool
            ),
        )
        try:
            _kill_mid_batch(pool, shard=1)
            answer = service.query_batch(QUERIES)[0]
            assert answer.partial
            assert answer.degraded_shards == (1,)
            assert answer.error_bound is not None
            assert math.isfinite(answer.error_bound)
            healthy_bound = config_error_bound(
                CONFIG, QUERIES[0].k, GRAPH.num_vertices
            )
            assert answer.error_bound > healthy_bound
            assert service.stats.queries_partial == 1
            # Not cached: the re-ask runs fresh on the healed pool.
            again = service.query_batch(QUERIES)[0]
            assert not again.cached
            assert not again.partial
            assert again.error_bound is None
        finally:
            service.close()

    def test_all_shards_lost_raises_even_in_partial_mode(self):
        with _pool(num_shards=2, num_machines=6) as backend:
            backend.run_batch(CONFIG, QUERIES)
            for shard in range(2):
                backend.inject_chaos(shard, "delay", 30.0)
            pids = [backend.worker_pid(s) for s in range(2)]
            timer = threading.Timer(
                0.3, lambda: [os.kill(p, signal.SIGKILL) for p in pids]
            )
            timer.daemon = True
            timer.start()
            with pytest.raises(ShardFailure) as info:
                backend.run_batch(CONFIG, QUERIES)
            assert info.value.lost_frogs == CONFIG.num_frogs
            # Still not wedged.
            assert backend.run_batch(CONFIG, QUERIES).degraded_shards == ()


# ----------------------------------------------------------------------
# Policy: fail
# ----------------------------------------------------------------------
class TestFailPolicy:
    def test_mid_batch_kill_raises_typed_and_restores_pool(self):
        backend = _pool(on_shard_failure="fail")
        try:
            healthy = backend.run_batch(CONFIG, QUERIES)
            _kill_mid_batch(backend, shard=2)
            with pytest.raises(ShardFailure) as info:
                backend.run_batch(CONFIG, QUERIES)
            assert info.value.shard == 2
            assert info.value.cause in ("died", "timeout")
            assert info.value.lost_frogs > 0
            assert isinstance(info.value.__cause__, WorkerCrashError)
            # The raise happened *after* restoration: next batch is
            # bitwise healthy, no manual intervention.
            again = backend.run_batch(CONFIG, QUERIES)
            assert np.array_equal(
                again.lanes[0].estimate.counts,
                healthy.lanes[0].estimate.counts,
            )
        finally:
            prefix = backend.arena_prefix
            backend.close()
        assert SharedArena.list_segments(prefix) == []

    def test_kill_between_batches_is_a_free_resend(self):
        # A worker dead at dispatch lost no work: every policy respawns
        # and resends without marking anything degraded.
        for policy in ("fail", "partial", "retry"):
            with _pool(on_shard_failure=policy) as backend:
                healthy = backend.run_batch(CONFIG, QUERIES)
                os.kill(backend.worker_pid(1), signal.SIGKILL)
                time.sleep(0.2)
                outcome = backend.run_batch(CONFIG, QUERIES)
                assert outcome.degraded_shards == ()
                assert np.array_equal(
                    outcome.lanes[0].estimate.counts,
                    healthy.lanes[0].estimate.counts,
                ), policy


# ----------------------------------------------------------------------
# Policy: retry
# ----------------------------------------------------------------------
class TestRetryPolicy:
    def test_mid_batch_kill_rerun_is_bitwise_healthy(self):
        with _pool(on_shard_failure="retry") as backend:
            healthy = backend.run_batch(CONFIG, QUERIES)
            _kill_mid_batch(backend, shard=0)
            outcome = backend.run_batch(CONFIG, QUERIES)
            assert outcome.degraded_shards == ()
            assert outcome.lost_frogs == 0
            assert np.array_equal(
                outcome.lanes[0].estimate.counts,
                healthy.lanes[0].estimate.counts,
            )

    def test_exhausted_budget_falls_back_to_partial(self):
        with _pool(
            on_shard_failure="retry", retry_budget=0, retry_backoff_s=0.0
        ) as backend:
            backend.run_batch(CONFIG, QUERIES)
            _kill_mid_batch(backend, shard=1)
            outcome = backend.run_batch(CONFIG, QUERIES)
            assert outcome.degraded_shards == (1,)

    def test_retry_overlaps_the_other_shards(self):
        """Shard 0 withholds its reply for 1 s while shard 1 is killed
        0.1 s in.  The gather notices the death at once, so the retry
        (respawn + 0.6 s backoff + re-run) runs *inside* shard 0's
        delay: the batch takes about max(delay, retry), where draining
        shard 0 first took their sum (~1.7 s)."""
        with _pool(
            num_shards=2, on_shard_failure="retry", retry_backoff_s=0.6
        ) as backend:
            healthy = backend.run_batch(CONFIG, QUERIES)
            backend.inject_chaos(0, "delay", 1.0)
            _kill_mid_batch(backend, shard=1, after_s=0.1)
            started = time.monotonic()
            outcome = backend.run_batch(CONFIG, QUERIES)
            elapsed = time.monotonic() - started
            assert outcome.degraded_shards == ()
            assert np.array_equal(
                outcome.lanes[0].estimate.counts,
                healthy.lanes[0].estimate.counts,
            )
            assert backend.supervisor.stats.respawns == 1
            assert 1.0 <= elapsed < 1.4, elapsed

    def test_invalid_policy_rejected(self):
        with pytest.raises(ConfigError):
            _pool(on_shard_failure="panic")


# ----------------------------------------------------------------------
# Supervisor lifecycle
# ----------------------------------------------------------------------
class TestSupervisor:
    def test_check_revives_dead_worker_with_new_pid(self):
        with _pool() as backend:
            old_pid = backend.worker_pid(1)
            os.kill(old_pid, signal.SIGKILL)
            time.sleep(0.2)
            assert backend.supervisor.check() == 1
            assert backend.worker_pid(1) != old_pid
            assert backend.supervisor.stats.respawns == 1
            assert backend.supervisor.crash_log[0][1] == 1

    def test_crash_is_logged_when_it_happens(self):
        """A death is an event of the gather loop, not something found
        when the dead shard's turn comes: shard 1's crash is stamped
        right after the kill although shard 0 is still a second away
        from answering."""
        with _pool(num_shards=2) as backend:
            backend.run_batch(CONFIG, QUERIES)
            backend.inject_chaos(0, "delay", 1.0)
            _kill_mid_batch(backend, shard=1, after_s=0.1)
            dispatched = time.monotonic()
            outcome = backend.run_batch(CONFIG, QUERIES)
            assert outcome.degraded_shards == (1,)
            stamp, shard, cause = backend.supervisor.crash_log[0]
            assert (shard, cause) == (1, "died")
            assert stamp - dispatched < 0.5

    def test_check_on_healthy_pool_is_a_no_op(self):
        with _pool() as backend:
            assert backend.supervisor.check() == 0
            assert backend.supervisor.stats.heartbeats == backend.num_shards
            assert backend.supervisor.stats.respawns == 0

    def test_heartbeat_thread_heals_between_batches(self):
        with _pool(heartbeat_s=0.1) as backend:
            healthy = backend.run_batch(CONFIG, QUERIES)
            os.kill(backend.worker_pid(2), signal.SIGKILL)
            deadline = time.monotonic() + 10.0
            while (
                backend.supervisor.stats.respawns == 0
                and time.monotonic() < deadline
            ):
                time.sleep(0.05)
            assert backend.supervisor.stats.respawns >= 1
            outcome = backend.run_batch(CONFIG, QUERIES)
            assert outcome.degraded_shards == ()
            assert np.array_equal(
                outcome.lanes[0].estimate.counts,
                healthy.lanes[0].estimate.counts,
            )

    def test_respawn_reattaches_to_current_epoch(self):
        with _pool() as backend:
            backend.run_batch(CONFIG, QUERIES)
            # Advance the epoch, then crash: the revived worker must
            # serve the *new* epoch's arenas.
            backend.refresh(GRAPH, backend.replications)
            refreshed = backend.run_batch(CONFIG, QUERIES)
            os.kill(backend.worker_pid(0), signal.SIGKILL)
            time.sleep(0.2)
            assert backend.supervisor.check() == 1
            again = backend.run_batch(CONFIG, QUERIES)
            assert np.array_equal(
                again.lanes[0].estimate.counts,
                refreshed.lanes[0].estimate.counts,
            )

    def test_timeout_cause_for_hung_worker(self):
        with _pool(timeout_s=1.0, on_shard_failure="fail") as backend:
            backend.run_batch(CONFIG, QUERIES)
            backend.inject_chaos(1, "hang", 6.0)
            with pytest.raises(ShardFailure) as info:
                backend.run_batch(CONFIG, QUERIES)
            assert info.value.cause == "timeout"

    def test_no_leaked_segments_after_kill_and_close(self):
        backend = _pool()
        _kill_mid_batch(backend, shard=1)
        backend.run_batch(CONFIG, QUERIES)
        prefix = backend.arena_prefix
        assert SharedArena.list_segments(prefix) != []
        backend.close()
        assert SharedArena.list_segments(prefix) == []

    def test_sweep_orphans_respects_live_set(self):
        arena = SharedArena.create(
            {"x": np.arange(4)}, epoch=0, prefix="repro-arena-testsweep"
        )
        other = SharedArena.create(
            {"y": np.arange(4)}, epoch=0, prefix="repro-arena-testsweep"
        )
        try:
            names = SharedArena.list_segments("repro-arena-testsweep")
            assert len(names) == 2
            swept = SharedArena.sweep_orphans(
                "repro-arena-testsweep", live={arena.spec.name}
            )
            assert swept == [other.spec.name]
            assert SharedArena.list_segments("repro-arena-testsweep") == [
                arena.spec.name
            ]
            # Idempotent.
            assert (
                SharedArena.sweep_orphans(
                    "repro-arena-testsweep", live={arena.spec.name}
                )
                == []
            )
        finally:
            arena.destroy()
            other.close()
        assert SharedArena.list_segments("repro-arena-testsweep") == []

    def test_sweep_needs_a_prefix(self):
        with pytest.raises(ConfigError):
            SharedArena.list_segments("")


# ----------------------------------------------------------------------
# Chaos schedule: taxonomy bridge and injector
# ----------------------------------------------------------------------
class TestChaosSchedule:
    def test_shared_taxonomy(self):
        assert MachineCrash(step=1, machine=0).chaos_kind in FAULT_KINDS
        assert MessageDrop(0.1).chaos_kind in FAULT_KINDS
        assert ChaosEvent(0.0, "kill", 0).kind in FAULT_KINDS

    def test_roundtrip_with_fault_schedule(self):
        simulated = FaultSchedule(
            crashes=(
                MachineCrash(step=1, machine=0, rebirth=False),
                MachineCrash(step=2, machine=3, rebirth=False),
            ),
            message_drop=MessageDrop(0.5),
        )
        chaos = ChaosSchedule.from_fault_schedule(simulated, step_time_s=0.5)
        assert [e.kind for e in chaos.events] == ["kill", "kill"]
        assert [e.time_s for e in chaos.events] == [0.5, 1.0]
        back = chaos.to_fault_schedule(step_time_s=0.5)
        assert {(c.step, c.machine) for c in back.crashes} == {
            (1, 0),
            (2, 3),
        }
        assert all(not c.rebirth for c in back.crashes)
        # drop has no real-process analogue and is documentedly lost.
        assert back.message_drop is None

    def test_latency_only_events_have_no_simulated_twin(self):
        chaos = ChaosSchedule(
            events=(
                ChaosEvent(0.5, "hang", 0, duration_s=1.0),
                ChaosEvent(1.0, "delay", 1, duration_s=1.0),
            )
        )
        assert chaos.to_fault_schedule().crashes == ()
        assert chaos.kills() == ()

    def test_event_validation(self):
        with pytest.raises(ConfigError):
            ChaosEvent(0.0, "explode", 0)
        with pytest.raises(ConfigError):
            ChaosEvent(-1.0, "kill", 0)
        with pytest.raises(ConfigError):
            ChaosEvent(0.0, "kill", -1)

    def test_injector_needs_a_process_pool(self):
        with pytest.raises(ConfigError):
            ChaosInjector(object(), ChaosSchedule())

    def test_pool_refuses_shards_it_does_not_have(self):
        """A shard outside the pool is a ConfigError: no negative index
        onto the last worker, no raw IndexError, and no chaos event
        that would only fail silently when its timer fires."""
        with _pool(num_shards=2, num_machines=4) as backend:
            for shard in (-1, 2):
                with pytest.raises(ConfigError, match="2-shard pool"):
                    backend.worker_pid(shard)
                with pytest.raises(ConfigError, match="2-shard pool"):
                    backend.inject_chaos(shard, "hang", 0.0)
            crash = FaultSchedule(crashes=(MachineCrash(step=1, machine=3),))
            for schedule in (
                ChaosSchedule(events=(ChaosEvent(0.0, "kill", 5),)),
                ChaosSchedule.from_fault_schedule(crash),
            ):
                with pytest.raises(ConfigError, match="2-shard pool"):
                    ChaosInjector(backend, schedule)
            assert backend.worker_pid(1) > 0
            ChaosInjector(backend, ChaosSchedule((ChaosEvent(0.0, "kill", 1),)))

    def test_injector_fires_against_real_pool(self):
        with _pool() as backend:
            backend.run_batch(CONFIG, QUERIES)
            schedule = ChaosSchedule(
                events=(ChaosEvent(0.05, "kill", 1),)
            )
            injector = ChaosInjector(backend, schedule).arm()
            deadline = time.monotonic() + 5.0
            while not injector.fired and time.monotonic() < deadline:
                time.sleep(0.02)
            injector.disarm()
            assert [e.kind for _, e in injector.fired] == ["kill"]
            assert backend.supervisor.check() == 1


# ----------------------------------------------------------------------
# Simulated vs real: one degradation story
# ----------------------------------------------------------------------
class TestSimulatedRealParity:
    def test_partial_dent_matches_simulated_dent(self):
        """Losing 1-of-3 shards (real SIGKILL) costs about what the
        simulated fault layer predicts for losing the same frog
        fraction — the paper's ~1/M claim, cross-checked between the
        two fault vocabularies at matched loss."""
        k = 20
        ranking = exact_pagerank(GRAPH)
        with _pool() as backend:
            healthy = backend.run_batch(CONFIG, QUERIES)
            _kill_mid_batch(backend, shard=1)
            partial = backend.run_batch(CONFIG, QUERIES)
            assert partial.degraded_shards == (1,)
        real_healthy = normalized_mass_captured(
            healthy.lanes[0].estimate.vector(), ranking, k
        )
        real_partial = normalized_mass_captured(
            partial.lanes[0].estimate.vector(), ranking, k
        )
        real_dent = real_healthy - real_partial

        # The simulated twin: crash machines carrying ~1/3 of the
        # frogs at the matching superstep, frogs not reborn.
        chaos = ChaosSchedule(events=(ChaosEvent(0.0, "kill", 0),))
        simulated = chaos.to_fault_schedule(step_time_s=1.0)
        assert all(not c.rebirth for c in simulated.crashes)
        num_machines = 3
        sim_result, _fault_log = run_frogwild_with_faults(
            GRAPH,
            schedule=simulated,
            config=CONFIG,
            num_machines=num_machines,
        )
        sim_clean, _ = run_frogwild_with_faults(
            GRAPH,
            schedule=FaultSchedule(),
            config=CONFIG,
            num_machines=num_machines,
        )
        sim_dent = normalized_mass_captured(
            sim_clean.estimate.vector(), ranking, k
        ) - normalized_mass_captured(
            sim_result.estimate.vector(), ranking, k
        )
        # Both dents are small (graceful degradation) and of the same
        # order; the tolerance is loose because the simulated crash
        # loses resident frogs (~1/M at one step) while the real kill
        # loses a full shard slice (1/3).
        assert real_dent <= 0.15
        assert sim_dent <= 0.15
        assert abs(real_dent - sim_dent) <= 0.12
