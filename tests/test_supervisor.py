"""Fail-soft process pool: supervision, partial answers, chaos parity.

The paper's graceful-degradation claim (losing a machine costs ~1/M of
the frogs, nothing else) is only real if the *implementation* survives
losing a machine.  These tests SIGKILL actual worker processes and pin
down the two ``on_shard_failure`` policies:

* ``"partial"`` — a mid-batch kill still answers, from an exact merge
  of the surviving shards, with the estimator's population rescaled
  and a wider (finite) Theorem-1 bound; the *next* batch is bitwise
  identical to a never-crashed pool;
* ``"fail"`` — the same kill raises a typed
  :class:`~repro.errors.ShardFailure` *after* the pool is restored —
  no wedged backend, no leaked ``/dev/shm`` segments.

Plus respawn on the batch path (a kill between batches is a free
resend on a new worker, which serves the live epoch; orphan sweeps)
and the simulated-vs-real bridge: a
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
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

from repro.cluster import SharedArena
from repro.core import FrogWildConfig, merge_shard_results
from repro.errors import ConfigError, EngineError, ShardFailure, WorkerCrashError
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
from repro.serving.process_backend import PoolEpoch
from repro.serving.config import SHARD_FAILURE_POLICIES
from repro.serving.supervisor import (
    MAX_BACKOFF_S,
    RESPAWN_BACKOFF_S,
    WorkerSupervisor,
)
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


def _remap(backend):
    """Attach a new epoch of the same tables and retire the old one."""
    old = PoolEpoch(backend)
    backend.attach_epoch(GRAPH, backend.replications)
    old.retire()


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
    @pytest.mark.parametrize("shard", [0, 1, 2])
    def test_mid_batch_kill_answers_with_rescaled_population(self, shard):
        with _pool() as backend:
            healthy = backend.run_batch(CONFIG, QUERIES)
            _kill_mid_batch(backend, shard=shard)
            partial = backend.run_batch(CONFIG, QUERIES)
            assert partial.degraded_shards == (shard,)
            assert partial.lost_frogs > 0
            assert (
                partial.lanes[0].estimate.num_frogs
                == healthy.lanes[0].estimate.num_frogs - partial.lost_frogs
            )
            # The merge is exact over survivors: no cost row of the
            # lost shard, and the answer is the record merge of the
            # other two as the in-process fan-out runs them.
            others = [s for s in range(backend.num_shards) if s != shard]
            assert [c.shard for c in partial.shards] == others
            survivors = _survivor_lanes(backend, shards=others)
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

    def test_hung_worker_is_replaced_and_its_slice_dropped(self):
        with _pool(timeout_s=1.0) as backend:
            healthy = backend.run_batch(CONFIG, QUERIES)
            old_pid = backend.worker_pid(1)
            backend.inject_chaos(1, "hang", 6.0)
            partial = backend.run_batch(CONFIG, QUERIES)
            assert partial.degraded_shards == (1,)
            assert [(s, c) for _, s, c in backend.supervisor.crash_log] == [
                (1, "timeout")
            ]
            assert backend.worker_pid(1) != old_pid
            again = backend.run_batch(CONFIG, QUERIES)
            assert again.degraded_shards == ()
            assert np.array_equal(
                again.lanes[0].estimate.counts,
                healthy.lanes[0].estimate.counts,
            )

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
        # A worker dead at dispatch lost no work: both policies respawn
        # it and resend without marking anything degraded, whichever
        # shard it served.
        for policy in SHARD_FAILURE_POLICIES:
            with _pool(on_shard_failure=policy) as backend:
                healthy = backend.run_batch(CONFIG, QUERIES)
                for shard in range(backend.num_shards):
                    old_pid = backend.worker_pid(shard)
                    os.kill(old_pid, signal.SIGKILL)
                    time.sleep(0.2)
                    outcome = backend.run_batch(CONFIG, QUERIES)
                    assert outcome.degraded_shards == (), policy
                    assert np.array_equal(
                        outcome.lanes[0].estimate.counts,
                        healthy.lanes[0].estimate.counts,
                    ), policy
                    assert backend.worker_pid(shard) != old_pid
                assert backend.supervisor.stats.respawns == 3


# ----------------------------------------------------------------------
# Options
# ----------------------------------------------------------------------
class TestPoolOptions:
    def test_invalid_policy_rejected(self):
        for policy in ("panic", "retry"):
            with pytest.raises(ConfigError, match="on_shard_failure"):
                _pool(on_shard_failure=policy)

    @pytest.mark.parametrize(
        "bad",
        [{"on_shard_failure": "panic"}, {"timeout_s": 0}, {"timeout_s": -1.0}],
        ids=str,
    )
    def test_options_are_checked_before_any_table_is_built(self, bad):
        """A bad pool option is refused before the layout partitions
        the graph and builds a replication table per shard."""
        (name,) = bad
        boom = mock.Mock(side_effect=AssertionError("table built"))
        with mock.patch("repro.serving.backend.ReplicationTable", boom):
            with pytest.raises(ConfigError, match=name):
                _pool(num_shards=2, **bad)
        assert boom.call_count == 0

    def test_closed_pool_refuses_batches(self):
        backend = _pool(num_shards=2, num_machines=4)
        backend.close()
        backend.close()  # idempotent
        with pytest.raises(EngineError, match="closed"):
            backend.run_batch(CONFIG, QUERIES)

    def test_closed_pool_refuses_chaos(self):
        backend = _pool(num_shards=2, num_machines=4)
        backend.close()
        with pytest.raises(EngineError, match="closed"):
            backend.worker_pid(0)
        with pytest.raises(EngineError, match="closed"):
            backend.inject_chaos(0, "hang", 0.0)


# ----------------------------------------------------------------------
# Supervisor lifecycle
# ----------------------------------------------------------------------
def _assert_revived_by_next_batch(backend, shard, old_pid, healthy):
    """The batch after a between-batches kill respawns ``shard`` on a
    new pid and answers bitwise as the never-crashed pool did."""
    outcome = backend.run_batch(CONFIG, QUERIES)
    assert outcome.degraded_shards == ()
    assert np.array_equal(
        outcome.lanes[0].estimate.counts, healthy.lanes[0].estimate.counts
    )
    assert backend.worker_pid(shard) != old_pid
    assert backend.supervisor.stats.respawns == 1
    assert [entry[1] for entry in backend.supervisor.crash_log] == [shard]


class TestSupervisor:
    def test_batch_revives_dead_worker_with_new_pid(self):
        with _pool() as backend:
            healthy = backend.run_batch(CONFIG, QUERIES)
            old_pid = backend.worker_pid(1)
            os.kill(old_pid, signal.SIGKILL)
            time.sleep(0.2)
            _assert_revived_by_next_batch(backend, 1, old_pid, healthy)

    def test_healthy_batches_respawn_nothing(self):
        with _pool() as backend:
            pids = [backend.worker_pid(s) for s in range(backend.num_shards)]
            first = backend.run_batch(CONFIG, QUERIES)
            second = backend.run_batch(CONFIG, QUERIES)
            assert np.array_equal(
                first.lanes[0].estimate.counts,
                second.lanes[0].estimate.counts,
            )
            assert pids == [
                backend.worker_pid(s) for s in range(backend.num_shards)
            ]
            assert backend.supervisor.stats.respawns == 0
            assert backend.supervisor.crash_log == []

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

    def test_respawn_reattaches_to_current_epoch(self):
        with _pool() as backend:
            backend.run_batch(CONFIG, QUERIES)
            # Advance the epoch, then crash: the revived worker must
            # serve the *new* epoch's arenas.
            _remap(backend)
            refreshed = backend.run_batch(CONFIG, QUERIES)
            old_pid = backend.worker_pid(0)
            os.kill(old_pid, signal.SIGKILL)
            time.sleep(0.2)
            _assert_revived_by_next_batch(backend, 0, old_pid, refreshed)

    def test_an_attach_revives_a_worker_dead_since_the_last_batch(self):
        """A worker killed between batches is respawned by the attach
        that finds it, as a batch would; its healthy sibling keeps
        serving, so the next batch still runs every frog."""
        with _pool(num_shards=2, on_shard_failure="fail") as backend:
            backend.run_batch(CONFIG, QUERIES)
            survivor = backend.worker_pid(0)
            old_pid = backend.worker_pid(1)
            os.kill(old_pid, signal.SIGKILL)
            time.sleep(0.2)
            _remap(backend)
            assert backend._workers[0].process.is_alive()
            assert backend.worker_pid(0) == survivor
            assert backend.worker_pid(1) != old_pid
            outcome = backend.run_batch(CONFIG, QUERIES)
            assert outcome.degraded_shards == ()
            assert outcome.lanes[0].estimate.num_frogs == CONFIG.num_frogs
            assert backend.supervisor.stats.respawns == 1
            # Only the new epoch's arenas are left.
            assert list(backend._arenas) == [1]

    def test_a_failed_attach_gathers_every_attach_it_sent(self):
        """Shard 0's table segment is gone before it attaches: its
        error reply fails the attach, but only after shard 1's (held
        back) attach reply was gathered, so the epoch is not unlinked
        under it."""
        with _pool(num_shards=2, on_shard_failure="fail") as backend:
            publish = backend._publish_epoch
            backend.inject_chaos(1, "hang", 0.3)

            def publish_without_shard_0(epoch, graph, replications):
                publish(epoch, graph, replications)
                backend._arenas[epoch][1].destroy()

            with mock.patch.object(
                backend, "_publish_epoch", publish_without_shard_0
            ):
                with pytest.raises(EngineError, match="shard 0 worker failed"):
                    backend.attach_epoch(GRAPH, backend.replications)
            assert not backend._workers[1].control.poll(1.0)
            assert list(backend._arenas) == [0]
            assert all(w.process.is_alive() for w in backend._workers)
            outcome = backend.run_batch(CONFIG, QUERIES)
            assert outcome.lanes[0].estimate.num_frogs == CONFIG.num_frogs
            assert backend.supervisor.stats.respawns == 0

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
# Respawn rules, on a pool stand-in with no processes
# ----------------------------------------------------------------------
class _FakeProcess:
    def __init__(self) -> None:
        self.alive = True
        self.killed = self.joined = False

    def is_alive(self) -> bool:
        return self.alive

    def kill(self) -> None:
        self.killed, self.alive = True, False

    def join(self, timeout=None) -> None:
        self.joined = True


class _FakeEndpoint:
    closed = False

    def close(self) -> None:
        self.closed = True


def _fake_worker():
    return SimpleNamespace(
        process=_FakeProcess(), control=_FakeEndpoint(), channel=_FakeEndpoint()
    )


class _FakePool:
    """What ``revive_locked`` reads and calls of a pool, without workers
    behind it: spawns and attaches are recorded, not performed."""

    def __init__(self, shards=1, epochs=(0,), prefix="repro-arena-fakepool"):
        self._workers = [_fake_worker() for _ in range(shards)]
        self._arenas = {epoch: [] for epoch in epochs}
        self._epoch = max(epochs)
        self.arena_prefix = prefix
        self.live: set[str] = set()
        self.spawn_error: Exception | None = None
        self.attached: list[tuple[int, object]] = []

    def _spawn_worker(self, shard):
        if self.spawn_error is not None:
            raise self.spawn_error
        return _fake_worker()

    def _attach(self, epoch, workers):
        self.attached.extend((epoch, worker) for worker in workers)

    def _live_segment_names(self):
        return frozenset(self.live)


@pytest.fixture
def sleeps():
    """Every backoff sleep the supervisor asks for, none of them slept."""
    asked: list[float] = []
    clock = SimpleNamespace(monotonic=time.monotonic, sleep=asked.append)
    with mock.patch("repro.serving.supervisor.time", clock):
        yield asked


class TestRespawn:
    def test_revive_replaces_the_worker_and_attaches_every_epoch(self):
        pool = _FakePool(epochs=(3, 1, 2))
        old = pool._workers[0]
        supervisor = WorkerSupervisor()
        supervisor.revive_locked(pool, 0, cause="timeout")
        new = pool._workers[0]
        assert new is not old
        assert old.process.killed and old.process.joined
        assert old.control.closed and old.channel.closed
        assert pool.attached == [(1, new), (2, new), (3, new)]
        assert supervisor.stats.crashes_detected == 1
        assert supervisor.stats.respawns == 1
        assert [entry[1:] for entry in supervisor.crash_log] == [
            (0, "timeout")
        ]

    def test_a_dead_process_is_reaped_not_killed(self):
        pool = _FakePool()
        old = pool._workers[0]
        old.process.alive = False
        WorkerSupervisor().revive_locked(pool, 0)
        assert old.process.joined and not old.process.killed

    def test_backoff_doubles_per_consecutive_crash_up_to_the_cap(
        self, sleeps
    ):
        pool = _FakePool()
        supervisor = WorkerSupervisor()
        for _ in range(8):
            supervisor.revive_locked(pool, 0)
        # The first respawn of a streak is immediate.
        assert sleeps == [
            min(RESPAWN_BACKOFF_S * 2.0**attempt, MAX_BACKOFF_S)
            for attempt in range(7)
        ]
        assert sleeps[-1] == MAX_BACKOFF_S

    def test_a_healthy_result_ends_the_streak(self, sleeps):
        pool = _FakePool()
        supervisor = WorkerSupervisor()
        supervisor.revive_locked(pool, 0)
        supervisor.revive_locked(pool, 0)
        supervisor.note_healthy_locked(0)
        supervisor.revive_locked(pool, 0)
        assert sleeps == [RESPAWN_BACKOFF_S]

    def test_streaks_are_per_shard(self, sleeps):
        pool = _FakePool(shards=2)
        supervisor = WorkerSupervisor()
        supervisor.revive_locked(pool, 0)
        supervisor.revive_locked(pool, 1)
        assert sleeps == []
        assert supervisor.stats.respawns == 2

    def test_failed_respawn_is_typed_and_keeps_the_dead_handle(self):
        pool = _FakePool(epochs=(0, 4))
        old = pool._workers[0]
        pool.spawn_error = EngineError("no fork")
        supervisor = WorkerSupervisor()
        with pytest.raises(WorkerCrashError) as info:
            supervisor.revive_locked(pool, 0)
        assert (info.value.shard, info.value.epoch, info.value.cause) == (
            0,
            4,
            "respawn",
        )
        assert pool._workers[0] is old
        assert supervisor.stats.respawn_failures == 1
        assert supervisor.stats.respawns == 0
        assert len(supervisor.crash_log) == 1

    def test_respawn_sweeps_orphans_and_spares_live_segments(self):
        prefix = "repro-arena-testrespawn"
        kept = SharedArena.create({"x": np.arange(4)}, epoch=0, prefix=prefix)
        orphan = SharedArena.create(
            {"y": np.arange(4)}, epoch=0, prefix=prefix
        )
        try:
            pool = _FakePool(prefix=prefix)
            pool.live = {kept.spec.name}
            supervisor = WorkerSupervisor()
            supervisor.revive_locked(pool, 0)
            assert supervisor.stats.segments_swept == 1
            assert SharedArena.list_segments(prefix) == [kept.spec.name]
        finally:
            kept.destroy()
            orphan.close()
        assert SharedArena.list_segments(prefix) == []

    def test_a_shard_lost_on_consecutive_batches_backs_off(self, sleeps):
        with _pool() as backend:
            healthy = backend.run_batch(CONFIG, QUERIES)
            for _ in range(2):
                _kill_mid_batch(backend, shard=1)
                assert backend.run_batch(CONFIG, QUERIES).degraded_shards == (
                    1,
                )
            # The second respawn of shard 1's streak waited once.
            assert sleeps == [RESPAWN_BACKOFF_S]
            assert [entry[1] for entry in backend.supervisor.crash_log] == [
                1,
                1,
            ]
            again = backend.run_batch(CONFIG, QUERIES)
            assert again.degraded_shards == ()
            assert np.array_equal(
                again.lanes[0].estimate.counts,
                healthy.lanes[0].estimate.counts,
            )
            # That healthy answer ended the streak: the next loss of
            # shard 1 is respawned at once.
            _kill_mid_batch(backend, shard=1)
            backend.run_batch(CONFIG, QUERIES)
            assert sleeps == [RESPAWN_BACKOFF_S]
            assert backend.supervisor.stats.respawns == 3


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
            healthy = backend.run_batch(CONFIG, QUERIES)
            old_pid = backend.worker_pid(1)
            schedule = ChaosSchedule(
                events=(ChaosEvent(0.05, "kill", 1),)
            )
            injector = ChaosInjector(backend, schedule).arm()
            deadline = time.monotonic() + 5.0
            while not injector.fired and time.monotonic() < deadline:
                time.sleep(0.02)
            injector.disarm()
            assert [e.kind for _, e in injector.fired] == ["kill"]
            time.sleep(0.2)
            _assert_revived_by_next_batch(backend, 1, old_pid, healthy)


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
