"""Tests for batch scheduling and coalescer ordering.

The dispatch rule is pinned on the coalescer's decision itself and
under a virtual clock — no sleeps, no background threads; the
background loop's lifecycle, and the same rule on a real clock, run on
real threads gated by events.  One arrival trace fed to both clocks
must send the same batches.
"""

import gc
import math
import sys
import threading
import weakref
from time import monotonic
from time import sleep as time_sleep

import numpy as np
import pytest

from repro.core import FrogWildConfig
from repro.errors import ConfigError
from repro.serving import (
    BatchScheduler,
    QueryCoalescer,
    RankingQuery,
    RankingService,
    ServiceConfig,
    VirtualClock,
)

DEFAULT = FrogWildConfig(seed=0)
FAST = FrogWildConfig(num_frogs=100, iterations=2, seed=0)
SLOW = FrogWildConfig(num_frogs=100, iterations=9, seed=0)


class TestCoalescerOrdering:
    def test_interleaved_configs_stay_fifo_within_config(self):
        """Mixed per-query overrides interleaved at add time drain as
        config-pure batches that each preserve arrival order."""
        coalescer = QueryCoalescer(max_batch_size=8)
        plan = [
            (0, None), (1, FAST), (2, None), (3, SLOW), (4, FAST),
            (5, None), (6, SLOW), (7, FAST),
        ]
        for vertex, config in plan:
            coalescer.add(RankingQuery(seeds=(vertex,), config=config), DEFAULT)
        batches = coalescer.drain_entries()
        assert len(batches) == 3
        by_config = {config: queries for config, queries in batches}
        assert [q.query.seeds[0] for q in by_config[DEFAULT]] == [0, 2, 5]
        assert [q.query.seeds[0] for q in by_config[FAST]] == [1, 4, 7]
        assert [q.query.seeds[0] for q in by_config[SLOW]] == [3, 6]
        assert coalescer.pending_count() == 0

    def test_equal_valued_config_objects_share_a_batch(self):
        """Config purity is by value: two distinct-but-equal override
        instances coalesce into one batch (FrogWildConfig is a frozen
        dataclass, so equality and hashing are structural)."""
        coalescer = QueryCoalescer(max_batch_size=8)
        first = FrogWildConfig(num_frogs=500, seed=3)
        second = FrogWildConfig(num_frogs=500, seed=3)
        assert first is not second
        coalescer.add(RankingQuery(seeds=(1,), config=first), DEFAULT)
        coalescer.add(RankingQuery(seeds=(2,), config=second), DEFAULT)
        batches = coalescer.drain_entries()
        assert len(batches) == 1
        assert [q.query.seeds[0] for q in batches[0][1]] == [1, 2]

    def test_oversize_group_slices_preserve_order(self):
        coalescer = QueryCoalescer(max_batch_size=3)
        for vertex in range(8):
            coalescer.add(RankingQuery(seeds=(vertex,)), DEFAULT)
        batches = coalescer.drain_entries()
        assert [len(queries) for _, queries in batches] == [3, 3, 2]
        order = [q.query.seeds[0] for _, queries in batches for q in queries]
        assert order == list(range(8))

    def test_a_free_server_takes_full_slices_first(self):
        """A full slice of any group leaves before an older partial
        group; the remainder stays queued and leaves next, as idle."""
        coalescer = QueryCoalescer(max_batch_size=3)
        coalescer.add(RankingQuery(seeds=(9,), config=FAST), DEFAULT,
                      arrival=0.0)
        for vertex in range(7):
            coalescer.add(RankingQuery(seeds=(vertex,)), DEFAULT,
                          arrival=1.0)
        sent = []
        while (popped := coalescer.pop_batch(1.0, 5.0, busy=False)):
            config, entries, kind = popped
            sent.append((kind, [e.query.seeds[0] for e in entries]))
        assert sent == [
            ("fill", [0, 1, 2]),
            ("fill", [3, 4, 5]),
            ("idle", [9]),
            ("idle", [6]),
        ]
        assert coalescer.pending_count() == 0

    def test_a_busy_server_sends_nothing_before_the_deadline(self):
        coalescer = QueryCoalescer(max_batch_size=2)
        coalescer.add(RankingQuery(seeds=(1,)), DEFAULT, arrival=10.0)
        coalescer.add(RankingQuery(seeds=(2,)), DEFAULT, arrival=11.0)
        # Not even a full slice leaves to a busy server early.
        assert coalescer.pop_batch(14.9, 5.0, busy=True) is None
        assert coalescer.pending_count() == 2

    def test_a_busy_server_sends_the_oldest_group_at_its_deadline(self):
        coalescer = QueryCoalescer(max_batch_size=8)
        coalescer.add(RankingQuery(seeds=(1,)), DEFAULT, arrival=10.0)
        coalescer.add(RankingQuery(seeds=(2,)), DEFAULT, arrival=11.0)
        coalescer.add(RankingQuery(seeds=(3,), config=FAST), DEFAULT,
                      arrival=12.0)
        # Deadlines anchor on each group's oldest entry.
        assert coalescer.next_deadline(5.0) == 15.0
        config, entries, kind = coalescer.pop_batch(15.0, 5.0, busy=True)
        assert (config, kind) == (DEFAULT, "deadline")
        # The whole group rides, including the query that arrived later.
        assert [entry.query.seeds[0] for entry in entries] == [1, 2]
        assert coalescer.next_deadline(5.0) == 17.0
        assert coalescer.pop_batch(16.9, 5.0, busy=True) is None
        assert coalescer.pending_count() == 1

    def test_no_delay_sends_full_slices_only_to_a_free_server(self):
        coalescer = QueryCoalescer(max_batch_size=2)
        for vertex in range(3):
            coalescer.add(RankingQuery(seeds=(vertex,)), DEFAULT,
                          arrival=0.0)
        assert coalescer.pop_batch(1e9, None, busy=True) is None
        _, entries, kind = coalescer.pop_batch(1e9, None, busy=False)
        assert kind == "fill" and len(entries) == 2
        assert coalescer.pop_batch(1e9, None, busy=False) is None
        assert coalescer.pending_count() == 1

    def test_unstamped_entry_makes_its_group_due_immediately(self):
        """An arrival-less entry is 'due at once' even when queued
        behind timed entries of the same config group."""
        coalescer = QueryCoalescer(max_batch_size=8)
        coalescer.add(RankingQuery(seeds=(1,)), DEFAULT, arrival=10.0)
        coalescer.add(RankingQuery(seeds=(2,)), DEFAULT)  # no arrival
        assert coalescer.next_deadline(5.0) == float("-inf")
        _, entries, kind = coalescer.pop_batch(10.1, 5.0, busy=True)
        assert kind == "deadline"
        assert [e.query.seeds[0] for e in entries] == [1, 2]

    def test_payloads_survive_the_queue(self):
        coalescer = QueryCoalescer(max_batch_size=2)
        coalescer.add(RankingQuery(seeds=(1,)), DEFAULT, payload="a")
        coalescer.add(RankingQuery(seeds=(2,)), DEFAULT, payload="b")
        _, entries, _ = coalescer.pop_batch(0.0, None, busy=False)
        assert [entry.payload for entry in entries] == ["a", "b"]


class TestBatchScheduler:
    def make(self, max_batch_size=4, max_delay_s=5.0, service_time=None):
        """A virtual-clock scheduler whose batches each take
        ``service_time`` seconds of the clock (``None``: no time)."""
        dispatched = []

        def dispatch(config, entries):
            dispatched.append((config, entries))
            return service_time

        clock = VirtualClock()
        scheduler = BatchScheduler(
            dispatch,
            QueryCoalescer(max_batch_size),
            max_delay_s=max_delay_s,
            clock=clock,
        )
        return scheduler, clock, dispatched

    def test_enqueue_only_enqueues(self):
        scheduler, _, dispatched = self.make(max_batch_size=3)
        for vertex in range(3):
            scheduler.enqueue(RankingQuery(seeds=(vertex,)), DEFAULT)
        # A full batch waits for the next decision, not inline.
        assert dispatched == []
        assert scheduler.pending_count() == 3
        assert scheduler.pump() is None
        assert scheduler.stats.fill_dispatches == 1

    def test_a_full_slice_leaves_first_when_the_server_frees(self):
        scheduler, clock, dispatched = self.make(
            max_batch_size=3, service_time=1.0
        )
        scheduler.enqueue(RankingQuery(seeds=(0,)), DEFAULT)
        assert scheduler.pump() == 1.0  # idle [0] runs until t = 1
        clock.advance(0.2)
        scheduler.enqueue(RankingQuery(seeds=(9,), config=FAST), DEFAULT)
        clock.advance(0.3)
        for vertex in (1, 2, 3):
            scheduler.enqueue(RankingQuery(seeds=(vertex,)), DEFAULT)
        # Busy: nothing leaves, and pump says when to come back.
        assert scheduler.pump() == 1.0
        assert len(dispatched) == 1
        clock.advance(0.5)
        # The full slice goes before the older FAST query.
        assert scheduler.pump() == 2.0
        clock.advance(1.0)
        assert scheduler.pump() == 3.0
        clock.advance(1.0)
        assert scheduler.pump() is None
        assert [
            [entry.query.seeds[0] for entry in entries]
            for _, entries in dispatched
        ] == [[0], [1, 2, 3], [9]]
        stats = scheduler.stats
        assert (stats.idle_dispatches, stats.fill_dispatches) == (2, 1)
        assert stats.deadline_dispatches == 0

    def test_a_pump_on_a_free_server_sends_one_batch_per_decision(self):
        """With no service time the server is free after each batch, so
        one pump sends every group, oldest first."""
        scheduler, clock, dispatched = self.make()
        scheduler.enqueue(RankingQuery(seeds=(1,), config=FAST), DEFAULT)
        clock.advance(1.0)
        scheduler.enqueue(RankingQuery(seeds=(2,)), DEFAULT)
        assert scheduler.pump() is None
        assert [config for config, _ in dispatched] == [FAST, DEFAULT]
        assert scheduler.stats.idle_dispatches == 2

    def test_next_deadline_tracks_oldest_pending_group(self):
        scheduler, clock, _ = self.make()

        def next_deadline():
            return scheduler.coalescer.next_deadline(scheduler.max_delay_s)

        assert next_deadline() is None
        scheduler.enqueue(RankingQuery(seeds=(1,)), DEFAULT)
        assert next_deadline() == pytest.approx(5.0)
        clock.advance(1.0)
        scheduler.enqueue(RankingQuery(seeds=(2,), config=FAST), DEFAULT)
        # The default-config group is still the oldest.
        assert next_deadline() == pytest.approx(5.0)

    def test_flush_ignores_deadlines(self):
        scheduler, _, dispatched = self.make()
        scheduler.enqueue(RankingQuery(seeds=(1,)), DEFAULT)
        scheduler.enqueue(RankingQuery(seeds=(2,), config=FAST), DEFAULT)
        assert scheduler.flush() == 2
        assert len(dispatched) == 2
        assert scheduler.stats.flush_dispatches == 2
        assert scheduler.pending_count() == 0

    def test_no_deadline_means_fill_or_flush_only(self):
        scheduler, clock, dispatched = self.make(max_delay_s=None)
        scheduler.enqueue(RankingQuery(seeds=(1,)), DEFAULT)
        clock.advance(1e9)
        assert scheduler.pump() is None
        assert dispatched == []
        assert scheduler.flush() == 1

    def test_one_failing_batch_does_not_strand_its_siblings(self):
        """Batches already popped from the coalescer all dispatch even
        when an earlier one raises — otherwise their submitters' futures
        would hang forever.  The first error resurfaces afterwards."""
        dispatched = []

        def dispatch(config, entries):
            if config == FAST:
                raise RuntimeError("shard meltdown")
            dispatched.append(config)

        scheduler = BatchScheduler(dispatch, QueryCoalescer(4))
        scheduler.enqueue(RankingQuery(seeds=(1,), config=FAST), DEFAULT)
        scheduler.enqueue(RankingQuery(seeds=(2,)), DEFAULT)
        scheduler.enqueue(RankingQuery(seeds=(3,), config=SLOW), DEFAULT)
        with pytest.raises(RuntimeError, match="shard meltdown"):
            scheduler.flush()
        # The two healthy batches still ran, and stats counted all 3.
        assert dispatched == [DEFAULT, SLOW]
        assert scheduler.stats.flush_dispatches == 3
        assert scheduler.pending_count() == 0

    def test_background_thread_survives_a_dispatch_error(self):
        """A failing deadline dispatch must not kill the loop: the
        error is parked on ``last_error`` and later submissions still
        dispatch on their deadlines."""
        import threading

        dispatched = threading.Event()

        def dispatch(config, entries):
            if entries[0].query.seeds == (666,):
                raise RuntimeError("poison query")
            dispatched.set()

        scheduler = BatchScheduler(
            dispatch, QueryCoalescer(4), max_delay_s=0.005
        )
        scheduler.start()
        try:
            scheduler.enqueue(RankingQuery(seeds=(666,)), DEFAULT)
            for _ in range(1000):
                if scheduler.last_error is not None:
                    break
                time_sleep(0.005)
            assert isinstance(scheduler.last_error, RuntimeError)
            assert scheduler.running
            scheduler.enqueue(RankingQuery(seeds=(1,)), DEFAULT)
            assert dispatched.wait(timeout=30.0)
        finally:
            scheduler.stop(flush=False)

    def test_negative_delay_rejected(self):
        with pytest.raises(ConfigError):
            BatchScheduler(
                lambda config, entries: None,
                QueryCoalescer(4),
                max_delay_s=-1.0,
            )

    def test_stop_start_cycles_are_clean(self):
        """Restarting the loop works: each thread owns its stop event,
        so a fresh start never resurrects (or unsticks) an old loop."""
        import threading

        dispatched = threading.Event()
        scheduler = BatchScheduler(
            lambda config, entries: dispatched.set(),
            QueryCoalescer(4),
            max_delay_s=0.001,
        )
        for _ in range(3):
            scheduler.start()
            assert scheduler.running
            scheduler.stop(flush=False)
            assert not scheduler.running
        scheduler.start()
        try:
            scheduler.enqueue(RankingQuery(seeds=(1,)), DEFAULT)
            assert dispatched.wait(timeout=30.0)
        finally:
            scheduler.stop(flush=False)

    def test_stop_joins_the_loop_before_reporting_stopped(self):
        """Regression: stop() used to clear the thread handle *before*
        joining, so ``running`` flipped False while the loop could still
        be dispatching, and the final flush could interleave with an
        in-flight loop dispatch.  Now the join strictly precedes both."""
        import threading

        in_dispatch = threading.Event()
        release = threading.Event()
        order = []

        def dispatch(config, entries):
            order.append(entries[0].query.seeds[0])
            if entries[0].query.seeds == (1,):
                in_dispatch.set()
                release.wait(timeout=30.0)

        scheduler = BatchScheduler(
            dispatch, QueryCoalescer(4), max_delay_s=0.001
        )
        scheduler.start()
        scheduler.enqueue(RankingQuery(seeds=(1,)), DEFAULT)
        assert in_dispatch.wait(timeout=30.0)
        # The loop thread is parked inside dispatch; this entry can only
        # leave via stop()'s final flush.
        scheduler.enqueue(RankingQuery(seeds=(2,)), DEFAULT)
        stopper = threading.Thread(target=scheduler.stop)
        stopper.start()
        time_sleep(0.05)
        # stop() must block on the in-flight dispatch, still reporting
        # the loop as running and the dispatch as active.
        assert stopper.is_alive()
        assert scheduler.running
        assert scheduler.active_dispatches == 1
        release.set()
        stopper.join(timeout=30.0)
        assert not stopper.is_alive()
        assert not scheduler.running
        assert scheduler.active_dispatches == 0
        # The flush ran strictly after the loop dispatch completed.
        assert order == [1, 2]

    def test_stop_without_start_still_flushes(self):
        scheduler, _, dispatched = self.make()
        scheduler.enqueue(RankingQuery(seeds=(1,)), DEFAULT)
        scheduler.stop()
        assert len(dispatched) == 1
        assert not scheduler.running

    def test_background_loop_rejects_virtual_clocks(self):
        """start() under a VirtualClock would sleep real seconds against
        frozen virtual deadlines and hang every future — fail fast."""
        scheduler, _, _ = self.make()
        with pytest.raises(ConfigError):
            scheduler.start()
        assert not scheduler.running

    def test_service_start_rejects_virtual_clocks(self):
        from repro.graph import star_graph

        service = RankingService(
            star_graph(20),
            ServiceConfig(
                config=FrogWildConfig(num_frogs=100, iterations=2, seed=0),
                num_machines=2, max_delay_s=0.01, clock=VirtualClock()
            ),
        )
        with pytest.raises(ConfigError):
            with service:
                pass

    def test_virtual_clock_validates_direction(self):
        clock = VirtualClock()
        with pytest.raises(ConfigError):
            clock.advance(-1.0)


class TestIdleDispatch:
    """The started loop is work-conserving: with no batch in the
    dispatch callback, whatever is pending leaves at once; a deadline
    only bounds the wait behind another thread's dispatch."""

    def make(self, dispatch, max_delay_s=30.0, max_batch_size=8):
        return BatchScheduler(
            dispatch, QueryCoalescer(max_batch_size), max_delay_s=max_delay_s
        )

    def test_lone_submit_to_an_idle_loop_leaves_at_once(self):
        dispatched = threading.Event()
        scheduler = self.make(lambda config, entries: dispatched.set())
        scheduler.start()
        try:
            began = monotonic()
            scheduler.enqueue(RankingQuery(seeds=(1,)), DEFAULT)
            assert dispatched.wait(timeout=30.0)
            assert monotonic() - began < 1.0
        finally:
            scheduler.stop(flush=False)
        assert scheduler.stats.idle_dispatches == 1
        assert scheduler.stats.deadline_dispatches == 0

    def test_arrivals_during_a_dispatch_leave_as_one_batch(self):
        sizes = []
        running = threading.Event()
        release = threading.Event()
        second = threading.Event()

        def dispatch(config, entries):
            sizes.append(len(entries))
            if len(sizes) == 1:
                running.set()
                release.wait(timeout=30.0)
            else:
                second.set()

        scheduler = self.make(dispatch)
        scheduler.start()
        try:
            scheduler.enqueue(RankingQuery(seeds=(1,)), DEFAULT)
            assert running.wait(timeout=30.0)
            for vertex in (2, 3, 4):
                scheduler.enqueue(RankingQuery(seeds=(vertex,)), DEFAULT)
            assert not second.is_set()
            release.set()
            assert second.wait(timeout=30.0)
        finally:
            scheduler.stop(flush=False)
        assert sizes == [1, 3]
        assert scheduler.stats.idle_dispatches == 2
        assert scheduler.stats.deadline_dispatches == 0

    def test_loop_dispatches_when_another_flush_returns(self):
        """A flush running on another thread keeps the server busy; the
        loop's entry leaves the moment it returns, not 30 s later."""
        flushing = threading.Event()
        release = threading.Event()
        dispatched = threading.Event()

        def dispatch(config, entries):
            if entries[0].query.seeds == (1,):
                flushing.set()
                release.wait(timeout=30.0)
            else:
                dispatched.set()

        scheduler = self.make(dispatch)
        scheduler.enqueue(RankingQuery(seeds=(1,)), DEFAULT)
        flusher = threading.Thread(target=scheduler.flush)
        flusher.start()
        assert flushing.wait(timeout=30.0)
        scheduler.start()
        try:
            scheduler.enqueue(RankingQuery(seeds=(2,)), DEFAULT)
            time_sleep(0.05)
            # Busy server: the entry waits behind the flush.
            assert not dispatched.is_set()
            assert scheduler.pending_count() == 1
            released = monotonic()
            release.set()
            assert dispatched.wait(timeout=30.0)
            assert monotonic() - released < 5.0
        finally:
            flusher.join(timeout=30.0)
            scheduler.stop(flush=False)
        stats = scheduler.stats
        assert (stats.flush_dispatches, stats.idle_dispatches) == (1, 1)
        assert stats.deadline_dispatches == 0

    def test_a_deadline_fires_behind_a_held_flush(self):
        """Behind a busy server a partial batch leaves once its oldest
        entry has waited ``max_delay_s``, while the flush still runs."""
        flushing = threading.Event()
        release = threading.Event()
        dispatched = threading.Event()

        def dispatch(config, entries):
            if entries[0].query.seeds == (1,):
                flushing.set()
                release.wait(timeout=30.0)
            else:
                dispatched.set()

        scheduler = self.make(dispatch, max_delay_s=0.01)
        scheduler.enqueue(RankingQuery(seeds=(1,)), DEFAULT)
        flusher = threading.Thread(target=scheduler.flush)
        flusher.start()
        assert flushing.wait(timeout=30.0)
        scheduler.start()
        try:
            scheduler.enqueue(RankingQuery(seeds=(2,)), DEFAULT)
            assert dispatched.wait(timeout=30.0)
            assert scheduler.active_dispatches == 1  # the flush, still held
        finally:
            release.set()
            flusher.join(timeout=30.0)
            scheduler.stop(flush=False)
        stats = scheduler.stats
        assert (stats.flush_dispatches, stats.deadline_dispatches) == (1, 1)
        assert stats.idle_dispatches == 0

    def test_concurrent_submitters_each_dispatch_exactly_once(self):
        """More submitting threads than cores, switching often: every
        entry leaves exactly once, in a batch no larger than allowed."""
        sent = []
        lock = threading.Lock()

        def dispatch(config, entries):
            with lock:
                sent.append([entry.payload for entry in entries])

        scheduler = self.make(dispatch, max_batch_size=4)

        def submitter(t):
            for i in range(50):
                scheduler.enqueue(RankingQuery(seeds=(i,)), DEFAULT,
                                  payload=(t, i))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            scheduler.start()
            threads = [threading.Thread(target=submitter, args=(t,))
                       for t in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
                assert not thread.is_alive()
        finally:
            scheduler.stop(flush=True)
            sys.setswitchinterval(interval)
        payloads = [payload for batch in sent for payload in batch]
        assert sorted(payloads) == sorted(
            (t, i) for t in range(4) for i in range(50)
        )
        assert max(len(batch) for batch in sent) <= 4
        assert scheduler.stats.queries_dispatched == 200

    def test_no_delay_leaves_a_partial_batch_queued_on_a_started_loop(self):
        dispatched = []
        scheduler = self.make(
            lambda config, entries: dispatched.append(entries),
            max_delay_s=None,
        )
        scheduler.start()
        try:
            scheduler.enqueue(RankingQuery(seeds=(1,)), DEFAULT)
            time_sleep(0.05)
            assert dispatched == []
            assert scheduler.pending_count() == 1
        finally:
            scheduler.stop(flush=True)
        assert len(dispatched) == 1
        assert scheduler.stats.idle_dispatches == 0
        assert scheduler.stats.flush_dispatches == 1


class TestOneRuleOnBothClocks:
    """One arrival trace, fed to a started loop on a real clock and to
    ``pump()`` on a virtual one, sends the same batches.  Each batch
    takes ``SERVICE_S``: the virtual stub returns it, and the real-clock
    driver holds each batch on an event until the trace reaches its end,
    so no run depends on how fast the host is."""

    SERVICE_S = 10.0
    #: (arrival, seed): a lone query to an idle server, two arrivals
    #: during its batch, then five during the next one (a full slice of
    #: three and a remainder).
    TRACE = [(0.0, 1), (1.0, 2), (2.0, 3), (11.0, 4), (12.0, 5),
             (13.0, 6), (14.0, 7)]
    EXPECTED = [("idle", [1]), ("idle", [2, 3]), ("fill", [4, 5, 6]),
                ("idle", [7])]

    @staticmethod
    def counts(scheduler):
        stats = scheduler.stats
        return {
            kind: getattr(stats, f"{kind}_dispatches")
            for kind in ("fill", "idle", "deadline", "flush")
        }

    def sent(self, scheduler, log):
        """(kind, seeds) per batch: each batch's kind is the counter
        that moved between its start and the next batch's."""
        marks = [counts for counts, _ in log] + [self.counts(scheduler)]
        return [
            (
                next(k for k in marks[i] if marks[i + 1][k] > marks[i][k]),
                seeds,
            )
            for i, (_, seeds) in enumerate(log)
        ]

    def make(self, dispatch, clock=None):
        return BatchScheduler(
            dispatch, QueryCoalescer(3), max_delay_s=30.0, clock=clock
        )

    def on_a_virtual_clock(self):
        log = []
        clock = VirtualClock()

        def dispatch(config, entries):
            log.append((self.counts(scheduler),
                        [e.query.seeds[0] for e in entries]))
            return self.SERVICE_S

        scheduler = self.make(dispatch, clock)
        i, wake = 0, None
        while i < len(self.TRACE) or wake is not None:
            arrival = self.TRACE[i][0] if i < len(self.TRACE) else math.inf
            if wake is not None and wake < arrival:
                clock.advance(wake - clock.now)
            else:
                clock.advance(arrival - clock.now)
                scheduler.enqueue(RankingQuery(seeds=(self.TRACE[i][1],)),
                                  DEFAULT)
                i += 1
            wake = scheduler.pump()
        return self.sent(scheduler, log)

    def on_a_real_clock(self):
        log, gates = [], []
        began = threading.Semaphore(0)

        def dispatch(config, entries):
            gate = threading.Event()
            log.append((self.counts(scheduler),
                        [e.query.seeds[0] for e in entries]))
            gates.append(gate)
            began.release()
            assert gate.wait(timeout=30.0)

        def started(now):
            assert began.acquire(timeout=30.0)
            return now + self.SERVICE_S

        def finish(end):
            # The loop is inside the held batch, so the queue is still:
            # if anything waits, the freed loop takes a batch at once.
            waiting = scheduler.pending_count()
            gates[-1].set()
            return started(end) if waiting else None

        scheduler = self.make(dispatch)
        scheduler.start()
        end = None  # trace time the running batch ends
        try:
            for arrival, seed in self.TRACE:
                while end is not None and end < arrival:
                    end = finish(end)
                scheduler.enqueue(RankingQuery(seeds=(seed,)), DEFAULT)
                if end is None:
                    end = started(arrival)
            while end is not None:
                end = finish(end)
        finally:
            for gate in gates:
                gate.set()
            scheduler.stop(flush=False)
        return self.sent(scheduler, log)

    def test_one_trace_sends_the_same_batches_on_both_clocks(self):
        virtual = self.on_a_virtual_clock()
        assert virtual == self.EXPECTED
        assert self.on_a_real_clock() == virtual


@pytest.fixture(scope="module")
def graph():
    from repro.graph import twitter_like

    return twitter_like(n=600, seed=9)


class TestScheduledService:
    """End-to-end scheduling through RankingService.submit."""

    def make_service(self, graph, **kwargs):
        clock = VirtualClock()
        defaults = dict(
            config=FrogWildConfig(num_frogs=800, iterations=3, seed=0),
            num_machines=4,
            max_batch_size=4,
            max_delay_s=5.0,
            clock=clock,
        )
        defaults.update(kwargs)
        return RankingService(graph, ServiceConfig(**defaults)), clock

    def test_a_pump_sends_the_queued_trickle_as_one_batch(self, graph):
        service, clock = self.make_service(graph)
        futures = [service.submit([vertex]) for vertex in range(3)]
        assert not any(future.done() for future in futures)
        clock.advance(5.0)
        # The batch's service time runs on the clock: pump says when the
        # server frees, and the queue is empty by then.
        assert service.pump() > clock.now
        assert all(future.done() for future in futures)
        assert list(service.stats.batch_size.recent) == [3]
        assert service.scheduler.stats.idle_dispatches == 1
        answers = [future.result() for future in futures]
        assert [answer.query.seeds[0] for answer in answers] == [0, 1, 2]
        assert all(answer.batch_size == 3 for answer in answers)

    def test_batches_form_under_load(self, graph):
        """Queries arriving one per millisecond, while each batch takes
        longer than that to run, ride shared traversals: the first
        leaves alone, the rest leave together as the server frees."""
        service, clock = self.make_service(
            graph, max_batch_size=16, max_delay_s=0.005
        )
        futures = []
        for vertex in range(12):
            futures.append(service.submit([vertex, vertex + 100]))
            service.pump()
            clock.advance(0.001)
        while (wake := service.pump()) is not None:
            clock.advance(wake - clock.now)
        assert all(future.done() for future in futures)
        sizes = list(service.stats.batch_size.recent)
        assert sizes[0] == 1 and sum(sizes) == 12
        assert max(sizes) >= 3
        assert service.scheduler.stats.deadline_dispatches == 0
        assert service.stats.amortization_ratio() < 1.0

    def test_a_full_batch_leaves_first_when_the_server_frees(self, graph):
        service, clock = self.make_service(graph)
        lone = service.submit([9])
        wake = service.pump()  # [9] leaves alone; the server is busy
        futures = [service.submit([vertex]) for vertex in range(5)]
        assert lone.done() and not any(f.done() for f in futures)
        assert service.pump() == wake
        clock.advance(wake - clock.now)
        wake = service.pump()
        # The full slice took the freed server; the fifth query waits.
        assert [f.done() for f in futures] == [True] * 4 + [False]
        assert service.scheduler.stats.fill_dispatches == 1
        clock.advance(wake - clock.now)
        service.pump()
        assert futures[4].done()
        assert list(service.stats.batch_size.recent) == [1, 4, 1]

    def test_submit_hits_cache_immediately(self, graph):
        service, clock = self.make_service(graph)
        service.query([7])
        future = service.submit([7])
        assert future.done()
        assert future.result().cached

    def test_duplicate_submissions_share_one_lane(self, graph):
        service, clock = self.make_service(graph)
        first = service.submit([3], k=10)
        second = service.submit([3], k=4)
        clock.advance(5.0)
        service.pump()
        assert service.stats.queries_executed == 1
        assert service.stats.queries_served == 2
        wide, narrow = first.result(), second.result()
        assert narrow.vertices.tolist() == wide.vertices[:4].tolist()

    def test_result_timeout_when_not_scheduled(self, graph):
        service, _ = self.make_service(graph)
        future = service.submit([1])
        with pytest.raises(TimeoutError):
            future.result(timeout=0.0)
        service.flush()
        assert future.result().query.seeds == (1,)

    def test_sync_query_batch_leaves_scheduled_entries_queued(self, graph):
        """A synchronous ``query_batch`` call flushes only its own
        lanes: another caller's queued partial batch waits for the next
        dispatch decision."""
        service, clock = self.make_service(graph)
        trickling = service.submit([11])
        answer = service.query([22])
        # The sync call was answered without force-dispatching the
        # trickle entry.
        assert not answer.cached
        assert not trickling.done()
        assert service.scheduler.pending_count() == 1
        clock.advance(5.0)
        service.pump()
        assert trickling.done()
        assert list(service.stats.batch_size.recent) == [1, 1]

    def test_sync_call_flushes_an_inflight_duplicate_it_depends_on(
        self, graph
    ):
        """If a sync call duplicates a query another caller already
        scheduled, it must dispatch that lane rather than block on a
        pump that may never come."""
        service, _ = self.make_service(graph)
        scheduled = service.submit([7])
        answer = service.query([7])
        assert scheduled.done()
        assert not answer.cached
        assert service.stats.queries_executed == 1
        np.testing.assert_array_equal(
            scheduled.result().vertices, answer.vertices
        )

    def test_background_thread_lifecycle(self, graph):
        """start()/stop() via the context manager: a real-clock service
        answers a trickle without explicit pumps (stop flushes)."""
        service = RankingService(
            graph,
            ServiceConfig(
                config=FrogWildConfig(num_frogs=400, iterations=2, seed=0),
                num_machines=4, max_batch_size=4, max_delay_s=0.01
            ),
        )
        with service:
            assert service.scheduler.running
            futures = [service.submit([vertex]) for vertex in range(3)]
            answers = [future.result(timeout=30.0) for future in futures]
        assert not service.scheduler.running
        assert [a.query.seeds[0] for a in answers] == [0, 1, 2]
        assert service.stats.queries_executed == 3


class TestServiceLifetime:
    """The scheduler's callback into its service is weak, so dropping a
    service frees its graph and tables by reference count alone."""

    CONFIG = FrogWildConfig(num_frogs=400, iterations=2, seed=0)

    @pytest.fixture()
    def no_collector(self):
        gc.collect()
        gc.disable()
        try:
            yield
        finally:
            gc.enable()

    def test_dropped_service_is_freed_without_the_collector(
        self, graph, no_collector
    ):
        service = RankingService(
            graph, ServiceConfig(config=self.CONFIG, num_machines=4)
        )
        service.query([3])
        service.close()
        backend = weakref.ref(service.backend)
        alive = weakref.ref(service)
        del service
        assert alive() is None and backend() is None

    def test_dropped_live_service_is_freed_without_the_collector(
        self, graph, no_collector
    ):
        from repro.dynamic import DynamicDiGraph
        from repro.live import LiveRankingService

        service = LiveRankingService(
            DynamicDiGraph.from_digraph(graph),
            config=self.CONFIG,
            num_machines=4,
            seed=0,
        )
        service.query([3])
        service.close()
        epoch = weakref.ref(service.current_epoch.backend)
        alive = weakref.ref(service)
        del service
        assert alive() is None and epoch() is None

    def test_a_live_service_refreshed_from_a_thread_is_freed(
        self, graph, no_collector
    ):
        """A refresh run from a caller's own thread leaves nothing that
        pins the service or the epoch it superseded once the thread is
        done."""
        from repro.dynamic import DynamicDiGraph, GraphDelta
        from repro.live import LiveRankingService

        service = LiveRankingService(
            DynamicDiGraph.from_digraph(graph),
            config=self.CONFIG,
            num_machines=4,
            seed=0,
        )
        superseded = weakref.ref(service.current_epoch.backend)
        updates = []
        ingest = threading.Thread(
            target=lambda: updates.append(
                service.refresh(GraphDelta(added=[(0, 599)]))
            )
        )
        ingest.start()
        ingest.join(timeout=30.0)
        assert not ingest.is_alive() and updates[0].sequence == 1
        service.query([3])
        service.close()
        alive = weakref.ref(service)
        del service, ingest, updates
        assert alive() is None and superseded() is None

    def test_dropped_process_pool_is_freed_without_the_collector(
        self, graph, no_collector
    ):
        from repro.cluster import SharedArena
        from repro.serving import ProcessPoolBackend

        pool = ProcessPoolBackend(graph, num_shards=2, num_machines=4)
        prefix = pool.arena_prefix
        table = weakref.ref(pool.replications[0])
        alive = weakref.ref(pool)
        supervisor = weakref.ref(pool.supervisor)
        del pool
        # No thread pins the pool and its supervisor holds no edge back,
        # so reference counting alone frees it, and __del__ closes it.
        assert alive() is None and table() is None and supervisor() is None
        assert SharedArena.list_segments(prefix) == []

    def test_running_loop_pins_the_service_until_stop(
        self, graph, no_collector
    ):
        service = RankingService(
            graph,
            ServiceConfig(
                config=self.CONFIG, num_machines=4, max_batch_size=4,
                max_delay_s=0.01
            ),
        ).start()
        future = service.submit([5])
        scheduler = service.scheduler
        alive = weakref.ref(service)
        del service
        # Nobody holds the service, yet the deadline dispatch happens.
        assert future.result(timeout=30.0).query.seeds == (5,)
        assert alive() is not None
        scheduler.stop()
        del future
        assert alive() is None
