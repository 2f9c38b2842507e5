"""Tests for deadline-based batch scheduling and coalescer ordering.

Everything runs under a virtual clock — no sleeps, no background
threads — so deadline semantics are pinned down deterministically.
"""

import gc
import weakref
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
        batches = coalescer.drain()
        assert len(batches) == 3
        by_config = {config: queries for config, queries in batches}
        assert [q.seeds[0] for q in by_config[DEFAULT]] == [0, 2, 5]
        assert [q.seeds[0] for q in by_config[FAST]] == [1, 4, 7]
        assert [q.seeds[0] for q in by_config[SLOW]] == [3, 6]
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
        batches = coalescer.drain()
        assert len(batches) == 1
        assert [q.seeds[0] for q in batches[0][1]] == [1, 2]

    def test_oversize_group_slices_preserve_order(self):
        coalescer = QueryCoalescer(max_batch_size=3)
        for vertex in range(8):
            coalescer.add(RankingQuery(seeds=(vertex,)), DEFAULT)
        batches = coalescer.drain()
        assert [len(queries) for _, queries in batches] == [3, 3, 2]
        order = [q.seeds[0] for _, queries in batches for q in queries]
        assert order == list(range(8))

    def test_pop_full_leaves_partial_remainder_queued(self):
        coalescer = QueryCoalescer(max_batch_size=3)
        for vertex in range(7):
            coalescer.add(RankingQuery(seeds=(vertex,)), DEFAULT)
        full = coalescer.pop_full_entries()
        assert [len(entries) for _, entries in full] == [3, 3]
        assert coalescer.pending_count() == 1
        leftover = coalescer.drain()
        assert [q.seeds[0] for _, queries in leftover for q in queries] == [6]

    def test_due_entries_and_next_deadline(self):
        coalescer = QueryCoalescer(max_batch_size=8)
        coalescer.add(RankingQuery(seeds=(1,)), DEFAULT, arrival=10.0)
        coalescer.add(RankingQuery(seeds=(2,)), DEFAULT, arrival=11.0)
        coalescer.add(RankingQuery(seeds=(3,), config=FAST), DEFAULT,
                      arrival=12.0)
        # Deadlines anchor on each group's oldest entry.
        assert coalescer.next_deadline(5.0) == 15.0
        assert coalescer.pop_due_entries(14.9, 5.0) == []
        due = coalescer.pop_due_entries(15.0, 5.0)
        assert len(due) == 1
        config, entries = due[0]
        assert config == DEFAULT
        # The whole group rides, including the query that arrived later.
        assert [entry.query.seeds[0] for entry in entries] == [1, 2]
        assert coalescer.next_deadline(5.0) == 17.0
        assert coalescer.pending_count() == 1

    def test_unstamped_entry_makes_its_group_due_immediately(self):
        """An arrival-less entry is 'due at once' even when queued
        behind timed entries of the same config group."""
        coalescer = QueryCoalescer(max_batch_size=8)
        coalescer.add(RankingQuery(seeds=(1,)), DEFAULT, arrival=10.0)
        coalescer.add(RankingQuery(seeds=(2,)), DEFAULT)  # no arrival
        assert coalescer.next_deadline(5.0) == float("-inf")
        due = coalescer.pop_due_entries(10.1, 5.0)
        assert len(due) == 1
        assert [e.query.seeds[0] for e in due[0][1]] == [1, 2]

    def test_payloads_survive_the_queue(self):
        coalescer = QueryCoalescer(max_batch_size=2)
        coalescer.add(RankingQuery(seeds=(1,)), DEFAULT, payload="a")
        coalescer.add(RankingQuery(seeds=(2,)), DEFAULT, payload="b")
        [(_, entries)] = coalescer.pop_full_entries()
        assert [entry.payload for entry in entries] == ["a", "b"]


class TestBatchScheduler:
    def make(self, max_batch_size=4, max_delay_s=5.0):
        dispatched = []
        clock = VirtualClock()
        scheduler = BatchScheduler(
            lambda config, entries: dispatched.append((config, entries)),
            QueryCoalescer(max_batch_size),
            max_delay_s=max_delay_s,
            clock=clock,
        )
        return scheduler, clock, dispatched

    def test_nothing_dispatches_before_the_deadline(self):
        scheduler, clock, dispatched = self.make()
        scheduler.submit(RankingQuery(seeds=(1,)), DEFAULT)
        clock.advance(4.9)
        assert scheduler.poll() == 0
        assert dispatched == []
        assert scheduler.pending_count() == 1

    def test_deadline_expiry_dispatches_the_partial_batch(self):
        scheduler, clock, dispatched = self.make()
        scheduler.submit(RankingQuery(seeds=(1,)), DEFAULT)
        clock.advance(2.0)
        scheduler.submit(RankingQuery(seeds=(2,)), DEFAULT)
        clock.advance(3.0)  # oldest has now waited exactly 5.0
        assert scheduler.poll() == 1
        [(config, entries)] = dispatched
        assert config == DEFAULT
        assert [entry.query.seeds[0] for entry in entries] == [1, 2]
        assert scheduler.stats.deadline_dispatches == 1
        assert scheduler.pending_count() == 0

    def test_full_batch_dispatches_inline_at_submit(self):
        scheduler, _, dispatched = self.make(max_batch_size=3)
        for vertex in range(3):
            scheduler.submit(RankingQuery(seeds=(vertex,)), DEFAULT)
        # No poll needed: the fill trigger fired inside the last submit.
        assert len(dispatched) == 1
        assert scheduler.stats.fill_dispatches == 1
        assert scheduler.pending_count() == 0

    def test_next_deadline_tracks_oldest_pending_group(self):
        scheduler, clock, _ = self.make()
        assert scheduler.next_deadline() is None
        scheduler.submit(RankingQuery(seeds=(1,)), DEFAULT)
        assert scheduler.next_deadline() == pytest.approx(5.0)
        clock.advance(1.0)
        scheduler.submit(RankingQuery(seeds=(2,), config=FAST), DEFAULT)
        # The default-config group is still the oldest.
        assert scheduler.next_deadline() == pytest.approx(5.0)

    def test_flush_ignores_deadlines(self):
        scheduler, _, dispatched = self.make()
        scheduler.submit(RankingQuery(seeds=(1,)), DEFAULT)
        scheduler.submit(RankingQuery(seeds=(2,), config=FAST), DEFAULT)
        assert scheduler.flush() == 2
        assert len(dispatched) == 2
        assert scheduler.stats.flush_dispatches == 2
        assert scheduler.pending_count() == 0

    def test_no_deadline_means_fill_or_flush_only(self):
        scheduler, clock, dispatched = self.make(max_delay_s=None)
        scheduler.submit(RankingQuery(seeds=(1,)), DEFAULT)
        clock.advance(1e9)
        assert scheduler.poll() == 0
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
        scheduler.submit(RankingQuery(seeds=(1,), config=FAST), DEFAULT)
        scheduler.submit(RankingQuery(seeds=(2,)), DEFAULT)
        scheduler.submit(RankingQuery(seeds=(3,), config=SLOW), DEFAULT)
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
            scheduler.submit(RankingQuery(seeds=(666,)), DEFAULT)
            for _ in range(1000):
                if scheduler.last_error is not None:
                    break
                time_sleep(0.005)
            assert isinstance(scheduler.last_error, RuntimeError)
            assert scheduler.running
            scheduler.submit(RankingQuery(seeds=(1,)), DEFAULT)
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
            scheduler.submit(RankingQuery(seeds=(1,)), DEFAULT)
            assert dispatched.wait(timeout=30.0)
        finally:
            scheduler.stop(flush=False)

    def test_stop_joins_the_loop_before_reporting_stopped(self):
        """Regression: stop() used to clear the thread handle *before*
        joining, so ``running`` flipped False while the loop could still
        be dispatching, and the final flush could interleave with an
        in-flight poll dispatch.  Now the join strictly precedes both."""
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
        scheduler.submit(RankingQuery(seeds=(1,)), DEFAULT)
        assert in_dispatch.wait(timeout=30.0)
        # The loop thread is parked inside dispatch; this entry can only
        # leave via stop()'s final flush.
        scheduler.submit(RankingQuery(seeds=(2,)), DEFAULT)
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
        # The flush ran strictly after the poll dispatch completed.
        assert order == [1, 2]

    def test_stop_without_start_still_flushes(self):
        scheduler, _, dispatched = self.make()
        scheduler.submit(RankingQuery(seeds=(1,)), DEFAULT)
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


@pytest.fixture(scope="module")
def graph():
    from repro.graph import twitter_like

    return twitter_like(n=600, seed=9)


class TestScheduledService:
    """End-to-end deadline scheduling through RankingService.submit."""

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

    def test_trickle_batches_on_deadline(self, graph):
        service, clock = self.make_service(graph)
        futures = [service.submit([vertex]) for vertex in range(3)]
        assert not any(future.done() for future in futures)
        clock.advance(5.0)
        assert service.pump() == 1
        assert all(future.done() for future in futures)
        assert service.stats.batch_sizes == [3]
        answers = [future.result() for future in futures]
        assert [answer.query.seeds[0] for answer in answers] == [0, 1, 2]
        assert all(answer.batch_size == 3 for answer in answers)

    def test_one_query_per_tick_still_forms_batches(self, graph):
        """Queries trickling in one per millisecond under a 5 ms
        deadline ride shared traversals, not one batch per arrival."""
        service, clock = self.make_service(
            graph, max_batch_size=16, max_delay_s=0.005
        )
        futures = []
        for vertex in range(12):
            futures.append(service.submit([vertex, vertex + 100]))
            clock.advance(0.001)
            service.pump()
        clock.advance(0.005)
        service.pump()
        assert all(future.done() for future in futures)
        assert service.scheduler.stats.deadline_dispatches >= 1
        assert max(service.stats.batch_sizes) >= 4
        assert service.stats.amortization_ratio() < 1.0

    def test_fill_dispatches_without_waiting(self, graph):
        service, _ = self.make_service(graph)
        futures = [service.submit([vertex]) for vertex in range(4)]
        # Batch filled at the 4th submit: answered with no clock motion.
        assert all(future.done() for future in futures)
        assert service.scheduler.stats.fill_dispatches == 1

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
        lanes: another caller's deadline-scheduled partial batch keeps
        accumulating toward its fill or deadline."""
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
        assert service.stats.batch_sizes == [1, 1]

    def test_sync_call_flushes_an_inflight_duplicate_it_depends_on(
        self, graph
    ):
        """If a sync call duplicates a query another caller already
        scheduled, it must dispatch that lane rather than block on a
        deadline that may never be pumped."""
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

    def test_dropped_live_service_with_a_stopped_refresher_is_freed(
        self, graph, no_collector
    ):
        from repro.dynamic import DynamicDiGraph, GraphDelta
        from repro.live import LiveRankingService

        service = LiveRankingService(
            DynamicDiGraph.from_digraph(graph),
            config=self.CONFIG,
            num_machines=4,
            seed=0,
        )
        ticket = service.refresh_async(GraphDelta(added=[(0, 599)]))
        assert ticket.result(timeout=30.0).background
        refresher = service.refresher
        alive = weakref.ref(service)
        del service, ticket
        # The started worker thread pins the service until stop().
        assert alive() is not None
        alive().close()
        assert alive() is None
        assert refresher.service is None

    def test_dropped_process_pool_is_freed_without_the_collector(
        self, graph, no_collector
    ):
        from repro.serving import ProcessPoolBackend

        pool = ProcessPoolBackend(
            graph, num_shards=2, num_machines=4, heartbeat_s=30.0
        )
        table = weakref.ref(pool.replications[0])
        alive = weakref.ref(pool)
        supervisor = pool.supervisor
        del pool
        # The heartbeat thread pins the pool until close() stops it.
        assert alive() is not None
        alive().close()
        assert alive() is None and table() is None
        assert supervisor.backend is None

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
