"""Live ranking service: golden accuracy per epoch, epoch-swap
integrity, exact cache invalidation on refresh.

The golden test drives a ChurnGenerator stream and holds the service to
the same tolerances as ``test_golden_topk`` / ``test_sharded_service``
at *every* epoch; the swap tests pin the epoch invariant (a batch pins
its epoch once, a publish never tears or drops in-flight queries) with
the virtual-clock scheduler — no sleeps, no background threads.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core import FrogWildConfig, seed_distribution
from repro.dynamic import ChurnGenerator, DynamicDiGraph, GraphDelta
from repro.engine import RunReport
from repro.errors import ConfigError
from repro.graph import twitter_like
from repro.live import Epoch, EpochManager, LiveRankingService
from repro.metrics import normalized_mass_captured, optimal_mass, top_k_jaccard
from repro.pagerank import exact_pagerank
from repro.serving import (
    BatchOutcome,
    QueryOutcome,
    RankingQuery,
    VirtualClock,
)

FAST = FrogWildConfig(num_frogs=600, iterations=3, seed=0)
#: RefreshUpdate fields the live snapshot keeps running totals of.
REFRESH_TOTALS = (
    "edges_added",
    "edges_removed",
    "vertices_patched",
    "edges_regrouped",
    "table_rebuilds",
)
INGRESS_TOTALS = ("new_placements", "reused_placements", "full_repartitions")


def _overlap(estimated: np.ndarray, ranking: np.ndarray, k: int) -> float:
    exact_top = set(np.argsort(-ranking)[:k].tolist())
    return len(set(estimated.tolist()) & exact_top) / k


def make_live(n=400, graph_seed=3, **kwargs):
    dynamic = DynamicDiGraph.from_digraph(
        twitter_like(n=n, seed=graph_seed)
    )
    defaults = dict(config=FAST, num_machines=4, seed=0)
    defaults.update(kwargs)
    return dynamic, LiveRankingService(dynamic, **defaults)


class TestGoldenUnderChurn:
    """Acceptance: golden-tolerance top-k at every epoch of a churn
    stream — the thresholds of TestBatchedGolden / TestShardedGolden."""

    GRAPH_SEED = 21  # the golden regression graph
    CONFIG = FrogWildConfig(num_frogs=30_000, iterations=8, seed=1, ps=0.8)
    SEED_SETS = [np.array([7]), np.array([11, 42]), np.array([100, 3])]

    def test_every_epoch_stays_within_golden_tolerance(self):
        dynamic = DynamicDiGraph.from_digraph(
            twitter_like(n=1000, seed=self.GRAPH_SEED)
        )
        service = LiveRankingService(
            dynamic, config=self.CONFIG, num_machines=8, seed=0
        )
        churn = ChurnGenerator(add_rate=0.01, remove_rate=0.01, seed=5)
        queries = [
            RankingQuery(seeds=tuple(seeds.tolist()), k=10)
            for seeds in self.SEED_SETS
        ]
        for tick in range(3):
            if tick > 0:
                update = service.refresh(churn.step(dynamic))
                assert update.reuse_ratio >= 0.8
            snapshot = service.current_epoch.graph
            answers = service.query_batch(queries)
            for seeds, answer in zip(self.SEED_SETS, answers):
                assert not answer.cached
                assert answer.report.extra["epoch"] == float(
                    service.current_epoch.epoch_id
                )
                personalization = seed_distribution(
                    snapshot.num_vertices, seeds
                )
                truth = exact_pagerank(
                    snapshot, personalization=personalization
                )
                # Same tolerance as the batched/sharded golden checks.
                assert _overlap(answer.vertices, truth, 10) >= 0.6

    def test_mass_captured_every_epoch(self):
        """Mass tolerance per epoch via the backend's own lanes."""
        dynamic = DynamicDiGraph.from_digraph(
            twitter_like(n=1000, seed=self.GRAPH_SEED)
        )
        service = LiveRankingService(
            dynamic, config=self.CONFIG, num_machines=8, seed=0
        )
        churn = ChurnGenerator(add_rate=0.01, remove_rate=0.01, seed=5)
        queries = [
            RankingQuery(seeds=tuple(seeds.tolist()), k=10)
            for seeds in self.SEED_SETS
        ]
        for tick in range(2):
            if tick > 0:
                service.refresh(churn.step(dynamic))
            snapshot = service.current_epoch.graph
            outcome = service.backend.run_batch(self.CONFIG, queries)
            for seeds, lane in zip(self.SEED_SETS, outcome.lanes):
                personalization = seed_distribution(
                    snapshot.num_vertices, seeds
                )
                truth = exact_pagerank(
                    snapshot, personalization=personalization
                )
                assert _overlap(lane.estimate.top_k(10), truth, 10) >= 0.6
                assert normalized_mass_captured(
                    lane.estimate.vector(), truth, 20
                ) > 0.8


class TestTrackingUnderChurn:
    """The paper's OSN use case: refresh on every churn tick, then one
    uniform query (frogs born on every vertex: global PageRank's birth
    law) reports the fresh top-k."""

    CONFIG = FrogWildConfig(num_frogs=10_000, iterations=4, seed=0)

    @staticmethod
    def _top(service, k):
        everyone = np.arange(service.source.num_vertices)
        return service.query(everyone, k=k).vertices

    def test_hub_takeover_shows_after_one_refresh(self):
        _, service = make_live(n=500, graph_seed=4, config=self.CONFIG)
        newcomer = 499  # a tail vertex: give it massive in-links
        before = self._top(service, 5)
        assert newcomer not in before
        service.refresh(GraphDelta(added=[(s, newcomer) for s in range(200)]))
        after = self._top(service, 5)
        assert newcomer in after
        assert top_k_jaccard(before, after) < 1.0

    def test_list_is_stable_under_light_churn(self):
        dynamic, service = make_live(
            n=600, graph_seed=9, config=self.CONFIG.with_updates(num_frogs=8_000)
        )
        churn = ChurnGenerator(add_rate=0.005, remove_rate=0.005, seed=2)
        tops = [self._top(service, 15)]
        for _ in range(3):
            service.refresh(churn.step(dynamic))
            tops.append(self._top(service, 15))
        overlaps = [top_k_jaccard(a, b) for a, b in zip(tops, tops[1:])]
        assert np.mean(overlaps) > 0.6

    def test_mass_against_exact_pagerank(self):
        dynamic, service = make_live(n=400, graph_seed=2, config=self.CONFIG)
        churn = ChurnGenerator(add_rate=0.01, remove_rate=0.01, seed=3)
        for tick in range(3):
            if tick:
                service.refresh(churn.step(dynamic))
            truth = exact_pagerank(service.current_epoch.graph)
            top = self._top(service, 10)
            assert truth[top].sum() / optimal_mass(truth, 10) > 0.8

    def test_placements_per_tick_stay_within_the_churn_batch(self):
        dynamic, service = make_live(n=600, graph_seed=9, config=self.CONFIG)
        churn = ChurnGenerator(add_rate=0.01, remove_rate=0.01, seed=1)
        for _ in range(3):
            delta = churn.step(dynamic)
            update = service.refresh(delta)
            assert 0 < update.new_placements <= delta.num_added + delta.num_removed


class TestEpochSwapIntegrity:
    """Acceptance: an epoch swap never drops or mixes an in-flight
    query across epochs (virtual-clock scheduler)."""

    def test_pending_queries_survive_a_swap_and_share_one_epoch(self):
        clock = VirtualClock()
        dynamic, service = make_live(clock=clock, max_delay_s=5.0)
        futures = [service.submit([vertex]) for vertex in range(3)]
        assert not any(future.done() for future in futures)

        # Swap epochs while the queries sit in the scheduler queue.
        update = service.refresh(
            GraphDelta(added=[(0, 399), (1, 398)], removed=[])
        )
        clock.advance(5.0)
        service.pump()
        assert service.scheduler.stats.idle_dispatches == 1

        answers = [future.result() for future in futures]
        stamps = {answer.report.extra["epoch"] for answer in answers}
        assert stamps == {float(update.epoch)}  # one epoch, all lanes
        sequences = {
            answer.report.extra["epoch_sequence"] for answer in answers
        }
        assert sequences == {1.0}
        assert service.epochs.queries_per_epoch == {1: 3}

    def test_batches_before_and_after_swap_pin_their_own_epochs(self):
        dynamic, service = make_live()
        first = service.query([5])
        epoch_before = service.current_epoch.epoch_id
        assert first.report.extra["epoch"] == float(epoch_before)

        churn = ChurnGenerator(seed=2)
        update = service.refresh(churn.step(dynamic))
        assert update.epoch > epoch_before
        second = service.query([5])
        assert not second.cached  # generation moved: re-executed
        assert second.report.extra["epoch"] == float(update.epoch)
        assert service.epochs.batches_per_epoch == {0: 1, 1: 1}

    def test_publish_mid_batch_never_tears_the_pinned_epoch(self):
        """A publish that lands while a batch is executing must not
        affect it: run_batch pins the epoch once, at entry."""
        graph = twitter_like(n=60, seed=1)

        def stub_report():
            return RunReport(
                algorithm="stub", num_machines=1, supersteps=0,
                total_time_s=0.0, time_per_iteration_s=0.0,
                network_bytes=0, cpu_seconds=0.0,
            )

        class StubBackend:
            num_shards = 1

            def __init__(self, label, manager_box, next_epoch_box):
                self.label = label
                self.manager_box = manager_box
                self.next_epoch_box = next_epoch_box

            def run_batch(self, config, queries):
                # Reentrant publish *mid-execution* of this batch.
                if self.next_epoch_box:
                    self.manager_box[0].publish(self.next_epoch_box.pop())
                report = stub_report()
                report.extra["backend"] = self.label
                return BatchOutcome(
                    lanes=tuple(
                        QueryOutcome(estimate=None, report=report)
                        for _ in queries
                    ),
                    shared_network_bytes=0,
                    simulated_time_s=0.0,
                )

        manager_box: list = []
        next_epoch_box: list = []
        old_backend = StubBackend(1.0, manager_box, next_epoch_box)
        new_backend = StubBackend(2.0, manager_box, [])
        manager = EpochManager(
            Epoch(epoch_id=0, sequence=0, graph=graph, backend=old_backend)
        )
        manager_box.append(manager)
        next_epoch_box.append(
            Epoch(epoch_id=1, sequence=1, graph=graph, backend=new_backend)
        )

        outcome = manager.run_batch(FAST, [RankingQuery(seeds=(1,))])
        lane = outcome.lanes[0]
        # The batch ran and was stamped on the epoch pinned at entry,
        # even though epoch 1 was published mid-run...
        assert lane.report.extra["backend"] == 1.0
        assert lane.report.extra["epoch"] == 0.0
        assert manager.batches_per_epoch == {0: 1}
        # ...and the next batch picks up the new epoch.
        follow_up = manager.run_batch(FAST, [RankingQuery(seeds=(2,))])
        assert follow_up.lanes[0].report.extra["backend"] == 2.0
        assert follow_up.lanes[0].report.extra["epoch"] == 1.0

    def test_publish_validation(self):
        graph = twitter_like(n=60, seed=1)
        manager = EpochManager(
            Epoch(epoch_id=5, sequence=0, graph=graph, backend=None)
        )
        smaller = twitter_like(n=50, seed=1)
        with pytest.raises(ConfigError):
            manager.publish(
                Epoch(epoch_id=6, sequence=1, graph=smaller, backend=None)
            )
        with pytest.raises(ConfigError):  # id regression
            manager.publish(
                Epoch(epoch_id=4, sequence=1, graph=graph, backend=None)
            )
        with pytest.raises(ConfigError):  # sequence skip
            manager.publish(
                Epoch(epoch_id=6, sequence=2, graph=graph, backend=None)
            )


class _RetiringBackend:
    """A stub epoch backend that records when it is retired.

    ``during`` runs inside :meth:`run_batch`, while the epoch manager
    holds the batch's pin.
    """

    num_shards = 1

    def __init__(self, label, retired, during=None):
        self.label = label
        self.retired = retired
        self.during = during

    def run_batch(self, config, queries):
        if self.during is not None:
            self.during()
        report = RunReport(
            algorithm="stub", num_machines=1, supersteps=0,
            total_time_s=0.0, time_per_iteration_s=0.0,
            network_bytes=0, cpu_seconds=0.0,
        )
        return BatchOutcome(
            lanes=tuple(
                QueryOutcome(estimate=None, report=report) for _ in queries
            ),
            shared_network_bytes=0,
            simulated_time_s=0.0,
        )

    def retire(self):
        self.retired.append(self.label)


class TestEpochRetirement:
    """A superseded epoch's backend is retired exactly once, as soon as
    no batch is pinned to it; the current epoch never is."""

    GRAPH = twitter_like(n=60, seed=1)
    QUERY = [RankingQuery(seeds=(1,))]

    def epoch(self, sequence, backend):
        return Epoch(
            epoch_id=sequence, sequence=sequence, graph=self.GRAPH,
            backend=backend,
        )

    def test_an_unpinned_epoch_is_retired_at_the_publish(self):
        retired = []
        manager = EpochManager(
            self.epoch(0, _RetiringBackend("a", retired))
        )
        manager.run_batch(FAST, self.QUERY)
        assert retired == []  # still current
        manager.publish(self.epoch(1, _RetiringBackend("b", retired)))
        assert retired == ["a"]
        manager.publish(self.epoch(2, _RetiringBackend("c", retired)))
        manager.run_batch(FAST, self.QUERY)
        assert retired == ["a", "b"]
        assert manager.publishes_mid_flight == 0

    def test_a_pinned_epoch_is_retired_by_its_last_batch(self):
        """Two batches pinned to epoch 0 (one nested in the other); a
        publish lands inside the inner one.  Neither the publish nor the
        inner batch's end retires epoch 0; the outer batch's end does."""
        retired = []
        seen = {}
        new = _RetiringBackend("new", retired)

        def outer():
            if not seen:
                seen["outer"] = True
                inner = manager.run_batch(FAST, self.QUERY)
                seen["inner_epoch"] = inner.lanes[0].report.extra["epoch"]
                seen["retired_after_inner"] = list(retired)
            else:
                manager.publish(self.epoch(1, new))
                seen["retired_at_publish"] = list(retired)

        old = _RetiringBackend("old", retired, during=outer)
        manager = EpochManager(self.epoch(0, old))
        outcome = manager.run_batch(FAST, self.QUERY)
        assert seen["retired_at_publish"] == []
        assert seen["retired_after_inner"] == []
        assert seen["inner_epoch"] == 0.0
        assert outcome.lanes[0].report.extra["epoch"] == 0.0
        assert retired == ["old"]
        assert manager.publishes_mid_flight == 1
        assert manager.batches_per_epoch == {0: 2}

    def test_a_failing_batch_still_releases_its_pin(self):
        retired = []
        new = _RetiringBackend("new", retired)

        def publish_then_fail():
            manager.publish(self.epoch(1, new))
            raise RuntimeError("batch failed")

        old = _RetiringBackend("old", retired, during=publish_then_fail)
        manager = EpochManager(self.epoch(0, old))
        with pytest.raises(RuntimeError, match="batch failed"):
            manager.run_batch(FAST, self.QUERY)
        assert retired == ["old"]
        assert manager.batches_per_epoch == {}
        outcome = manager.run_batch(FAST, self.QUERY)
        assert outcome.lanes[0].report.extra["epoch"] == 1.0
        assert retired == ["old"]


class TestCacheGenerationInterplay:
    def test_cache_hits_within_an_epoch_invalidate_on_refresh(self):
        dynamic, service = make_live()
        cold = service.query([7])
        warm = service.query([7])
        assert not cold.cached and warm.cached

        churn = ChurnGenerator(seed=1)
        service.refresh(churn.step(dynamic))
        after = service.query([7])
        assert not after.cached
        again = service.query([7])
        assert again.cached

    def test_refresh_without_churn_keeps_the_cache_valid(self):
        """Generation is the epoch id (the graph version at snapshot):
        republishing an unchanged graph invalidates nothing."""
        dynamic, service = make_live()
        service.query([3])
        update = service.refresh()  # no delta, no external churn
        assert update.edges_added == update.edges_removed == 0
        assert service.query([3]).cached

    def test_unrefreshed_external_churn_does_not_invalidate(self):
        """The service serves epochs, not the raw mutable graph: cached
        answers stay consistent with the *served* snapshot until a
        refresh actually publishes the churned graph."""
        dynamic, service = make_live()
        service.query([3])
        dynamic.add_edges([(0, 399)])  # external churn, no refresh
        assert service.query([3]).cached
        service.refresh()
        assert not service.query([3]).cached


class TestLiveServiceShapes:
    def test_static_graph_is_wrapped(self):
        graph = twitter_like(n=200, seed=2)
        service = LiveRankingService(
            graph, config=FAST, num_machines=4, seed=0
        )
        assert isinstance(service.source, DynamicDiGraph)
        assert service.source.num_edges == graph.num_edges
        assert service.query([1]).vertices.size > 0

    def test_sharded_live_service_refreshes_every_shard_ingress(self):
        dynamic, service = make_live(num_shards=2, num_machines=8)
        assert service.num_shards == 2
        assert len(service.ingresses) == 2
        answers = service.query_batch(
            [RankingQuery(seeds=(v,)) for v in range(3)]
        )
        assert len(answers) == 3
        assert sorted(service.stats.shard_breakdown()) == [0, 1]

        churn = ChurnGenerator(seed=6)
        update = service.refresh(churn.step(dynamic))
        assert update.reuse_ratio >= 0.8
        # Per-shard placements each match a from-scratch stable hash
        # of the published snapshot under their own salt.
        from repro.cluster import make_partitioner

        snapshot = service.current_epoch.graph
        for ingress in service.ingresses:
            np.testing.assert_array_equal(
                ingress.partition_for(snapshot).edge_machine,
                make_partitioner("stable-hash", ingress.salt)
                .partition(snapshot, ingress.num_machines)
                .edge_machine,
            )
        assert not service.query_batch(
            [RankingQuery(seeds=(0,))]
        )[0].cached

    def test_shard_count_validation(self):
        with pytest.raises(ConfigError):
            make_live(num_shards=9, num_machines=4)

    def test_attach_drives_one_refresh_per_delta(self):
        dynamic, service = make_live()
        churn = ChurnGenerator(seed=3)
        updates = service.attach(churn, ticks=3)
        assert [u.sequence for u in updates] == [1, 2, 3]
        assert service.snapshot()["epochs_published"] == 4.0
        deltas = [churn.step(dynamic) for _ in range(2)]
        more = service.attach(iter(deltas))
        assert [u.sequence for u in more] == [4, 5]
        with pytest.raises(ConfigError):
            service.attach(churn)  # generator without a tick count

    def test_attach_with_ticks_never_overpulls_the_iterator(self):
        """A truncated attach must not consume (and drop) the delta
        after the cut — apply-on-generate streams would otherwise leave
        the source graph one unpublished delta ahead."""
        dynamic, service = make_live()
        pulled = []

        def stream():
            for index in range(10):
                pulled.append(index)
                yield GraphDelta(added=[(index, index + 1)])

        updates = service.attach(stream(), ticks=3)
        assert len(updates) == 3
        assert pulled == [0, 1, 2]
        # Served epoch and source graph agree: nothing dropped.
        assert service.current_epoch.epoch_id == service.source.version

    def test_refresh_places_only_the_churned_slice(self):
        """A rebuild repartitions every edge; a refresh under 0.5% churn
        must place at most 5% of the edge set and reuse the rest."""
        dynamic, service = make_live(n=2000)
        churn = ChurnGenerator(add_rate=0.005, remove_rate=0.005, seed=9)
        update = service.refresh(churn.step(dynamic))
        assert 0 < update.new_placements <= 0.05 * update.num_edges

    def test_refresh_totals_in_snapshot(self):
        dynamic, service = make_live()
        churn = ChurnGenerator(seed=7)
        updates = service.attach(churn, ticks=2)
        assert service.last_refresh is updates[-1]
        row = service.snapshot()
        assert row["epochs_published"] == 3.0
        reused = row["ingress_reused_placements"]
        assert reused / (reused + row["ingress_new_placements"]) >= 0.8
        assert row["epochs_served_edges"] == row["source_edges"]

    def test_refresh_totals_stay_exact_and_memory_flat(self):
        """Fifty refreshes keep running totals, not a growing history:
        the snapshot's totals are the sums over the returned updates,
        and memory retained under ``repro/live/`` does not grow from
        the 25th refresh to the 50th."""
        dynamic, service = make_live(n=300)
        fresh = [
            (v, (v + 150) % 300)
            for v in range(300)
            if not dynamic.has_edge(v, (v + 150) % 300)
        ][:50]
        assert len(fresh) == 50
        live_files = [tracemalloc.Filter(True, "*repro/live/*")]
        sums: dict[str, int] = {}
        tracemalloc.start()
        try:
            for i, edge in enumerate(fresh):
                # Add one edge and drop the previous one: the edge count,
                # and every array sized by it, is the same after each
                # refresh from the first on.
                update = service.refresh(
                    GraphDelta(added=[edge], removed=fresh[i - 1 : i])
                )
                for key in REFRESH_TOTALS + INGRESS_TOTALS:
                    sums[key] = sums.get(key, 0) + getattr(update, key)
                del update
                if i + 1 == 25:
                    before = tracemalloc.take_snapshot().filter_traces(
                        live_files
                    )
            after = tracemalloc.take_snapshot().filter_traces(live_files)
        finally:
            tracemalloc.stop()
        growth = sum(
            stat.size_diff for stat in after.compare_to(before, "filename")
        )
        # A kept history retained ~700 B per refresh here; what is left
        # is numpy's bookkeeping for the read-only placement array.
        assert growth < 25 * 120, growth
        row = service.snapshot()
        assert row["epochs_published"] == 51
        for key in REFRESH_TOTALS:
            assert row[f"refresh_{key}"] == sums[key], key
        for key in INGRESS_TOTALS:
            assert row[f"ingress_{key}"] == sums[key], key
        assert sums["edges_added"] == 50 and sums["edges_removed"] == 49


class TestParallelPatchEquivalence:
    """A process-pool service refreshes to tables structurally identical
    to the simulated one: every shard's table is a function of the
    snapshot, whichever substrate serves it."""

    CHURN = dict(add_rate=0.0005, remove_rate=0.0005, seed=11)
    STEPS = 3

    def run_refreshes(self, execution):
        dynamic = DynamicDiGraph.from_digraph(twitter_like(n=300, seed=5))
        service = LiveRankingService(
            dynamic,
            config=FAST,
            num_machines=8,
            num_shards=4,
            seed=3,
            execution=execution,
        )
        churn = ChurnGenerator(**self.CHURN)
        tables, updates = [], []
        try:
            for _ in range(self.STEPS):
                updates.append(service.refresh(churn.step(dynamic)))
                tables.append(
                    [r.table for r in service.replicators]
                )
        finally:
            service.close()
        return tables, updates

    def test_process_patches_match_serial_structurally(self):
        serial_tables, serial_updates = self.run_refreshes("simulated")
        pool_tables, pool_updates = self.run_refreshes("process")
        for step, (serial, pooled) in enumerate(
            zip(serial_tables, pool_tables)
        ):
            for shard, (ours, theirs) in enumerate(zip(serial, pooled)):
                assert ours.structurally_equal(theirs), (
                    f"step {step} shard {shard} diverged"
                )
        # Table accounting agrees too, and says what happened: every
        # shard rebuilt, its out-edges (only) regrouped.
        for ours, theirs, tables in zip(
            serial_updates, pool_updates, serial_tables
        ):
            assert ours.table_rebuilds == theirs.table_rebuilds == 4
            assert ours.vertices_patched == theirs.vertices_patched
            regrouped = 4 * tables[0].graph.num_edges
            assert ours.edges_regrouped == theirs.edges_regrouped == regrouped
