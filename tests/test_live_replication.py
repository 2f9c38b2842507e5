"""Live replication tables + background refresh.

Two pinned invariants:

* **equivalence** — after *any* sequence of deltas, the replicator's
  :class:`~repro.cluster.ReplicationTable` is structurally equal
  (masters, replica bitmap, both machine-grouped adjacencies, partition)
  to a from-scratch build of the current snapshot under a from-scratch
  stable-hash partition;
* **epoch purity under background refresh** — queries dispatched while
  the next epoch is being built run, and are stamped, wholly on the
  epoch current at their dispatch; the publish at the end of a build is
  only the atomic swap.
"""

import threading

import numpy as np
import pytest

from repro.cluster import ReplicationTable, make_partitioner
from repro.core import FrogWildConfig, RefreshPolicy
from repro.dynamic import ChurnGenerator, DynamicDiGraph, GraphDelta
from repro.errors import ConfigError
from repro.graph import twitter_like
from repro.live import (
    IncrementalIngress,
    IncrementalReplication,
    LiveRankingService,
)
from repro.serving import RankingQuery

FAST = FrogWildConfig(num_frogs=500, iterations=3, seed=0)


def make_replicator(n=300, graph_seed=3, machines=6, seed=4):
    dynamic = DynamicDiGraph.from_digraph(
        twitter_like(n=n, seed=graph_seed)
    )
    ingress = IncrementalIngress(dynamic, machines, seed=seed)
    replicator = IncrementalReplication(
        ingress, dynamic.snapshot(), seed=seed
    )
    return dynamic, ingress, replicator


def assert_equivalent_to_rebuild(replicator, snapshot):
    ingress = replicator.ingress
    scratch = ReplicationTable(
        snapshot,
        make_partitioner("stable-hash", ingress.salt).partition(
            snapshot, ingress.num_machines
        ),
        seed=replicator.seed,
    )
    assert replicator.table.structurally_equal(scratch)
    # Spot-check the named components of the acceptance criterion on
    # top of the array-level equality: masters, mirrors, group
    # structure, replication factor.
    table = replicator.table
    assert table.replication_factor() == scratch.replication_factor()
    for v in range(0, snapshot.num_vertices, 37):
        assert table.master_of(v) == scratch.master_of(v)
        np.testing.assert_array_equal(
            table.mirrors_of(v), scratch.mirrors_of(v)
        )
        mine = table.out_groups.split(v)
        theirs = scratch.out_groups.split(v)
        np.testing.assert_array_equal(mine[0], theirs[0])
        for a, b in zip(mine[1], theirs[1]):
            np.testing.assert_array_equal(a, b)


class TestPatchEquivalence:
    """Property: any random delta sequence == from-scratch rebuild."""

    @pytest.mark.parametrize("graph_seed,churn_seed", [(3, 7), (11, 2)])
    def test_random_delta_sequences(self, graph_seed, churn_seed):
        dynamic, ingress, replicator = make_replicator(
            graph_seed=graph_seed
        )
        churn = ChurnGenerator(
            add_rate=0.04, remove_rate=0.04, seed=churn_seed
        )
        for _ in range(5):
            ingress.apply(churn.step(dynamic))
            snapshot = dynamic.snapshot()
            replicator.refresh(snapshot)
            assert_equivalent_to_rebuild(replicator, snapshot)

    def test_degenerate_deltas(self):
        """No-ops, rewires, dangling-repair flips, vertex isolation."""
        dynamic = DynamicDiGraph(
            12, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]
        )
        ingress = IncrementalIngress(dynamic, 3, seed=1)
        replicator = IncrementalReplication(
            ingress, dynamic.snapshot(), seed=1
        )
        deltas = [
            GraphDelta(),  # nothing at all
            GraphDelta(added=[(0, 1)]),  # duplicate insert (no-op)
            GraphDelta(removed=[(9, 10)]),  # missing removal (no-op)
            GraphDelta(removed=[(3, 4)], added=[(3, 7)]),  # atomic rewire
            # Strand vertex 5: loses its only out-edge, so the snapshot
            # grows a self-loop repair the table must track.
            GraphDelta(removed=[(5, 3)]),
            GraphDelta(added=[(5, 3)]),  # and shrink it again
            # Isolate vertex 2 entirely (lonely-pin path).
            GraphDelta(removed=[(2, 0), (1, 2)]),
        ]
        for delta in deltas:
            ingress.apply(delta)
            snapshot = dynamic.snapshot()
            replicator.refresh(snapshot)
            assert_equivalent_to_rebuild(replicator, snapshot)

    def test_salted_repartition_triggers_rebuild_and_stays_equivalent(self):
        """An imbalance-triggered re-salt moves (nearly) every edge; the
        table follows to the new salt."""
        dynamic, ingress, replicator = make_replicator()
        old_salt = ingress.salt
        # Force a full repartition through the ingress's own fallback.
        ingress.rebalance_threshold = 1.0 + 1e-9
        ingress.apply(GraphDelta(added=[(0, 299)]))
        assert ingress.full_repartitions >= 1
        assert ingress.salt != old_salt
        snapshot = dynamic.snapshot()
        replicator.refresh(snapshot)
        assert_equivalent_to_rebuild(replicator, snapshot)


class TestPatchCost:
    def test_patch_never_mutates_the_previous_table(self):
        """Epoch safety: the old table keeps serving while the new one
        is built, so patching must be copy-on-write throughout."""
        dynamic, ingress, replicator = make_replicator(n=200)
        old = replicator.table
        fingerprints = {
            "masters": old.masters.copy(),
            "replicas": old.replica_matrix.copy(),
            "out_other": old.out_groups.sorted_other.copy(),
            "out_machine": old.out_groups.edge_machine_sorted.copy(),
            "in_other": old.in_groups.sorted_other.copy(),
        }
        churn = ChurnGenerator(add_rate=0.05, remove_rate=0.05, seed=1)
        ingress.apply(churn.step(dynamic))
        new_table = replicator.refresh(dynamic.snapshot()) and replicator.table
        assert new_table is not old
        np.testing.assert_array_equal(old.masters, fingerprints["masters"])
        np.testing.assert_array_equal(
            old.replica_matrix, fingerprints["replicas"]
        )
        np.testing.assert_array_equal(
            old.out_groups.sorted_other, fingerprints["out_other"]
        )
        np.testing.assert_array_equal(
            old.out_groups.edge_machine_sorted, fingerprints["out_machine"]
        )
        np.testing.assert_array_equal(
            old.in_groups.sorted_other, fingerprints["in_other"]
        )

    def test_ingress_cache_is_preseeded(self):
        """A patched table arrives with warm kernel tables + mirror
        bitmap, and they match what a cold build would produce."""
        from repro.core.frogwild import _KernelTables

        dynamic, ingress, replicator = make_replicator(n=150)
        churn = ChurnGenerator(add_rate=0.03, remove_rate=0.03, seed=8)
        ingress.apply(churn.step(dynamic))
        snapshot = dynamic.snapshot()
        replicator.refresh(snapshot)
        cache = replicator.table._ingress_cache
        assert "kernel_tables" in cache and "mirror_matrix" in cache
        cold = _KernelTables(replicator.table, snapshot.out_degree())
        warm = cache["kernel_tables"]
        for slot in _KernelTables.__slots__:
            np.testing.assert_array_equal(
                getattr(warm, slot), getattr(cold, slot)
            )
        expected_mirror = replicator.table.replica_matrix.copy()
        expected_mirror[
            np.arange(snapshot.num_vertices), replicator.table.masters
        ] = False
        np.testing.assert_array_equal(
            cache["mirror_matrix"], expected_mirror
        )


class TestBackgroundRefresh:
    def make_service(self, **kwargs):
        dynamic = DynamicDiGraph.from_digraph(
            twitter_like(n=300, seed=5)
        )
        defaults = dict(config=FAST, num_machines=4, seed=0)
        defaults.update(kwargs)
        return dynamic, LiveRankingService(dynamic, **defaults)

    def test_coalescing_covers_a_backlog_with_one_build(self):
        dynamic, service = self.make_service()
        refresher = service.start_refresher(thread=False)
        churn = ChurnGenerator(seed=2)
        tickets = [
            service.refresh_async(churn.step(dynamic)) for _ in range(3)
        ]
        assert refresher.pending_count() == 3
        update = refresher.run_pending()
        assert update.coalesced_deltas == 3
        assert update.background
        assert {t.result() for t in tickets} == {update}
        assert refresher.run_pending() is None
        assert refresher.stats.deltas_coalesced == 2
        # One epoch for three deltas; source and served agree.
        assert service.current_epoch.epoch_id == service.source.version

    def test_coalescing_can_be_disabled(self):
        dynamic, service = self.make_service(
            refresh_policy=RefreshPolicy(coalesce=False)
        )
        refresher = service.start_refresher(thread=False)
        churn = ChurnGenerator(seed=3)
        tickets = [
            service.refresh_async(churn.step(dynamic)) for _ in range(2)
        ]
        first = refresher.run_pending()
        assert first.coalesced_deltas == 1
        assert tickets[0].done() and not tickets[1].done()
        second = refresher.run_pending()
        assert tickets[1].result() is second

    def test_backpressure_without_a_worker_raises(self):
        dynamic, service = self.make_service(
            refresh_policy=RefreshPolicy(max_pending=1)
        )
        service.start_refresher(thread=False)
        service.refresh_async(GraphDelta(added=[(0, 299)]))
        with pytest.raises(ConfigError):
            service.refresh_async(GraphDelta(added=[(1, 299)]))

    def test_submit_after_stop_fails_fast(self):
        """A stopped refresher must reject submissions loudly — an
        enqueued ticket no worker will ever build would hang forever."""
        dynamic, service = self.make_service()
        refresher = service.start_refresher(thread=False)
        refresher.stop()
        with pytest.raises(ConfigError):
            service.refresh_async(GraphDelta(added=[(0, 299)]))
        refresher.start()  # restart clears the stopped state
        try:
            ticket = service.refresh_async(GraphDelta(added=[(1, 299)]))
            assert ticket.result(timeout=30).edges_added == 1
        finally:
            refresher.stop()

    def test_stop_without_flush_fails_pending_tickets(self):
        dynamic, service = self.make_service()
        refresher = service.start_refresher(thread=False)
        ticket = service.refresh_async(GraphDelta(added=[(0, 299)]))
        edges_before = service.source.num_edges
        refresher.stop(flush=False)
        with pytest.raises(ConfigError):
            ticket.result(timeout=1)
        # The abandoned delta was never applied anywhere.
        assert service.source.num_edges == edges_before

    def test_queries_mid_build_run_on_the_old_epoch(self):
        """The epoch-tear regression: a batch dispatched after the next
        epoch is fully built but before it is published must run, and be
        stamped, wholly on the old epoch."""
        dynamic, service = self.make_service()
        observed = {}

        def dispatch_mid_build(svc):
            answers = svc.query_batch(
                [RankingQuery((v,), 5) for v in (1, 2, 3)]
            )
            observed["stamps"] = {
                a.report.extra["epoch"] for a in answers
            }
            observed["epoch_at_dispatch"] = svc.current_epoch.epoch_id

        refresher = service.start_refresher(
            on_built=dispatch_mid_build, thread=False
        )
        old_epoch = service.current_epoch.epoch_id
        churn = ChurnGenerator(seed=4)
        service.refresh_async(churn.step(dynamic))
        update = refresher.run_pending()
        assert observed["epoch_at_dispatch"] == old_epoch
        assert observed["stamps"] == {float(old_epoch)}  # never torn
        assert update.epoch > old_epoch
        after = service.query([1])
        assert after.report.extra["epoch"] == float(update.epoch)

    def test_threaded_refreshes_interleaved_with_queries(self):
        """Queries racing real background builds: every batch carries
        exactly one epoch stamp and every ticket resolves."""
        dynamic, service = self.make_service()
        churn = ChurnGenerator(add_rate=0.02, remove_rate=0.02, seed=6)
        stop = threading.Event()
        errors = []

        def hammer():
            try:
                while not stop.is_set():
                    answers = service.query_batch(
                        [RankingQuery((v,), 5)
                         for v in (0, 1, 2)]
                    )
                    # Cache hits legitimately carry the stamp of the
                    # epoch they executed on; the tear invariant is
                    # about *executed* lanes: one batch, one epoch.
                    stamps = {
                        a.report.extra["epoch"]
                        for a in answers
                        if not a.cached
                    }
                    assert len(stamps) <= 1
            except BaseException as error:  # pragma: no cover - fails test
                errors.append(error)

        thread = threading.Thread(target=hammer)
        thread.start()
        try:
            tickets = service.attach(churn, ticks=5, background=True)
            updates = [ticket.result(timeout=60) for ticket in tickets]
        finally:
            stop.set()
            thread.join()
            service.stop()
        assert not errors
        assert all(u.background for u in updates)
        # Builds may coalesce, but every delta is covered and the
        # sequence of published epochs is strictly increasing.
        sequences = sorted({u.sequence for u in updates})
        assert sequences == list(
            range(sequences[0], sequences[0] + len(sequences))
        )
        assert sum(
            u.coalesced_deltas for u in {id(u): u for u in updates}.values()
        ) == len(tickets)
        # Served epoch caught up with the source graph.
        assert service.current_epoch.epoch_id == service.source.version

    def test_refresher_stats_account_for_every_delta(self):
        """Each submitted delta is either built or folded into another
        delta's build, and the distinct published updates cover every
        submission exactly once."""
        dynamic, service = self.make_service()
        service.start_refresher()
        churn = ChurnGenerator(add_rate=0.01, remove_rate=0.01, seed=5)
        try:
            tickets = service.attach(churn, ticks=4, background=True)
            updates = [ticket.result(timeout=60) for ticket in tickets]
        finally:
            service.stop()
        stats = service.refresher.stats
        assert stats.deltas_submitted == 4
        assert stats.builds >= 1
        assert stats.builds + stats.deltas_coalesced == stats.deltas_submitted
        distinct = {id(u): u for u in updates}.values()
        assert sum(u.coalesced_deltas for u in distinct) == 4

    def test_sync_and_async_refresh_share_one_pipeline(self):
        """A synchronous refresh between background builds serializes on
        the refresh lock; sequences never skip or collide."""
        dynamic, service = self.make_service()
        refresher = service.start_refresher(thread=False)
        churn = ChurnGenerator(seed=7)
        service.refresh_async(churn.step(dynamic))
        sync_update = service.refresh(churn.step(dynamic))
        background_update = refresher.run_pending()
        assert background_update.sequence == sync_update.sequence + 1
        assert not sync_update.background
        assert service.snapshot()["refresher_build_s_count"] == 1.0

    def test_sharded_service_patches_every_shard(self):
        dynamic, service = self.make_service(
            num_shards=2, num_machines=8
        )
        churn = ChurnGenerator(seed=8)
        update = service.refresh(churn.step(dynamic))
        assert len(service.replicators) == 2
        snapshot = service.current_epoch.graph
        for replicator in service.replicators:
            assert_equivalent_to_rebuild(replicator, snapshot)
        assert update.table_rebuilds == 2
        assert update.vertices_patched == 2 * snapshot.num_vertices
        # Out-edges only: a refresh never builds the gather grouping.
        assert update.edges_regrouped == 2 * snapshot.num_edges


class TestFailedRefresh:
    """A table is a function of the snapshot, so a refresh that raises
    half-way leaves no per-shard state behind to disagree later."""

    @pytest.mark.parametrize("execution", ["simulated", "process"])
    def test_failed_build_publishes_nothing_and_the_next_recovers(
        self, execution, monkeypatch
    ):
        from repro.live import ingress as ingress_module

        dynamic = DynamicDiGraph.from_digraph(twitter_like(n=300, seed=5))
        service = LiveRankingService(
            dynamic,
            config=FAST,
            num_machines=8,
            num_shards=2,
            seed=0,
            execution=execution,
        )
        churn = ChurnGenerator(add_rate=0.02, remove_rate=0.02, seed=6)
        try:
            service.refresh(churn.step(dynamic))
            old_epoch = service.current_epoch
            published = service.epochs.epochs_published

            builds = []

            def fail_on_shard_1(*args, **kwargs):
                builds.append(args)
                if len(builds) == 2:
                    raise RuntimeError("shard 1 table build failed")
                return ReplicationTable(*args, **kwargs)

            monkeypatch.setattr(
                ingress_module, "ReplicationTable", fail_on_shard_1
            )
            with pytest.raises(RuntimeError, match="shard 1"):
                service.refresh(churn.step(dynamic))
            monkeypatch.undo()

            # Nothing was published: queries still run on the old epoch.
            assert service.epochs.epochs_published == published
            assert service.current_epoch is old_epoch
            answer = service.query([2])
            assert answer.report.extra["epoch"] == float(old_epoch.epoch_id)

            # The next refresh covers the delta the failed one applied.
            service.refresh()
            assert service.epochs.epochs_published == published + 1
            epoch = service.current_epoch
            assert epoch.epoch_id == service.source.version
            for replicator, served in zip(
                service.replicators, epoch.backend.replications
            ):
                assert served is replicator.table
                assert_equivalent_to_rebuild(replicator, epoch.graph)
            answer = service.query([2])
            assert answer.report.extra["epoch"] == float(epoch.epoch_id)
        finally:
            service.close()
