"""Live replication tables + refresh.

Two pinned invariants:

* **equivalence** — after *any* sequence of deltas, the replicator's
  :class:`~repro.cluster.ReplicationTable` is structurally equal
  (masters, replica bitmap, both machine-grouped adjacencies, partition)
  to a from-scratch build of the current snapshot under a from-scratch
  stable-hash partition;
* **epoch purity under refresh** — queries dispatched while the next
  epoch is being built run, and are stamped, wholly on the epoch
  current at their dispatch; the publish at the end of a build is only
  the atomic swap.
"""

import threading
from unittest import mock

import numpy as np
import pytest

from repro.cluster import ReplicationTable, make_partitioner
from repro.core import FrogWildConfig
from repro.dynamic import ChurnGenerator, DynamicDiGraph, GraphDelta
from repro.graph import twitter_like
from repro.live import (
    IncrementalIngress,
    IncrementalReplication,
    LiveRankingService,
)
from repro.serving import RankingQuery, RankingService, ServiceConfig

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
        assert table.masters[v] == scratch.masters[v]
        np.testing.assert_array_equal(
            table.replica_matrix[v], scratch.replica_matrix[v]
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


class TestLiveRefresh:
    def make_service(self, **kwargs):
        dynamic = DynamicDiGraph.from_digraph(
            twitter_like(n=300, seed=5)
        )
        defaults = dict(config=FAST, num_machines=4, seed=0)
        defaults.update(kwargs)
        return dynamic, LiveRankingService(dynamic, **defaults)

    @pytest.mark.parametrize("execution", ["simulated", "process"])
    def test_queries_mid_build_run_on_the_old_epoch(self, execution):
        """The epoch-tear regression: a batch dispatched after the next
        epoch is fully built — under process execution, attached by
        every worker — but before it is published must run, and be
        stamped, wholly on the old epoch: its answer is the old
        snapshot's, bitwise, and not the new one's."""
        config = FrogWildConfig(num_frogs=2000, iterations=4, seed=0)
        layout = dict(num_machines=8, num_shards=2, seed=0, cache_capacity=0)
        dynamic = DynamicDiGraph.from_digraph(twitter_like(n=400, seed=5))
        service = LiveRankingService(
            dynamic, config=config, execution=execution, **layout
        )
        observed = {}
        publish = service.epochs.publish

        def query_then_publish(epoch):
            observed["answer"] = service.query([2, 7], k=20)
            observed["epoch_at_dispatch"] = service.current_epoch.epoch_id
            return publish(epoch)

        def static_answer(snapshot):
            static = RankingService(
                snapshot,
                ServiceConfig(
                    config=config, partitioner="stable-hash", **layout
                ),
            )
            try:
                return static.query([2, 7], k=20)
            finally:
                static.close()

        try:
            old_epoch = service.current_epoch
            churn = ChurnGenerator(add_rate=0.05, remove_rate=0.05, seed=6)
            with mock.patch.object(
                service.epochs, "publish", query_then_publish
            ):
                update = service.refresh(churn.step(dynamic))
            answer = observed["answer"]
            assert observed["epoch_at_dispatch"] == old_epoch.epoch_id
            assert answer.report.extra["epoch"] == float(old_epoch.epoch_id)
            assert update.epoch > old_epoch.epoch_id
            for snapshot, same in (
                (old_epoch.graph, True),
                (service.current_epoch.graph, False),
            ):
                expected = static_answer(snapshot)
                assert (
                    list(answer.vertices) == list(expected.vertices)
                    and list(answer.scores) == list(expected.scores)
                    and answer.network_bytes == expected.network_bytes
                ) == same
            after = service.query([2, 7], k=20)
            assert after.report.extra["epoch"] == float(update.epoch)
            if execution == "process":
                # The superseded epoch was retired at the publish.
                pool = service.current_epoch.backend.backend
                assert list(pool._arenas) == [update.sequence]
        finally:
            service.close()

    def test_threaded_refreshes_interleaved_with_queries(self):
        """Queries racing refreshes on another thread: every batch
        carries exactly one epoch stamp and every refresh publishes."""
        dynamic, service = self.make_service()
        churn = ChurnGenerator(add_rate=0.02, remove_rate=0.02, seed=6)
        stop = threading.Event()
        errors = []
        updates = []

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

        def refresher():
            try:
                for _ in range(5):
                    updates.append(service.refresh(churn.step(dynamic)))
            except BaseException as error:  # pragma: no cover - fails test
                errors.append(error)

        thread = threading.Thread(target=hammer)
        ingest = threading.Thread(target=refresher)
        thread.start()
        ingest.start()
        try:
            ingest.join(timeout=60)
            assert not ingest.is_alive()
        finally:
            stop.set()
            thread.join()
            service.stop()
        assert not errors
        assert len(updates) == 5
        # The sequence of published epochs is strictly increasing.
        sequences = [u.sequence for u in updates]
        assert sequences == list(
            range(sequences[0], sequences[0] + len(sequences))
        )
        # Served epoch caught up with the source graph.
        assert service.current_epoch.epoch_id == service.source.version

    def test_concurrent_refreshes_serialize_and_every_one_is_timed(self):
        """Refreshes from several threads serialize on the refresh lock
        (sequences never skip or collide), one build may cover deltas
        applied to the source beforehand, and the snapshot times every
        refresh."""
        dynamic, service = self.make_service()
        churn = ChurnGenerator(seed=7)
        for _ in range(2):
            dynamic.apply(churn.step(dynamic))
        covering = service.refresh()
        assert service.current_epoch.epoch_id == dynamic.version
        updates = [covering]
        # Drawn up front: a delta is drawn from the graph it churns.
        deltas = [churn.step(dynamic) for _ in range(3)]

        def refresh_once(delta):
            updates.append(service.refresh(delta))

        threads = [
            threading.Thread(target=refresh_once, args=(delta,))
            for delta in deltas
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert sorted(u.sequence for u in updates) == [1, 2, 3, 4]
        row = service.snapshot()
        assert row["refresh_build_s_count"] == len(updates)
        assert row["refresh_publish_s_count"] == len(updates)
        assert row["epochs_published"] == len(updates) + 1

    def test_one_refresh_covers_deltas_applied_to_the_source(self):
        """Deltas applied to ``service.source`` and then one bare
        ``refresh()`` serve what a refresh per delta serves: the same
        graph, tables equal to a rebuild and the same answer, for one
        build and one publish instead of three."""
        deltas = []
        stepper = DynamicDiGraph.from_digraph(twitter_like(n=300, seed=5))
        churn = ChurnGenerator(seed=2)
        for _ in range(3):
            deltas.append(churn.step(stepper))
            stepper.apply(deltas[-1])
        per_delta_source, per_delta = self.make_service()
        covering_source, covering = self.make_service()
        for delta in deltas:
            per_delta.refresh(delta)
            covering_source.apply(delta)
        update = covering.refresh()
        assert (update.edges_added, update.edges_removed) == (0, 0)
        assert update.sequence == 1
        assert covering.current_epoch.epoch_id == covering_source.version
        assert covering.current_epoch.graph == per_delta.current_epoch.graph
        for replicator in covering.replicators:
            assert_equivalent_to_rebuild(
                replicator, covering.current_epoch.graph
            )
        mine = covering.query([2, 7], k=10)
        theirs = per_delta.query([2, 7], k=10)
        assert list(mine.vertices) == list(theirs.vertices)
        assert list(mine.scores) == list(theirs.scores)
        assert covering.snapshot()["refresh_build_s_count"] == 1
        assert per_delta.snapshot()["refresh_build_s_count"] == 3

    def test_refresh_histograms_hold_every_update_s_times(self):
        """The snapshot's build and publish histograms are fed each
        refresh's own ``build_time_s`` and ``publish_s``, which are
        parts of its ``refresh_time_s``."""
        dynamic, service = self.make_service()
        updates = service.attach(ChurnGenerator(seed=9), ticks=4)
        row = service.snapshot()
        for name, times in (
            ("build", [u.build_time_s for u in updates]),
            ("publish", [u.publish_s for u in updates]),
        ):
            assert row[f"refresh_{name}_s_count"] == len(updates)
            assert row[f"refresh_{name}_s_max"] == max(times)
            assert row[f"refresh_{name}_s_mean"] == pytest.approx(
                sum(times) / len(times)
            )
        for update in updates:
            assert 0.0 < update.build_time_s <= update.refresh_time_s
            assert 0.0 <= update.publish_s <= update.refresh_time_s

    def test_a_superseded_pool_epoch_lives_until_its_batch_drains(self):
        """Under process execution, a refresh published while a batch is
        pinned to the old epoch leaves that epoch's arenas attached: the
        batch runs on them, stamped with the old epoch, and the epoch is
        retired when it finishes."""
        dynamic = DynamicDiGraph.from_digraph(twitter_like(n=300, seed=5))
        service = LiveRankingService(
            dynamic,
            config=FAST,
            num_machines=4,
            num_shards=2,
            seed=0,
            execution="process",
            cache_capacity=0,
        )
        churn = ChurnGenerator(add_rate=0.02, remove_rate=0.02, seed=6)
        observed = {}
        try:
            old_epoch = service.current_epoch
            pool = old_epoch.backend.backend
            run_old = old_epoch.backend.run_batch

            def refresh_then_run(config, queries):
                # Pinned by the epoch manager before this call, so the
                # publish below lands mid-flight.
                observed["update"] = service.refresh(churn.step(dynamic))
                observed["arenas_mid_flight"] = sorted(pool._arenas)
                return run_old(config, queries)

            with mock.patch.object(
                old_epoch.backend, "run_batch", refresh_then_run
            ):
                answer = service.query([2])
            update = observed["update"]
            new_tag = service.current_epoch.backend.epoch
            assert observed["arenas_mid_flight"] == [
                old_epoch.backend.epoch,
                new_tag,
            ]
            assert answer.report.extra["epoch"] == float(old_epoch.epoch_id)
            assert update.epoch > old_epoch.epoch_id
            assert service.epochs.publishes_mid_flight == 1
            assert list(pool._arenas) == [new_tag]
            after = service.query([2])
            assert after.report.extra["epoch"] == float(update.epoch)
        finally:
            service.close()

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

    def test_an_epoch_attached_but_never_published_is_retired(self):
        """Under process execution the pool attaches the next epoch
        before the publish; a refresh failing in between retires that
        epoch again instead of leaving its arenas mapped until close."""
        dynamic = DynamicDiGraph.from_digraph(twitter_like(n=300, seed=5))
        service = LiveRankingService(
            dynamic,
            config=FAST,
            num_machines=4,
            num_shards=2,
            seed=0,
            execution="process",
        )
        churn = ChurnGenerator(add_rate=0.02, remove_rate=0.02, seed=6)
        try:
            old_epoch = service.current_epoch
            pool = old_epoch.backend.backend
            with mock.patch.object(
                service.epochs, "publish", side_effect=RuntimeError("boom")
            ):
                with pytest.raises(RuntimeError, match="boom"):
                    service.refresh(churn.step(dynamic))
            assert list(pool._arenas) == [old_epoch.backend.epoch]
            answer = service.query([2])
            assert answer.report.extra["epoch"] == float(old_epoch.epoch_id)
            service.refresh()
            assert list(pool._arenas) == [service.current_epoch.backend.epoch]
            answer = service.query([2])
            assert answer.report.extra["epoch"] == float(
                service.current_epoch.epoch_id
            )
        finally:
            service.close()
