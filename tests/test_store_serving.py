"""Serving through the out-of-core tier: parity, spill, live churn.

The acceptance bar for the storage seam is *bitwise* equality: a
service constructed over a :class:`~repro.store.SegmentStore` must
answer every query with exactly the vertices and scores the in-RAM
construction produces, across all three execution backends — the store
changes where bytes live, never what the kernels compute.  On top of
that: the spill/reuse round-trip rebuilds structurally equal tables
from mapped files, the store's version counter invalidates the service
cache on churn, and :class:`~repro.live.LiveRankingService` can run a
segment store as its churn source with compaction riding the refresh
pipeline.
"""

import numpy as np
import pytest

from repro.core import FrogWildConfig
from repro.dynamic import ChurnGenerator, DynamicDiGraph, GraphDelta
from repro.errors import ConfigError
from repro.graph import twitter_like
from repro.live import LiveRankingService
from repro.serving import RankingQuery, RankingService, ServiceConfig
from repro.store import (
    SegmentStore,
    load_serving_tables,
    spill_serving_tables,
)

GRAPH = twitter_like(n=300, seed=11)
CONFIG = FrogWildConfig(num_frogs=800, iterations=4, ps=1.0, seed=5)
QUERIES = [
    RankingQuery(seeds=(3, 40), k=10),
    RankingQuery(seeds=(7, 120, 200), k=10),
]


def _answers(service):
    try:
        return [
            (list(a.vertices), list(a.scores))
            for a in service.query_batch(QUERIES)
        ]
    finally:
        service.close()


@pytest.fixture
def store(tmp_path):
    return SegmentStore.create(
        tmp_path / "seg", source=GRAPH, num_machines=4, segment_edges=512
    )


class TestBackendParity:
    def test_local_backend_bitwise(self, store):
        ram = _answers(RankingService(
            GRAPH, ServiceConfig(config=CONFIG, num_machines=4, seed=2)
        ))
        ooc = _answers(RankingService(
            config=ServiceConfig(
                config=CONFIG, num_machines=4, seed=2, store=store
            ),
        ))
        assert ram == ooc

    def test_sharded_backend_bitwise(self, store):
        ram = _answers(RankingService(
            GRAPH,
            ServiceConfig(
                config=CONFIG, num_machines=4, num_shards=2, seed=2
            ),
        ))
        ooc = _answers(RankingService(
            config=ServiceConfig(
                config=CONFIG, num_machines=4, num_shards=2, seed=2,
                store=store
            ),
        ))
        assert ram == ooc

    def test_process_backend_bitwise(self, store):
        ram = _answers(RankingService(
            GRAPH,
            ServiceConfig(
                config=CONFIG, num_machines=4, num_shards=2, seed=2,
                backend="process"
            ),
        ))
        ooc = _answers(RankingService(
            config=ServiceConfig(
                config=CONFIG, num_machines=4, num_shards=2, seed=2,
                backend="process", store=store
            ),
        ))
        assert ram == ooc

    def test_ram_store_is_a_graph_source(self):
        ram = _answers(RankingService(
            GRAPH, ServiceConfig(config=CONFIG, num_machines=4, seed=2)
        ))
        via_store = _answers(RankingService(
            config=ServiceConfig(
                config=CONFIG, num_machines=4, seed=2, store=GRAPH
            ),
        ))
        assert ram == via_store

    def test_needs_graph_or_store(self):
        with pytest.raises(ConfigError):
            RankingService(config=ServiceConfig(config=CONFIG))


class TestSpillRoundTrip:
    def test_tables_reload_structurally_equal(self, tmp_path):
        from repro.cluster import ReplicationTable, StableHashVertexCut

        replication = ReplicationTable(
            GRAPH,
            StableHashVertexCut(seed=3).partition(GRAPH, 4),
            seed=3,
        )
        directory = spill_serving_tables(
            tmp_path / "spill", GRAPH, [replication]
        )
        graph, (loaded,) = load_serving_tables(directory)
        assert np.array_equal(
            graph.csr_components()["indices"],
            GRAPH.csr_components()["indices"],
        )
        assert loaded.structurally_equal(replication)
        # Mapped, not materialized: the loaded CSR is a read-only view
        # over the spill files.
        assert not graph.csr_components()["indices"].flags.writeable

    def test_spill_reuse_skips_rebuild(self, tmp_path, store):
        service = RankingService(
            config=ServiceConfig(
                config=CONFIG, num_machines=4, seed=2, store=store
            ),
        )
        service.close()
        spill_dirs = list((store.directory / "serving").iterdir())
        assert len(spill_dirs) == 1
        again = RankingService(
            config=ServiceConfig(
                config=CONFIG, num_machines=4, seed=2, store=store
            ),
        )
        again.close()
        assert list((store.directory / "serving").iterdir()) == spill_dirs

    def test_reopened_store_serves_its_spill_bitwise(self, store):
        """A later process reopens the store from its directory and maps
        the spilled tables instead of rebuilding them; its answers are
        the RAM tier's, bit for bit, and the directory holds nothing
        the manifest does not name."""
        ram = _answers(RankingService(
            GRAPH,
            ServiceConfig(
                config=CONFIG, num_machines=4, seed=2, cache_capacity=0
            ),
        ))
        RankingService(
            config=ServiceConfig(
                config=CONFIG, num_machines=4, seed=2, store=store
            ),
        ).close()
        spill_dirs = list((store.directory / "serving").iterdir())
        reopened = SegmentStore(store.directory)
        mapped = _answers(RankingService(
            config=ServiceConfig(
                config=CONFIG, num_machines=4, seed=2, store=reopened,
                cache_capacity=0
            ),
        ))
        assert mapped == ram
        assert list((store.directory / "serving").iterdir()) == spill_dirs
        assert reopened.sweep_orphans() == []

    def test_store_version_bump_forces_new_spill(self, tmp_path, store):
        RankingService(
            config=ServiceConfig(
                config=CONFIG, num_machines=4, seed=2, store=store
            ),
        ).close()
        store.add_edges(np.array([[5, 250]], dtype=np.int64))
        RankingService(
            config=ServiceConfig(
                config=CONFIG, num_machines=4, seed=2, store=store
            ),
        ).close()
        assert len(list((store.directory / "serving").iterdir())) == 2


class TestCacheInvalidation:
    def test_store_version_is_the_default_generation(self, store):
        service = RankingService(
            config=ServiceConfig(
                config=CONFIG, num_machines=4, seed=2, store=store
            ),
        )
        try:
            first = service.query(seeds=(3, 40), k=5)
            replay = service.query(seeds=(3, 40), k=5)
            assert replay.cached
            store.add_edges(np.array([[9, 290]], dtype=np.int64))
            after = service.query(seeds=(3, 40), k=5)
            assert not after.cached
            assert first.vertices is not None
        finally:
            service.close()


class TestLiveStoreSeam:
    def test_live_service_runs_store_source_with_compaction(
        self, tmp_path
    ):
        store = SegmentStore.create(
            tmp_path / "live", source=GRAPH, num_machines=4,
            segment_edges=512,
        )
        twin = DynamicDiGraph.from_digraph(GRAPH)
        ram = LiveRankingService(
            twin, CONFIG, num_machines=4, seed=3
        )
        ooc = LiveRankingService(
            config=CONFIG, num_machines=4, seed=3, store=store,
            compact_threshold=16,
        )
        churn = ChurnGenerator(add_rate=0.02, remove_rate=0.01, seed=8)
        try:
            for _ in range(3):
                delta = churn.step(twin)
                ram.refresh(delta)
                ooc.refresh(delta)
                a = ram.query(seeds=(3, 40), k=8)
                b = ooc.query(seeds=(3, 40), k=8)
                assert list(a.vertices) == list(b.vertices)
                assert list(a.scores) == list(b.scores)
                assert ram.source.version == ooc.source.version
                assert np.array_equal(
                    ram.source.edge_keys(), ooc.source.edge_keys()
                )
            assert ooc.snapshot()["store_compactions"] >= 1
            store.check_intervals()
            assert store.sweep_orphans() == []
        finally:
            ram.stop()
            ooc.stop()

    def test_graph_and_store_are_mutually_exclusive(self, tmp_path):
        store = SegmentStore.create(
            tmp_path / "x", source=GRAPH, num_machines=2
        )
        with pytest.raises(ConfigError):
            LiveRankingService(
                DynamicDiGraph.from_digraph(GRAPH), CONFIG, store=store
            )
        with pytest.raises(ConfigError):
            LiveRankingService(config=CONFIG)

    def test_refresh_applies_delta_to_store(self, tmp_path):
        store = SegmentStore.create(
            tmp_path / "y", source=GRAPH, num_machines=2
        )
        service = LiveRankingService(
            config=CONFIG, num_machines=2, seed=0, store=store
        )
        try:
            before = store.num_edges
            update = service.refresh(GraphDelta(
                added=np.array([[1, 299]], dtype=np.int64)
            ))
            assert store.num_edges == before + update.edges_added
            assert service.current_epoch.epoch_id == store.version
        finally:
            service.stop()
