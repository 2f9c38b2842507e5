"""Serving never builds the gather grouping.

FrogWild's vertex program has an empty gather, so nothing on the
serving path — a service batch, a live refresh, a worker pool, a spill
round trip — may build, export or carry
:attr:`~repro.cluster.ReplicationTable.in_groups`; the GraphLab-PR
baselines then build it on demand, once, on the very same tables.
"""

import json

import numpy as np

from repro.cluster import ReplicationTable
from repro.core import FrogWildConfig
from repro.dynamic import ChurnGenerator, DynamicDiGraph
from repro.engine import build_cluster
from repro.graph import twitter_like
from repro.live import LiveRankingService
from repro.pagerank import graphlab_pagerank
from repro.serving import (
    ProcessPoolBackend,
    RankingQuery,
    RankingService,
    ServiceConfig,
)
from repro.store import load_serving_tables, spill_serving_tables

GRAPH = twitter_like(n=300, seed=11)
CONFIG = FrogWildConfig(num_frogs=800, iterations=3, seed=5)
QUERIES = [RankingQuery(seeds=(3, 40), k=10), RankingQuery(seeds=(7,), k=10)]


def _unbuilt(*tables):
    assert tables
    return all("in_groups" not in vars(table) for table in tables)


def test_a_service_batch_leaves_it_unbuilt():
    service = RankingService(
        GRAPH, ServiceConfig(config=CONFIG, num_machines=4, seed=2)
    )
    try:
        answers = service.query_batch(QUERIES)
        assert all(a.vertices.size == 10 for a in answers)
        assert _unbuilt(service.replication)
    finally:
        service.close()


def test_a_live_refresh_and_a_miss_batch_leave_it_unbuilt():
    dynamic = DynamicDiGraph.from_digraph(GRAPH)
    service = LiveRankingService(
        dynamic, config=CONFIG, num_machines=4, num_shards=2, seed=2
    )
    try:
        service.query_batch(QUERIES)
        update = service.refresh(ChurnGenerator(seed=8).step(dynamic))
        assert update.edges_regrouped == 2 * service.current_epoch.graph.num_edges
        before = service.stats.queries_executed
        service.query_batch(QUERIES)
        assert service.stats.queries_executed == before + len(QUERIES)  # misses
        assert _unbuilt(*(r.table for r in service.replicators))
        assert _unbuilt(*service.current_epoch.backend.replications)
    finally:
        service.close()


def test_a_worker_pool_neither_builds_nor_ships_it():
    with ProcessPoolBackend(
        GRAPH, num_shards=2, num_machines=4, seed=0
    ) as backend:
        outcome = backend.run_batch(CONFIG, QUERIES)
        assert len(outcome.lanes) == len(QUERIES)
        assert _unbuilt(*backend.replications)
        keys = [
            key
            for arenas in backend._arenas.values()
            for arena in arenas
            for key in arena.spec.keys()
        ]
        assert any(key.startswith("out.") for key in keys)
        assert not any(key.startswith("in.") for key in keys)
        # What a worker attaches: the same keys, the grouping still lazy.
        table = backend.replications[0]
        attached = ReplicationTable.from_shared_components(
            GRAPH, table.shared_components()
        )
        assert _unbuilt(attached)
        assert attached.structurally_equal(table)


def test_a_spill_round_trip_neither_stores_nor_builds_it(tmp_path):
    tables = [
        build_cluster(GRAPH, 4, seed=seed).replication for seed in (0, 1)
    ]
    directory = spill_serving_tables(tmp_path / "spill", GRAPH, tables)
    graph, loaded = load_serving_tables(directory)
    assert _unbuilt(*tables, *loaded)
    names = json.loads((directory / "meta.json").read_text())["arrays"]
    assert any(".out." in name for name in names)
    assert not any(".in." in name for name in names)
    assert not list(directory.glob("*.in.*"))
    for table, mapped in zip(tables, loaded):
        assert mapped.structurally_equal(table)  # ... and builds it when asked


def test_the_baselines_build_it_on_demand():
    state = build_cluster(GRAPH, 4, seed=0)
    table = state.replication
    assert _unbuilt(table)
    result = graphlab_pagerank(GRAPH, iterations=2, state=state)
    assert result.ranks.sum() > 0
    assert not _unbuilt(table)
    built = table.in_groups
    assert table.in_groups is built  # kept, not rebuilt
    assert np.array_equal(np.sort(built.sorted_other), GRAPH.edge_sources())
