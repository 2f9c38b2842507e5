"""Clock-free work budgets of the superstep's deterministic passes.

The benchmark times the passes; this file counts what they do, so a
pass that falls back to a slower primitive fails here whatever the
host's clock reads:

* frog records come from the (lane, dest) x host bitmap whenever it is
  within ``count_keys``' cells per hop: a dense-range single-lane run
  sorts no hop key, while a served batch's sparse keys still sort once
  per superstep;
* every nonzero scan the superstep and the serving path make reads a
  bool mask: each array ``np.flatnonzero`` receives from a
  ``repro.core`` or ``repro.serving`` frame has dtype bool (numpy scans
  int32/int64/float64 several times slower than bool);
* a shard's serving tables — the replication table plus the kernel
  tables, dense group tables and mirror bitmap primed beside it — hold
  at most 38 bytes per edge, each buffer counted once: index arrays are
  int32 where their values fit, and the kernel tables alias the table's
  arrays instead of copying them;
* a cache hit for the k its entry was executed for constructs no
  ``threading.Event`` and ranks nothing: it is born resolved and copies
  the entry's top-k, while a hit for another k ranks once;
* the process pool's parent merges its workers' frames as the
  ``(id, count)`` records they arrive as: its allocation peak over a
  warm batch follows the frogs, not the n vertices;
* the runner keeps no (B x n) counter: a warm batch's allocation peak
  follows its frogs, not B x n, and no lane's estimate holds more
  records than it launched frogs;
* a served query reaches the runner as its seed set: a warm
  ``ShardedBackend`` batch builds no n-length birth law, so its
  allocation peak follows the frogs, not n;
* a store compaction commits by renaming its manifest to a name that
  has never existed, never over an existing file, and unlinks exactly
  the segments it superseded plus the one manifest it replaced;
* a started service sends a trickled query to an idle server at once:
  every dispatch is counted as idle, none waits out ``max_delay_s``
  (the one bound here read off a clock, at a quarter of the deadline
  it replaces).
"""

import os
import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from repro.cluster import RandomVertexCut, ReplicationTable
from repro.core import (
    BatchQuery,
    FrogWildConfig,
    PageRankEstimate,
    run_frogwild,
    run_frogwild_batch,
)
from repro.core.frogwild import prime_ingress_caches
from repro.core.kernels import fused as fk
from repro.dynamic import ChurnGenerator
from repro.graph import DiGraph, rmat, twitter_like
from repro.serving import (
    ProcessPoolBackend,
    RankingQuery,
    RankingService,
    ServiceConfig,
    ShardedBackend,
)
from repro.store import SegmentStore

GATED = ("repro.core", "repro.serving")


@pytest.fixture
def passes(monkeypatch):
    """Count ``frog_records`` calls and the hop-key sorts they make, and
    record the dtype of every array a gated frame scans for nonzeros."""
    seen = {"records": 0, "sorts": 0, "scans": []}
    real_records = fk.FusedPasses.frog_records
    real_sort = fk.sorted_unique
    real_scan = np.flatnonzero

    def records(self, frog_lane, host, dest):
        seen["records"] += 1
        return real_records(self, frog_lane, host, dest)

    def sort(keys):
        seen["sorts"] += 1
        return real_sort(keys)

    def scan(a):
        caller = sys._getframe(1).f_globals.get("__name__", "")
        if caller.startswith(GATED):
            seen["scans"].append((caller, np.asarray(a).dtype))
        return real_scan(a)

    monkeypatch.setattr(fk.FusedPasses, "frog_records", records)
    monkeypatch.setattr(fk, "sorted_unique", sort)
    monkeypatch.setattr(np, "flatnonzero", scan)
    return seen


def _assert_bool_scans(scans):
    assert scans, "no gated nonzero scan ran"
    assert all(dtype == np.bool_ for _, dtype in scans), sorted(
        {(caller, str(dtype)) for caller, dtype in scans if dtype != np.bool_}
    )


class TestPassBudgets:
    def test_a_dense_range_run_sorts_no_hop_key(self, passes):
        """20 000 frogs on 2 000 vertices at 16 machines: 32 000 bitmap
        cells against ~17 000 hops a superstep, well inside 4 per hop."""
        config = FrogWildConfig(num_frogs=20_000, iterations=4, ps=0.7)
        result = run_frogwild(
            twitter_like(n=2_000, seed=3), config, num_machines=16
        )
        assert result.estimate.total_stopped == config.num_frogs
        assert passes["records"] == config.iterations
        assert passes["sorts"] == 0
        _assert_bool_scans(passes["scans"])

    def test_a_served_batch_still_sorts_once_per_superstep(self, passes):
        """16 lanes x 1 024 vertices x 16 machines is 262 144 bitmap
        cells against at most 32 000 hops: the records sort."""
        graph = rmat(scale=10, edge_factor=8, seed=0)
        config = FrogWildConfig(num_frogs=2_000, iterations=4, ps=0.8)
        service = RankingService.from_config(
            graph,
            ServiceConfig(config, num_machines=16, max_batch_size=16),
        )
        rng = np.random.default_rng(2)
        try:
            answers = service.query_batch(
                [
                    RankingQuery(
                        seeds=tuple(
                            int(v) for v in rng.integers(0, graph.num_vertices, 3)
                        ),
                        k=10,
                    )
                    for _ in range(16)
                ]
            )
        finally:
            service.stop()
        assert all(answer.vertices.size == 10 for answer in answers)
        assert passes["records"] == config.iterations
        assert passes["sorts"] == passes["records"]
        _assert_bool_scans(passes["scans"])


def _held_arrays(obj):
    """Every array reachable from ``obj``'s attributes, slots, dict
    values and ingress cache, the graph it indexes excluded."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, dict):
        for value in obj.values():
            yield from _held_arrays(value)
    elif isinstance(obj, DiGraph):
        return
    elif hasattr(obj, "__slots__"):
        for slot in obj.__slots__:
            yield from _held_arrays(getattr(obj, slot, None))
    elif hasattr(obj, "__dict__"):
        for value in vars(obj).values():
            yield from _held_arrays(value)


def _bytes_held(table):
    """Bytes of every buffer ``table`` holds, each counted once."""
    counted = []
    for array in _held_arrays(table):
        if not any(np.shares_memory(array, seen) for seen in counted):
            counted.append(array)
    return sum(array.nbytes for array in counted)


class TestTableBudget:
    """Table-build allocation per edge: what one shard holds to serve."""

    @pytest.fixture(scope="class")
    def table(self):
        graph = rmat(scale=12, edge_factor=16, seed=0)
        partition = RandomVertexCut(seed=0).partition(graph, 16)
        table = ReplicationTable(graph, partition, seed=0)
        prime_ingress_caches(table, graph)
        return table

    def test_a_shard_holds_at_most_38_bytes_per_edge(self, table):
        """54.9 B/edge with int64 index arrays and copied kernel tables;
        33.4 with int32 ones aliased."""
        assert {"kernel_tables", "dense_groups", "mirror_matrix"} <= set(
            table._ingress_cache
        )
        per_edge = _bytes_held(table) / table.graph.num_edges
        assert per_edge <= 38.0, f"{per_edge:.1f} B/edge"

    def test_the_kernel_tables_alias_the_table(self, table):
        kernel = table._ingress_cache["kernel_tables"]
        groups = table.out_groups
        for mine, theirs in (
            (kernel.edge_host, groups.edge_machine_sorted),
            (kernel.group_machine, groups.group_machine),
            (kernel.edge_target, groups.sorted_other),
            (kernel.group_start, groups.group_start),
            (kernel.vertex_ptr, groups.vertex_ptr),
            (kernel.masters, table.masters),
        ):
            assert np.shares_memory(mine, theirs)


class TestHitBudget:
    """What a cache hit does, counted: no wait primitive, no re-rank."""

    @pytest.fixture
    def counted(self, monkeypatch):
        seen = {"events": 0, "ranks": 0}
        real_rank = PageRankEstimate.top_k_with_scores

        class CountedEvent(threading.Event):
            def __init__(self):
                seen["events"] += 1
                super().__init__()

        def rank(self, k):
            seen["ranks"] += 1
            return real_rank(self, k)

        monkeypatch.setattr(threading, "Event", CountedEvent)
        monkeypatch.setattr(PageRankEstimate, "top_k_with_scores", rank)
        return seen

    @pytest.fixture
    def service(self):
        graph = rmat(scale=10, edge_factor=8, seed=0)
        return RankingService(
            graph,
            ServiceConfig(
                FrogWildConfig(num_frogs=2_000, iterations=4, ps=0.8),
                num_machines=4,
                cache_capacity=16,
                max_delay_s=0.005,
            ),
        )

    def test_same_k_hits_wait_on_nothing_and_rank_nothing(
        self, counted, service
    ):
        query = RankingQuery(seeds=(1, 2, 3), k=10)
        executed = service.query_batch([query])[0]
        assert counted["ranks"] == 1
        counted.update(events=0, ranks=0)
        hits = [service.submit_query(query) for _ in range(50)]
        assert counted == {"events": 0, "ranks": 0}
        assert all(future.done() for future in hits)
        for future in hits:
            answer = future.result(timeout=0)
            assert answer.cached
            np.testing.assert_array_equal(answer.vertices, executed.vertices)
            np.testing.assert_array_equal(answer.scores, executed.scores)
        cache = service.cache.stats
        assert (cache.hits, cache.misses) == (50, 1)
        assert service.stats.queries_submitted == 51
        assert service.stats.queries_served == 51

    def test_another_k_ranks_once(self, counted, service):
        executed = service.query([1, 2, 3], k=10)
        counted.update(events=0, ranks=0)
        other = service.submit([1, 2, 3], k=4)
        assert counted == {"events": 0, "ranks": 1}
        answer = other.result(timeout=0)
        assert answer.cached
        np.testing.assert_array_equal(answer.vertices, executed.vertices[:4])
        np.testing.assert_array_equal(answer.scores, executed.scores[:4])


class TestPoolMergeBudget:
    """The pool parent's allocation peak over one warm batch, measured
    with ``tracemalloc`` at two graph sizes with the batch fixed."""

    CONFIG = FrogWildConfig(num_frogs=2_000, iterations=5, seed=0, ps=0.8)
    QUERIES = [RankingQuery(seeds=(seed,), k=10) for seed in (1, 2, 3, 5)]

    def _peak_bytes(self, scale):
        graph = rmat(scale=scale, edge_factor=16, seed=7)
        with ProcessPoolBackend(
            graph, num_shards=2, num_machines=4, seed=0
        ) as pool:
            pool.run_batch(self.CONFIG, self.QUERIES)
            tracemalloc.start()
            try:
                pool.run_batch(self.CONFIG, self.QUERIES)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

    def test_the_parent_peak_follows_the_frogs_not_n(self):
        """4x the vertices at N = 2 000, B = 4, 2 shards: densifying each
        frame into an n-vector peaked at 0.88 -> 3.26 MB (x3.7); merging
        the records peaks at 0.18 -> 0.21 MB (the supports are larger on
        the larger graph)."""
        small, large = self._peak_bytes(13), self._peak_bytes(15)
        assert large <= 1.5 * small, (small, large)


class TestBatchPeakBudget:
    """A warm batch's allocation peak, measured with ``tracemalloc`` at
    two graph sizes with (N, B) fixed, through the runner and through
    the one-shard in-process fan-out; each entry point's queries are
    built inside the traced call."""

    CONFIG = FrogWildConfig(num_frogs=3_000, iterations=5, seed=0, ps=0.8)
    LANES = 16

    @pytest.fixture(scope="class")
    def backends(self):
        """One graph and one-shard backend per scale, shared by both
        entry points."""
        return {
            scale: ShardedBackend(
                rmat(scale=scale, edge_factor=8, seed=7),
                num_shards=1,
                num_machines=16,
                seed=0,
            )
            for scale in (15, 17)
        }

    def _peak_bytes(self, backend, scale, entry):
        rng = np.random.default_rng(scale)
        n = backend.graph.num_vertices
        seed_sets = [
            rng.choice(n, size=3, replace=False) for _ in range(self.LANES)
        ]
        if entry == "runner":
            state = backend.fresh_state()

            def run():
                queries = [
                    BatchQuery(seeds=seeds, seed=lane)
                    for lane, seeds in enumerate(seed_sets)
                ]
                return run_frogwild_batch(
                    backend.graph, queries, self.CONFIG, state=state
                ).estimates
        else:

            def run():
                queries = [RankingQuery(seeds=seeds) for seeds in seed_sets]
                outcome = backend.run_batch(self.CONFIG, queries)
                return [lane.estimate for lane in outcome.lanes]

        run()
        tracemalloc.start()
        try:
            estimates = run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        for estimate in estimates:
            assert estimate.records[0].size <= self.CONFIG.num_frogs
            assert estimate.total_stopped == self.CONFIG.num_frogs
        return peak

    @pytest.mark.parametrize("entry", ["runner", "served"])
    def test_the_batch_peak_follows_the_frogs_not_n(self, backends, entry):
        """4x the vertices at N = 3 000, B = 16.  Runner: with a (B x n)
        int64 counter and n-length birth laws the peak was 14.4 -> 40.4
        MB (x2.81); summing the stop records and drawing births from the
        seed sets, 6.1 -> 6.9 MB (x1.14).  Served: widening every query
        into an n-length float law peaked at 10.3 -> 23.6 MB (x2.28);
        births from the seed sets, 6.1 -> 6.8 MB (x1.11)."""
        small, large = (
            self._peak_bytes(backends[scale], scale, entry)
            for scale in (15, 17)
        )
        assert large <= 1.3 * small, (entry, small, large)


class TestCompactionBudget:
    """The filesystem calls of 20 compactions of a ``live-churn``-shaped
    store: ``SegmentStore.create``'s default one-machine layout over
    rmat scale 12 (53k edges, 7 segments of 8 192 keys, the benchmark's
    65 536 scaled with the graph), 0.1% of the edges added and 0.1%
    removed per step, and a 256-key threshold so that, as on the
    benchmark's 2 048, one step in three compacts."""

    COMPACTIONS = 20

    def test_commits_rename_to_fresh_names_and_unlink_only_the_superseded(
        self, tmp_path, monkeypatch
    ):
        """On ext4 a rename over an existing file costs 50-71 ms (it
        forces the new file's blocks out and deletes the old one's
        written-back blocks) where a rename to a new name costs 0.05 ms.
        Committing by ``os.replace`` onto one manifest name did that on
        every compaction and unlinked no manifest."""
        store = SegmentStore.create(
            tmp_path / "s",
            source=rmat(scale=12, edge_factor=16, seed=7),
            segment_edges=8_192,
        )
        churn = ChurnGenerator(add_rate=0.001, remove_rate=0.001, seed=1)
        renames, unlinks = [], []
        real_rename, real_replace, real_unlink = os.rename, os.replace, os.unlink

        def rename(src, dst, *args, **kwargs):
            renames.append((os.path.basename(dst), os.path.exists(dst)))
            return real_rename(src, dst, *args, **kwargs)

        def replace(src, dst, *args, **kwargs):
            renames.append((os.path.basename(dst), os.path.exists(dst)))
            return real_replace(src, dst, *args, **kwargs)

        def unlink(path, *args, **kwargs):
            unlinks.append(os.path.basename(path))
            return real_unlink(path, *args, **kwargs)

        monkeypatch.setattr(os, "rename", rename)
        monkeypatch.setattr(os, "replace", replace)
        monkeypatch.setattr(os, "unlink", unlink)
        manifest = re.compile(r"manifest-\d+\.json")
        compactions = 0
        while compactions < self.COMPACTIONS:
            store.apply(churn.step(store))
            before = set(store.segment_files())
            renames.clear()
            unlinks.clear()
            stats = store.maybe_compact(256)
            if stats is None:
                assert not renames and not unlinks
                continue
            compactions += 1
            assert renames and not any(exists for _, exists in renames), (
                compactions, renames,
            )
            superseded = before - set(store.segment_files())
            assert len(superseded) == stats.segments_deleted > 0
            manifests = [n for n in unlinks if manifest.fullmatch(n)]
            assert len(manifests) == 1, (compactions, unlinks)
            assert sorted(set(unlinks) - set(manifests)) == sorted(superseded)
            assert len(unlinks) == len(superseded) + 1, (compactions, unlinks)


class TestIdleDispatchBudget:
    """Trickled queries on a started service never wait out the
    deadline: with nothing else running, each leaves at once."""

    QUERIES = 20
    MAX_DELAY_S = 1.0
    RESOLVE_S = 0.25

    def test_a_trickle_leaves_on_idle_not_on_deadline(self):
        service = RankingService(
            twitter_like(n=600, seed=9),
            ServiceConfig(
                FrogWildConfig(num_frogs=400, iterations=2, seed=0),
                num_machines=4,
                max_delay_s=self.MAX_DELAY_S,
            ),
        )
        with service:
            for vertex in range(self.QUERIES):
                # One at a time: each submit finds the loop idle.
                future = service.submit([vertex])
                answer = future.result(timeout=self.RESOLVE_S)
                assert not answer.cached
        stats = service.scheduler.stats
        assert stats.idle_dispatches == self.QUERIES
        assert stats.deadline_dispatches == 0
        assert service.snapshot()["scheduler_idle_dispatches"] == self.QUERIES
