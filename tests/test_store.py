"""The out-of-core graph tier: SegmentStore vs the in-RAM reference.

Three families of guarantees pin the store down:

* **delta parity**: ``SegmentStore.apply`` / ``add_edges`` /
  ``remove_edges`` mirror :class:`~repro.dynamic.DynamicDiGraph`'s
  mutation semantics exactly — same counts, same version bumps (none on
  empty batches), same errors — so the two tiers stay interchangeable
  behind the :class:`~repro.store.GraphStore` protocol;
* **window-pruning sufficiency** (property-based, via hypothesis): a
  pruned scan over any window equals the reference
  :func:`~repro.store.scan_keys` over the full key set, for random
  delta sequences, segment sizes, and (mis)aligned machine placements,
  before and after compaction;
* **compaction/manifest discipline**: intervals stay sorted, disjoint
  per machine and covering; crash debris is sweepable; reopen round-trips.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dynamic import DynamicDiGraph, GraphDelta
from repro.errors import ConfigError, GraphError
from repro.graph import DiGraph, twitter_like
from repro.store import (
    GraphStore,
    ScanStats,
    SegmentStore,
    Window,
    as_graph_store,
    edges_to_keys,
    keys_to_edges,
    scan_keys,
)
from repro.store.segments import SegmentMeta

GRAPH = twitter_like(n=300, seed=3)


def _random_edges(rng, n, count):
    edges = rng.integers(0, n, size=(count, 2), dtype=np.int64)
    return edges[edges[:, 0] != edges[:, 1]]


def _store(tmp_path, graph=GRAPH, **kwargs):
    kwargs.setdefault("num_machines", 4)
    kwargs.setdefault("segment_edges", 256)
    return SegmentStore.create(tmp_path / "seg", source=graph, **kwargs)


class TestProtocol:
    def test_digraph_and_dynamic_satisfy_protocol(self):
        assert isinstance(GRAPH, GraphStore)
        assert isinstance(DynamicDiGraph.from_digraph(GRAPH), GraphStore)

    def test_segment_store_satisfies_protocol(self, tmp_path):
        store = _store(tmp_path)
        assert isinstance(store, GraphStore)
        assert store.out_of_core
        assert not getattr(GRAPH, "out_of_core", False)

    def test_as_graph_store_rejects_non_stores(self):
        with pytest.raises(ConfigError):
            as_graph_store(object())

    def test_key_codec_roundtrip(self, rng):
        edges = _random_edges(rng, 50, 200)
        keys = edges_to_keys(edges, 50)
        back = keys_to_edges(keys, 50)
        assert np.array_equal(
            np.unique(keys), edges_to_keys(back, 50)
        )


class TestCreateAndScan:
    def test_bulk_load_matches_source(self, tmp_path):
        store = _store(tmp_path)
        assert store.num_vertices == GRAPH.num_vertices
        assert store.num_edges == GRAPH.num_edges
        assert np.array_equal(store.edge_keys(), GRAPH.edge_keys())

    def test_snapshot_is_bitwise_equal(self, tmp_path):
        store = _store(tmp_path)
        snap = store.snapshot()
        assert np.array_equal(
            snap.csr_components()["indptr"],
            GRAPH.csr_components()["indptr"],
        )
        assert np.array_equal(
            snap.csr_components()["indices"],
            GRAPH.csr_components()["indices"],
        )

    def test_aligned_scan_prunes_and_matches_reference(self, tmp_path):
        store = _store(tmp_path)
        n = store.num_vertices
        full = store.edge_keys()
        window = Window(50, 200, machine=2, num_machines=4, salt=0)
        got = store.scan(window)
        assert np.array_equal(got, scan_keys(full, n, window))
        stats = store.scan_stats
        assert stats.segments_pruned > 0
        assert stats.segments_scanned < stats.segments_considered

    def test_narrow_window_prunes_most_segments(self, tmp_path):
        """An eighth of the vertex range on one of four machines opens
        well under half of the segments it considers."""
        graph = twitter_like(n=2000, seed=3)
        store = _store(tmp_path, graph=graph)
        n = store.num_vertices
        full = store.edge_keys()
        window = Window(
            n // 4, n // 4 + n // 8, machine=1, num_machines=4, salt=0
        )
        assert np.array_equal(store.scan(window), scan_keys(full, n, window))
        assert store.scan_stats.pruned_fraction() > 0.5

    def test_misaligned_scan_falls_back_to_hash_filter(self, tmp_path):
        store = _store(tmp_path)
        n = store.num_vertices
        full = store.edge_keys()
        # Different machine count / salt than the store's placement:
        # segment machine labels are useless, interval pruning isn't.
        window = Window(0, n, machine=1, num_machines=3, salt=9)
        assert np.array_equal(
            store.scan(window), scan_keys(full, n, window)
        )

    def test_empty_and_degenerate_windows(self, tmp_path):
        store = _store(tmp_path)
        n = store.num_vertices
        assert store.scan(Window(10, 10)).size == 0
        assert store.scan(Window(n, n)).size == 0
        assert np.array_equal(store.scan(Window(0, n)), store.edge_keys())

    def test_create_requires_dimensions(self, tmp_path):
        with pytest.raises(ConfigError):
            SegmentStore.create(tmp_path / "x")


class TestDeltaParity:
    """SegmentStore.apply mirrors DynamicDiGraph.apply bit for bit."""

    def _pair(self, tmp_path):
        return (
            DynamicDiGraph.from_digraph(GRAPH),
            _store(tmp_path),
        )

    def test_apply_counts_versions_and_keys_track_ram(
        self, tmp_path, rng
    ):
        dyn, store = self._pair(tmp_path)
        n = GRAPH.num_vertices
        for _ in range(6):
            added = _random_edges(rng, n, 40)
            existing = keys_to_edges(dyn.edge_keys(), n)
            picks = rng.choice(
                existing.shape[0], size=25, replace=False
            )
            delta = GraphDelta(added=added, removed=existing[picks])
            assert dyn.apply(delta) == store.apply(delta)
            assert dyn.version == store.version
            assert dyn.num_edges == store.num_edges
            assert np.array_equal(dyn.edge_keys(), store.edge_keys())

    def test_empty_batches_do_not_bump_version(self, tmp_path):
        dyn, store = self._pair(tmp_path)
        empty = np.empty((0, 2), dtype=np.int64)
        for target in (dyn, store):
            before = target.version
            assert target.add_edges(empty) == 0
            assert target.remove_edges(empty) == 0
            assert target.version == before

    def test_duplicate_adds_and_missing_removes(self, tmp_path, rng):
        dyn, store = self._pair(tmp_path)
        n = GRAPH.num_vertices
        existing = keys_to_edges(dyn.edge_keys(), n)[:10]
        missing = existing[:, ::-1].copy()
        missing = missing[
            ~np.isin(
                edges_to_keys(missing, n), dyn.edge_keys(),
            )
        ]
        for target in (dyn, store):
            assert target.add_edges(existing) == 0  # already present
            assert target.remove_edges(missing) == 0  # never present
        assert dyn.version == store.version

    def test_readd_resurrects_removed_edge(self, tmp_path):
        dyn, store = self._pair(tmp_path)
        n = GRAPH.num_vertices
        edge = keys_to_edges(dyn.edge_keys()[:1], n)
        for target in (dyn, store):
            assert target.remove_edges(edge) == 1
            assert target.add_edges(edge) == 1
        assert np.array_equal(dyn.edge_keys(), store.edge_keys())

    def test_out_of_range_endpoints_raise(self, tmp_path):
        dyn, store = self._pair(tmp_path)
        bad = np.array([[0, GRAPH.num_vertices]], dtype=np.int64)
        for target in (dyn, store):
            with pytest.raises(GraphError):
                target.add_edges(bad)
        malformed = np.zeros((2, 3), dtype=np.int64)
        for target in (dyn, store):
            with pytest.raises(GraphError):
                target.add_edges(malformed)


class TestCompaction:
    def test_compact_folds_delta_and_preserves_keys(
        self, tmp_path, rng
    ):
        store = _store(tmp_path)
        n = store.num_vertices
        store.add_edges(_random_edges(rng, n, 300))
        existing = keys_to_edges(store.edge_keys(), n)
        store.remove_edges(existing[::7])
        before = store.edge_keys().copy()
        version = store.version
        stats = store.compact()
        assert stats.folded_keys > 0
        assert store.pending_delta == 0
        assert store.version == version  # same edge set, same version
        assert np.array_equal(store.edge_keys(), before)
        store.check_intervals()

    def test_compact_rewrites_only_dirty_machines(self, tmp_path):
        store = _store(tmp_path)
        n = store.num_vertices
        # One edge targets exactly one machine's key space.
        key = store.edge_keys()[:1]
        store.remove_edges(keys_to_edges(key, n))
        stats = store.compact()
        assert stats.machines_rewritten == 1

    def test_maybe_compact_respects_threshold(self, tmp_path, rng):
        store = _store(tmp_path)
        store.add_edges(_random_edges(rng, store.num_vertices, 20))
        assert store.maybe_compact(threshold=10_000) is None
        assert store.maybe_compact(threshold=4) is not None
        assert store.pending_delta == 0

    def test_reopen_after_compaction(self, tmp_path, rng):
        store = _store(tmp_path)
        store.add_edges(_random_edges(rng, store.num_vertices, 150))
        store.compact()
        keys = store.edge_keys().copy()
        reopened = SegmentStore(tmp_path / "seg")
        assert reopened.version == store.version
        assert np.array_equal(reopened.edge_keys(), keys)
        reopened.check_intervals()

    def test_uncompacted_delta_is_not_persisted(self, tmp_path, rng):
        store = _store(tmp_path)
        store.add_edges(_random_edges(rng, store.num_vertices, 50))
        assert SegmentStore(tmp_path / "seg").pending_delta == 0

    def test_orphan_sweep(self, tmp_path):
        store = _store(tmp_path)
        owned = tmp_path / "seg" / store.segment_files()[0]
        orphan = tmp_path / "seg" / "seg-99999999-m0.npy"
        orphan.write_bytes(owned.read_bytes())
        assert store.sweep_orphans() == ["seg-99999999-m0.npy"]
        assert not orphan.exists()
        assert store.list_segment_files() == store.segment_files()

    def test_check_intervals_rejects_corrupt_manifest(self, tmp_path):
        store = _store(tmp_path)
        meta = store._segments[0]
        corrupted = type(meta)(
            machine=meta.machine,
            key_lo=meta.key_hi + 1,  # interval no longer covers keys
            key_hi=meta.key_hi + 2,
            count=meta.count,
            file=meta.file,
        )
        store._segments[0] = corrupted
        with pytest.raises(GraphError):
            store.check_intervals()


@st.composite
def _delta_scenarios(draw):
    n = draw(st.integers(min_value=8, max_value=64))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    base = _random_edges(rng, n, draw(st.integers(0, 120)))
    steps = draw(st.integers(min_value=0, max_value=4))
    machines = draw(st.integers(min_value=1, max_value=5))
    salt = draw(st.integers(min_value=0, max_value=3))
    segment_edges = draw(st.sampled_from([4, 16, 64, 1024]))
    lo = draw(st.integers(0, n))
    hi = draw(st.integers(0, n))
    lo, hi = min(lo, hi), max(lo, hi)
    q_machines = draw(st.integers(min_value=1, max_value=5))
    q_machine = draw(st.integers(0, q_machines - 1))
    q_salt = draw(st.integers(min_value=0, max_value=3))
    return (
        n, rng, base, steps, machines, salt, segment_edges,
        Window(lo, hi, machine=q_machine, num_machines=q_machines,
               salt=q_salt),
    )


class TestWindowPruningProperty:
    """Pruned scan == full reference scan, uncompacted deltas included."""

    @settings(max_examples=40, deadline=None)
    @given(scenario=_delta_scenarios())
    def test_pruned_scan_equals_reference(self, scenario):
        (n, rng, base, steps, machines, salt, segment_edges,
         window) = scenario
        with tempfile.TemporaryDirectory() as tmp:
            self._check(
                Path(tmp), n, rng, base, steps, machines, salt,
                segment_edges, window,
            )

    def _check(
        self, tmp_path, n, rng, base, steps, machines, salt,
        segment_edges, window,
    ):
        store = SegmentStore.create(
            tmp_path / "prop",
            source=base if base.size else None,
            num_vertices=n,
            num_machines=machines,
            salt=salt,
            segment_edges=segment_edges,
        )
        for step in range(steps):
            added = _random_edges(rng, n, int(rng.integers(0, 30)))
            keys = store.edge_keys()
            removed = (
                keys_to_edges(
                    rng.choice(
                        keys, size=min(8, keys.size), replace=False
                    ),
                    n,
                )
                if keys.size
                else np.empty((0, 2), dtype=np.int64)
            )
            store.apply(GraphDelta(added=added, removed=removed))
            full = store.edge_keys()
            assert np.array_equal(
                store.scan(window), scan_keys(full, n, window)
            )
            # Also an aligned window (the fast pruning path).
            aligned = Window(
                window.vertex_lo, window.vertex_hi,
                machine=min(window.machine or 0, machines - 1),
                num_machines=machines, salt=salt,
            )
            assert np.array_equal(
                store.scan(aligned), scan_keys(full, n, aligned)
            )
        store.compact()
        store.check_intervals()
        full = store.edge_keys()
        assert np.array_equal(
            store.scan(window), scan_keys(full, n, window)
        )


class TestDeprecatedReaches:
    def test_digraph_scan_matches_reference(self, rng):
        window = Window(100, 220, machine=1, num_machines=3, salt=2)
        assert np.array_equal(
            GRAPH.scan(window),
            scan_keys(GRAPH.edge_keys(), GRAPH.num_vertices, window),
        )


class TestWindowAndManifestIntervals:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(vertex_lo=-1, vertex_hi=5),
            dict(vertex_lo=6, vertex_hi=5),
            dict(vertex_lo=0, vertex_hi=5, num_machines=0),
            dict(vertex_lo=0, vertex_hi=5, machine=4, num_machines=4),
            dict(vertex_lo=0, vertex_hi=5, machine=-1, num_machines=4),
        ],
        ids=["negative-lo", "hi-below-lo", "no-machines", "machine-past-end",
             "negative-machine"],
    )
    def test_invalid_windows_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            Window(**kwargs)

    def test_key_range_clamps_to_the_vertex_universe(self):
        assert Window(2, 5).key_range(10) == (20, 50)
        assert Window(2, 50).key_range(10) == (20, 100)
        assert Window(3, 3).key_range(10) == (30, 30)

    @pytest.mark.parametrize(
        "lo, hi, expected",
        [
            (0, 10, False),  # ends just before key_lo (half-open)
            (0, 11, True),  # reaches key_lo
            (20, 30, True),  # starts on key_hi (closed)
            (21, 30, False),  # starts past key_hi
            (12, 15, True),  # inside
            (0, 100, True),  # covers
        ],
    )
    def test_segment_interval_meets_half_open_window(self, lo, hi, expected):
        meta = SegmentMeta(machine=0, key_lo=10, key_hi=20, count=3, file="f")
        assert meta.intersects(lo, hi) is expected

    def test_pruned_fraction(self):
        assert ScanStats().pruned_fraction() == 0.0
        stats = ScanStats(scans=1, segments_considered=8, segments_pruned=6)
        assert stats.pruned_fraction() == 0.75

    def test_nbytes_on_disk_counts_segment_keys_only(self, tmp_path, rng):
        store = _store(tmp_path)
        assert store.nbytes_on_disk() == 8 * GRAPH.num_edges
        added = store.add_edges(_random_edges(rng, store.num_vertices, 50))
        assert added > 0
        assert store.nbytes_on_disk() == 8 * GRAPH.num_edges  # delta layer
        store.compact()
        assert store.nbytes_on_disk() == 8 * store.num_edges
