"""The sorted-key layer: ``sorted_unique`` + ``from_sorted_keys``.

Five families of guarantees:

* ``sorted_unique`` is bit-identical to plain ``np.unique`` on integer
  arrays (property-based);
* ``merge_sorted`` / ``drop_sorted`` / ``count_common`` are
  ``np.union1d`` / ``np.setdiff1d`` / ``np.intersect1d`` on sorted
  distinct keys (property-based), and the key arrays both stores hand
  out are read-only;
* ``from_sorted_keys`` builds exactly the CSR the pre-refactor
  ``from_edges(keys_to_edges(keys, n), n, repair)`` round trip built —
  that round trip (``np.unique`` dedup, ``np.lexsort`` self-loop merge)
  is kept here as :func:`_reference_csr`, the oracle — and rejects
  anything but strictly increasing in-range keys;
* ``_by_column`` chained machine-then-anchor (the two counting-sort
  passes of a ``_GroupedEdges``) applies the
  ``np.lexsort((machine, anchor))`` permutation — ties in CSR order —
  whatever the machine count, the machine dtype or the graph's shape;
* a gate that can fail: with plain ``np.unique`` and ``np.lexsort``
  patched to raise, a live refresh, a served batch and a standalone
  FrogWild run still complete, and no plain ``np.unique(`` call is left
  under ``src/repro`` (both fail on the commit before the refactor);
  and, counting calls instead of reading a clock, a store-backed
  ``refresh(delta)`` merges the segments once, hashes the m keys once
  per ingress, and never runs an m-sized ``np.isin`` or re-sorts the
  ordered runs of a one-machine store (fails on 042739b, where the
  merge and the hash both ran twice and the survivor count was an
  ``np.isin`` over all m keys).
"""

import ast
import tempfile
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import repro
from repro.cluster import partition as partition_module
from repro.cluster import stable_hash_machines
from repro.cluster.replication import _by_column, _GroupedEdges
from repro.core import FrogWildConfig, run_frogwild
from repro.dynamic import ChurnGenerator, DynamicDiGraph, GraphDelta
from repro.errors import GraphError
from repro.graph import (
    DiGraph,
    from_edges,
    from_sorted_keys,
    sorted_unique,
    twitter_like,
)
from repro.graph.keys import count_common, drop_sorted, merge_sorted
from repro.live import LiveRankingService
from repro.pagerank.sparsified import sparsify_uniform
from repro.serving import RankingQuery
from repro.store import SegmentStore, keys_to_edges

REPAIRS = ("self-loop", "drop", "none")


# ----------------------------------------------------------------------
# sorted_unique
# ----------------------------------------------------------------------
class TestSortedUnique:
    @settings(max_examples=200, deadline=None)
    @given(
        hnp.arrays(
            dtype=st.sampled_from([np.int64, np.int32, np.uint16]),
            shape=hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=40),
            elements=st.integers(0, 6) | st.integers(0, 60_000),
        )
    )
    def test_matches_np_unique(self, values):
        ours, theirs = sorted_unique(values), np.unique(values)
        assert ours.dtype == theirs.dtype
        assert np.array_equal(ours, theirs)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(-(2**62), 2**62), max_size=60))
    def test_matches_np_unique_on_negative_and_wide_values(self, values):
        values = np.array(values, dtype=np.int64)
        assert np.array_equal(sorted_unique(values), np.unique(values))

    @pytest.mark.parametrize(
        "values",
        [[], [7], [-3], [5, 5, 5, 5], [-1, -1], [3, -2, 3, -2, 0]],
        ids=["empty", "one", "one-negative", "all-equal", "equal-negative", "mixed"],
    )
    def test_edge_cases(self, values):
        values = np.array(values, dtype=np.int64)
        result = sorted_unique(values)
        assert result.dtype == np.int64
        assert np.array_equal(result, np.unique(values))

    def test_returns_a_fresh_array(self):
        values = np.array([1, 2, 3], dtype=np.int64)
        result = sorted_unique(values)
        result[0] = 99
        assert values[0] == 1


# ----------------------------------------------------------------------
# merge_sorted / drop_sorted / count_common
# ----------------------------------------------------------------------
INT64_MIN, INT64_MAX = np.iinfo(np.int64).min, np.iinfo(np.int64).max

_key_values = (
    st.integers(0, 12)
    | st.integers(-(2**62), 2**62)
    | st.sampled_from([INT64_MIN, INT64_MIN + 1, INT64_MAX - 1, INT64_MAX])
)
_key_sets = st.sets(_key_values, max_size=40).map(
    lambda values: np.array(sorted(values), dtype=np.int64)
)

_PAIRS = {
    "both-empty": ([], []),
    "left-empty": ([], [3, 9]),
    "right-empty": ([3, 9], []),
    "disjoint": ([1, 5, 9], [2, 6, 10]),
    "identical": ([1, 5, 9], [1, 5, 9]),
    "one-element-hit": ([1, 5, 9], [5]),
    "one-element-miss": ([1, 5, 9], [7]),
    "one-element-each": ([4], [4]),
    "absent-below-and-above": ([10, 20], [-5, 10, 15, 99]),
    "longer-members": ([5], [1, 3, 5, 7, 9]),
    "int64-extremes": ([INT64_MIN, 0, INT64_MAX], [INT64_MIN, INT64_MAX]),
    "extremes-absent": ([-1, 0, 1], [INT64_MIN, INT64_MAX]),
}


class TestSortedSetAlgebra:
    @staticmethod
    def _check(a, b):
        for ours, theirs in (
            (merge_sorted(a, b), np.union1d(a, b)),
            (drop_sorted(a, b), np.setdiff1d(a, b)),
        ):
            assert ours.dtype == np.int64
            assert np.array_equal(ours, theirs)
        common = count_common(a, b)
        assert isinstance(common, int)
        assert common == np.intersect1d(a, b).size == count_common(b, a)
        assert count_common(a, a) == a.size

    @settings(max_examples=300, deadline=None)
    @given(_key_sets, _key_sets)
    def test_match_the_numpy_set_routines(self, a, b):
        self._check(a, b)
        self._check(a, a.copy())

    @settings(max_examples=100, deadline=None)
    @given(_key_sets, st.randoms())
    def test_a_subset_and_a_superset(self, a, rnd):
        """The refresh shapes: a few members of a long array, and a long
        array against a few more of its own."""
        part = np.array(
            sorted(rnd.sample(a.tolist(), k=a.size // 3)), dtype=np.int64
        )
        self._check(a, part)
        self._check(part, a)

    @pytest.mark.parametrize("pair", _PAIRS.values(), ids=_PAIRS.keys())
    def test_edge_cases(self, pair):
        a, b = (np.array(values, dtype=np.int64) for values in pair)
        self._check(a, b)

    def test_inputs_are_never_written(self):
        a = np.array([1, 5, 9], dtype=np.int64)
        b = np.array([5, 7], dtype=np.int64)
        a.flags.writeable = b.flags.writeable = False
        self._check(a, b)
        assert a.tolist() == [1, 5, 9] and b.tolist() == [5, 7]


class TestKeyArraysAreReadOnly:
    """One caller's write must not corrupt the next refresh's survivor
    count: the arrays are shared with every ingress's ``_keys``."""

    def test_dynamic_graph_keys_reject_writes(self):
        graph = DynamicDiGraph(5, [(0, 1), (1, 2), (3, 4)])
        deltas = (GraphDelta(added=[(4, 0)]), GraphDelta(removed=[(0, 1)]))
        for delta in (None, *deltas):
            if delta is not None:
                graph.apply(delta)
            keys = graph.edge_keys()
            with pytest.raises(ValueError, match="read-only"):
                keys[0] = 99
            assert graph.edge_keys()[0] != 99
        assert graph.add_edges([(2, 2)]) == 1  # mutators still work

    @pytest.mark.parametrize("machines", [1, 3])
    def test_store_keys_reject_writes_and_are_shared_weakly(
        self, tmp_path, machines
    ):
        graph = twitter_like(n=60, seed=2)
        store = SegmentStore.create(
            tmp_path / "s", source=graph, num_machines=machines, segment_edges=64
        )
        assert len(store.segment_files()) > machines  # several runs each
        keys = store.edge_keys()
        with pytest.raises(ValueError, match="read-only"):
            keys[0] = 99
        # Same version, a reader still holding the array: one merge.
        assert store.edge_keys() is keys
        store.compact()  # no pending delta: the key set is unchanged
        assert store.edge_keys() is keys
        # A mutation retires it ...
        first = tuple(keys_to_edges(keys[:1], 60)[0])
        store.apply(GraphDelta(added=[(0, 0)], removed=[first]))
        fresh = store.edge_keys()
        assert fresh is not keys and not fresh.flags.writeable
        assert fresh.size == keys.size and fresh[0] == 0 and keys[0] != 0
        # ... and the store itself keeps nothing alive.
        alive = weakref.ref(fresh)
        del fresh
        assert alive() is None


# ----------------------------------------------------------------------
# from_sorted_keys vs the pre-refactor round trip
# ----------------------------------------------------------------------
def _reference_csr(keys, n, repair):
    """``from_edges(keys_to_edges(keys, n), n, repair)`` as it was
    before the sorted-key refactor: unique, lexsort, bincount."""
    edges = keys_to_edges(keys, n)
    src, dst = edges[:, 0], edges[:, 1]
    if src.size:
        unique = np.unique(src * n + dst)
        src, dst = unique // n, unique % n
    if repair == "self-loop":
        dangling = np.flatnonzero(np.bincount(src, minlength=n) == 0)
        src = np.concatenate([src, dangling])
        dst = np.concatenate([dst, dangling])
        order = np.lexsort((dst, src))
        src, dst = src[order], dst[order]
    elif repair == "drop":
        keep = np.ones(n, dtype=bool)
        while True:
            newly = keep & (np.bincount(src, minlength=n) == 0)
            if not newly.any():
                break
            keep &= ~newly
            ok = keep[src] & keep[dst]
            src, dst = src[ok], dst[ok]
        relabel = np.cumsum(keep) - 1
        src, dst, n = relabel[src], relabel[dst], int(keep.sum())
    indptr = np.concatenate([[0], np.cumsum(np.bincount(src, minlength=n))])
    return indptr.astype(np.int64), dst.astype(np.int64)


def _assert_same_csr(graph, reference):
    indptr, indices = reference
    assert graph.indptr.dtype == indptr.dtype == np.int64
    assert graph.indices.dtype == indices.dtype == np.int64
    assert np.array_equal(graph.indptr, indptr)
    assert np.array_equal(graph.indices, indices)


@st.composite
def _sorted_key_sets(draw):
    n = draw(st.integers(1, 12))
    keys = draw(st.sets(st.integers(0, n * n - 1), max_size=40))
    return n, np.array(sorted(keys), dtype=np.int64)


class TestFromSortedKeys:
    @settings(max_examples=200, deadline=None)
    @given(_sorted_key_sets(), st.sampled_from(REPAIRS))
    def test_bitwise_equal_to_the_round_trip(self, case, repair):
        n, keys = case
        _assert_same_csr(
            from_sorted_keys(keys, n, repair), _reference_csr(keys, n, repair)
        )

    @pytest.mark.parametrize("repair", REPAIRS)
    @pytest.mark.parametrize(
        "n,keys",
        [
            (1, []),  # one vertex, dangling
            (1, [0]),  # one vertex, its own self-loop
            (5, []),  # no edges: every vertex dangling
            (4, [1, 6, 11]),  # a path: only the last vertex dangling
            (3, [3, 6]),  # vertex 0 dangling, only ever a target
            (3, list(range(9))),  # complete with loops
        ],
    )
    def test_small_cases(self, n, keys, repair):
        keys = np.array(keys, dtype=np.int64)
        _assert_same_csr(
            from_sorted_keys(keys, n, repair), _reference_csr(keys, n, repair)
        )

    @settings(max_examples=100, deadline=None)
    @given(_sorted_key_sets(), st.sampled_from(REPAIRS), st.randoms())
    def test_from_edges_is_the_same_path(self, case, repair, rnd):
        """Shuffled, duplicated rows through the builder: same graph."""
        n, keys = case
        rows = keys_to_edges(keys, n).tolist()
        rows = rows + rows[: len(rows) // 2]
        rnd.shuffle(rows)
        built = from_edges(
            np.array(rows, dtype=np.int64).reshape(-1, 2), n, repair
        )
        assert built == from_sorted_keys(keys, n, repair)
        _assert_same_csr(built, _reference_csr(keys, n, repair))

    @pytest.mark.parametrize(
        "keys",
        [[2, 2], [0, 3, 3, 5], [5, 3], [0, 4, 2], [-1, 3], [3, 9], [16]],
        ids=[
            "duplicate", "duplicate-inside", "descending", "dip",
            "negative", "too-large", "only-too-large",
        ],
    )
    def test_rejects_invalid_keys(self, keys):
        with pytest.raises(GraphError):
            from_sorted_keys(np.array(keys, dtype=np.int64), 3)

    def test_rejects_bad_arguments(self):
        keys = np.array([1, 2], dtype=np.int64)
        with pytest.raises(GraphError):
            from_sorted_keys(keys, 3, repair_dangling="uniform")
        with pytest.raises(GraphError):
            from_sorted_keys(keys.reshape(1, 2), 3)
        with pytest.raises(GraphError):
            from_sorted_keys(keys, -1)
        with pytest.raises(GraphError):
            from_sorted_keys(np.array([0], dtype=np.int64), 0)
        assert from_sorted_keys(keys[:0], 0).num_vertices == 0


# ----------------------------------------------------------------------
# _by_column / _GroupedEdges
# ----------------------------------------------------------------------
def _grouping_order(graph, machine, machines, anchor):
    """The edge permutation of the two counting-sort passes: the passes
    ``_GroupedEdges`` runs, with CSR edge ids riding as the data."""
    n, ids = graph.num_vertices, np.arange(graph.num_edges)
    machine_ptr, src, ids = _by_column(graph.indptr, machine, ids, (n, machines))
    col = src if anchor == "src" else graph.indices[ids]
    return _by_column(machine_ptr, col, ids, (machines, n))[2]


def _hand_csr(n, src, dst):
    """Rows unsorted, edges repeated: whatever ``src``/``dst`` hold."""
    src = np.sort(src)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(src, minlength=n))])
    return DiGraph(indptr, dst), src


class TestGroupingOrder:
    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 60),
        st.integers(0, 300),
        st.sampled_from([1, 16, 2**16 + 5]),
        st.sampled_from(["src", "dst"]),
        st.sampled_from([np.int32, np.int64]),
        st.integers(0, 2**31),
    )
    def test_matches_lexsort(self, n, size, machines, anchor, dtype, seed):
        rng = np.random.default_rng(seed)
        # Endpoints from the lower half only: the rest stay isolated,
        # and 300 edges over <= 30 vertices repeat (ties).
        span = max(n // 2, 1)
        graph, src = _hand_csr(
            n, rng.integers(0, span, size=size), rng.integers(0, span, size=size)
        )
        dst = graph.indices
        machine = rng.integers(0, machines, size=size).astype(dtype)
        if size:
            machine[-1] = machines - 1  # the top of the range is used
        key, other = (src, dst) if anchor == "src" else (dst, src)
        expected = np.lexsort((machine, key))
        assert np.array_equal(
            _grouping_order(graph, machine, machines, anchor), expected
        )
        groups = _GroupedEdges(graph, machine, machines, anchor)
        assert np.array_equal(groups.edge_machine_sorted, machine[expected])
        assert np.array_equal(groups.sorted_other, other[expected])
        assert np.array_equal(groups.edge_anchor(), key[expected])
        assert groups.edge_machine_sorted.dtype == np.int32
        assert groups.sorted_other.dtype == np.int32  # narrowed: n < 2**31

    def test_ties_keep_input_order(self):
        # 0 -> 1, then 1 -> 0 four times around 1 -> 2, on machines 0/3.
        graph, _ = _hand_csr(
            3, np.array([1, 1, 1, 1, 1, 0]), np.array([1, 0, 0, 2, 0, 0])
        )
        assert graph.indices.tolist() == [1, 0, 0, 2, 0, 0]
        machine = np.array([0, 3, 0, 3, 3, 0], dtype=np.int32)
        assert _grouping_order(graph, machine, 4, "src").tolist() == [
            0, 2, 5, 1, 3, 4,
        ]
        assert _grouping_order(graph, machine, 4, "dst").tolist() == [
            2, 5, 1, 4, 0, 3,
        ]

    def test_no_edges(self):
        graph = DiGraph(np.zeros(5, dtype=np.int64), np.empty(0, dtype=np.int64))
        for anchor in ("src", "dst"):
            groups = _GroupedEdges(graph, np.empty(0, dtype=np.int32), 16, anchor)
            assert groups.num_groups == 0 and groups.group_start.dtype == np.int32
            assert groups.vertex_ptr.tolist() == [0] * 5
            assert groups.anchor_edge_ptr.tolist() == [0] * 5


# ----------------------------------------------------------------------
# One snapshot, three stores
# ----------------------------------------------------------------------
def _hand_built(keys, n):
    """A DiGraph assembled by hand from canonical keys (no builder)."""
    src, dst = np.divmod(keys, n)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(src, minlength=n))])
    return DiGraph(indptr, dst)


class TestSnapshotsAgree:
    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(2, 30),
        st.integers(0, 2**31),
        st.lists(st.sampled_from(["add", "remove", "compact"]), max_size=8),
        st.sampled_from([1, 3]),
        st.sampled_from([4, 64]),
    )
    def test_same_interleaving_same_snapshot(
        self, n, seed, steps, machines, segment_edges
    ):
        rng = np.random.default_rng(seed)
        base = rng.integers(0, n, size=(int(rng.integers(0, 3 * n)), 2))
        dynamic = DynamicDiGraph(n, base)
        with tempfile.TemporaryDirectory() as tmp:
            store = SegmentStore.create(
                Path(tmp) / "s",
                source=base if base.size else None,
                num_vertices=n,
                num_machines=machines,
                segment_edges=segment_edges,
            )
            for step in [None, *steps]:
                if step == "add":
                    delta = GraphDelta(
                        added=rng.integers(0, n, size=(int(rng.integers(1, 12)), 2))
                    )
                elif step == "remove" and dynamic.num_edges:
                    keys = dynamic.edge_keys()
                    picks = rng.choice(keys, size=min(6, keys.size), replace=False)
                    delta = GraphDelta(removed=keys_to_edges(picks, n))
                else:
                    delta = None
                if delta is not None:
                    assert dynamic.apply(delta) == store.apply(delta)
                if step == "compact":
                    store.compact()
                keys = dynamic.edge_keys()
                assert np.array_equal(store.edge_keys(), keys)
                static = _hand_built(keys, n)
                for repair in REPAIRS:
                    reference = _reference_csr(keys, n, repair)
                    _assert_same_csr(dynamic.snapshot(repair), reference)
                    _assert_same_csr(store.snapshot(repair), reference)
                    if repair != "drop" or static.dangling_vertices().size:
                        # An undamaged DiGraph is its own snapshot.
                        _assert_same_csr(static.snapshot(repair), reference)

    def test_digraph_snapshot_dedups_hand_built_rows(self):
        # Rows unsorted, edge 0->2 repeated, vertex 2 dangling.
        graph = DiGraph(np.array([0, 3, 4, 4]), np.array([2, 1, 2, 0]))
        repaired = graph.snapshot("self-loop")
        assert repaired == from_edges([(0, 1), (0, 2), (1, 0), (2, 2)], 3)
        assert graph.snapshot("none") is graph
        assert np.array_equal(graph.edge_keys(), [1, 2, 3])

    @pytest.mark.parametrize("seed", range(5))
    def test_sparsify_rebuilds_hand_built_rows_canonically(self, seed):
        # The pre-refactor sparsify_uniform, kept as the oracle: kept
        # rows -> dedup -> self-loop repair, always a fresh graph.
        rng = np.random.default_rng(seed)
        n = 9
        degrees = rng.integers(1, 6, size=n)  # nobody dangling up front
        indptr = np.concatenate([[0], np.cumsum(degrees)])
        graph = DiGraph(indptr, rng.integers(0, n, size=indptr[-1]))
        keep = np.random.default_rng(seed).random(graph.num_edges) < 0.6
        kept = np.column_stack([graph.edge_sources(), graph.indices])[keep]
        reference = _reference_csr(
            np.sort(kept[:, 0] * n + kept[:, 1]), n, "self-loop"
        )
        sparse = sparsify_uniform(graph, 0.6, seed=seed)
        _assert_same_csr(sparse, reference)
        assert sparse is not graph


# ----------------------------------------------------------------------
# The gate: nothing on the hot paths re-sorts through np.unique/lexsort
# ----------------------------------------------------------------------
def _forbid(monkeypatch):
    real_unique = np.unique

    def plain_unique_forbidden(ar, *args, **kwargs):
        if args or any(k.startswith("return_") and v for k, v in kwargs.items()):
            return real_unique(ar, *args, **kwargs)
        raise AssertionError("plain np.unique on a hot path; use sorted_unique")

    def lexsort_forbidden(*args, **kwargs):
        raise AssertionError("np.lexsort on a hot path")

    monkeypatch.setattr(np, "unique", plain_unique_forbidden)
    monkeypatch.setattr(np, "lexsort", lexsort_forbidden)


def _count_o_m_calls(monkeypatch, big):
    """Count, from here on, the calls a refresh must not repeat.

    ``big`` is the size from which an array counts as "all m keys".
    A segment merge is an ``edge_keys()`` call that opened a segment
    file (a shared read opens none); a hash is counted at ``_mix64``,
    under every spelling of the stable hash.
    """
    counts = {
        "segment merges": 0,
        "m-sized hashes": 0,
        "m-sized np.isin": 0,
        "m-sized default np.sort": 0,
    }
    opened = [0]
    real_open, real_keys = SegmentStore._segment_keys, SegmentStore.edge_keys
    real_mix, real_isin, real_sort = partition_module._mix64, np.isin, np.sort

    def segment_keys(self, seg):
        opened[0] += 1
        return real_open(self, seg)

    def edge_keys(self):
        before = opened[0]
        keys = real_keys(self)
        counts["segment merges"] += opened[0] > before
        return keys

    def mix64(values):
        counts["m-sized hashes"] += np.size(values) >= big
        return real_mix(values)

    def isin(element, *args, **kwargs):
        counts["m-sized np.isin"] += np.size(element) >= big
        return real_isin(element, *args, **kwargs)

    def sort(a, axis=-1, kind=None, **kwargs):
        counts["m-sized default np.sort"] += kind is None and np.size(a) >= big
        return real_sort(a, axis=axis, kind=kind, **kwargs)

    monkeypatch.setattr(SegmentStore, "_segment_keys", segment_keys)
    monkeypatch.setattr(SegmentStore, "edge_keys", edge_keys)
    monkeypatch.setattr(partition_module, "_mix64", mix64)
    monkeypatch.setattr(np, "isin", isin)
    monkeypatch.setattr(np, "sort", sort)
    return counts


class TestNoResortGate:
    def test_refresh_query_and_run_avoid_unique_and_lexsort(
        self, monkeypatch, tmp_path
    ):
        graph = twitter_like(n=400, seed=3)
        config = FrogWildConfig(num_frogs=600, iterations=3, seed=0)
        _forbid(monkeypatch)
        store = SegmentStore.create(tmp_path / "s", source=graph, num_machines=4)
        service = LiveRankingService(
            store=store, config=config, num_machines=4, seed=0,
            compact_threshold=8,
        )
        try:
            churn = ChurnGenerator(add_rate=0.01, remove_rate=0.01, seed=1)
            # Strand a vertex so the snapshot's self-loop merge runs.
            victim = int(np.argmax(np.diff(graph.indptr) == 1))
            stranded = GraphDelta(
                removed=[(victim, int(graph.successors(victim)[0]))]
            )
            for delta in (stranded, churn.step(service.source)):
                update = service.refresh(delta)
                assert update.edges_removed > 0
            assert service.compactions >= 1
            assert service.graph.has_edge(victim, victim)
            answers = service.query_batch(
                [RankingQuery(seeds=(5, 9), k=10), RankingQuery(seeds=(11,), k=10)]
            )
            assert all(a.vertices.size == 10 for a in answers)
        finally:
            service.stop()
        result = run_frogwild(service.graph, config, num_machines=4)
        assert result.estimate.counts.sum() > 0

    @pytest.mark.parametrize("shards", [1, 2])
    @pytest.mark.parametrize("resalt", [False, True], ids=["steady", "re-salt"])
    def test_a_refresh_derives_each_o_m_artifact_once(
        self, monkeypatch, tmp_path, shards, resalt
    ):
        """Call counts, not a clock: per ``refresh(delta)`` the segments
        are merged once (both ingresses and the snapshot share it), the
        m keys are hashed once per ingress (twice when the refresh
        re-salts), no ``np.isin`` scans m keys and no default-kind
        ``np.sort`` runs over the ordered runs of a one-machine store."""
        graph = twitter_like(n=400, seed=3)
        store = SegmentStore.create(tmp_path / "s", source=graph, segment_edges=512)
        assert len(store.segment_files()) > 4
        service = LiveRankingService(
            store=store,
            config=FrogWildConfig(num_frogs=600, iterations=3, seed=0),
            num_machines=4,
            num_shards=shards,
            seed=0,
            compact_threshold=10**9,  # a compaction re-reads the segments
            # Any imbalance at all re-salts: every refresh repartitions.
            rebalance_threshold=1.0 + 1e-9 if resalt else None,
        )
        big = store.num_edges // 2
        counts = _count_o_m_calls(monkeypatch, big)
        try:
            churn = ChurnGenerator(add_rate=0.01, remove_rate=0.01, seed=1)
            for tick in range(1, 4):
                delta = churn.step(service.source)
                for name in counts:
                    counts[name] = 0
                update = service.refresh(delta)
                assert update.edges_added > 0 and update.edges_removed > 0
                assert update.full_repartitions == (shards if resalt else 0)
                assert counts == {
                    "segment merges": 1,
                    "m-sized hashes": shards * (2 if resalt else 1),
                    "m-sized np.isin": 0,
                    "m-sized default np.sort": 0,
                }, f"refresh {tick}: {counts}"
        finally:
            service.stop()

    def test_the_call_counters_can_fail(self, monkeypatch, tmp_path):
        """Each counter sees the call it exists to forbid."""
        graph = twitter_like(n=400, seed=3)
        store = SegmentStore.create(tmp_path / "s", source=graph, segment_edges=512)
        keys = store.edge_keys()
        counts = _count_o_m_calls(monkeypatch, keys.size // 2)
        np.isin(keys, keys[:5])
        np.sort(np.concatenate([keys, keys[:5]]))
        np.sort(keys, kind="stable")  # a linear merge of ordered runs: allowed
        np.isin(keys[:5], keys)  # a few members against m keys: allowed
        stable_hash_machines(keys, 4, 0)
        stable_hash_machines(keys[:5], 4, 0)
        del keys
        for _ in range(2):  # nobody holds the result: merged twice
            store.edge_keys()
        assert counts == {
            "segment merges": 2,
            "m-sized hashes": 1,
            "m-sized np.isin": 1,
            "m-sized default np.sort": 1,
        }

    def test_the_gate_itself_can_fail(self, monkeypatch):
        _forbid(monkeypatch)
        with pytest.raises(AssertionError):
            np.unique(np.array([2, 1, 2]))
        with pytest.raises(AssertionError):
            np.lexsort((np.array([1, 0]),))
        values, counts = np.unique(np.array([2, 1, 2]), return_counts=True)
        assert values.tolist() == [1, 2] and counts.tolist() == [1, 2]

    def test_no_plain_np_unique_or_key_round_trip_in_src(self):
        """AST scan of ``src/repro``: every ``np.unique(`` call carries a
        ``return_*`` argument (dedup alone goes through ``sorted_unique``)
        and nothing feeds ``keys_to_edges`` / ``_edge_array`` rows back
        into ``from_edges``."""
        root = Path(repro.__file__).parent
        offenders = []
        for path in sorted(root.rglob("*.py")):
            if path.relative_to(root).as_posix() == "graph/keys.py":
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = getattr(func, "attr", getattr(func, "id", None))
                where = f"{path.relative_to(root)}:{node.lineno}"
                if (
                    name == "unique"
                    and isinstance(func, ast.Attribute)
                    and getattr(func.value, "id", None) in ("np", "numpy")
                    and not any(
                        (kw.arg or "").startswith("return_")
                        for kw in node.keywords
                    )
                ):
                    offenders.append(f"{where} plain np.unique")
                if name == "from_edges" and node.args:
                    inner = node.args[0]
                    inner_name = isinstance(inner, ast.Call) and getattr(
                        inner.func, "attr", getattr(inner.func, "id", None)
                    )
                    if inner_name in ("keys_to_edges", "_edge_array"):
                        offenders.append(f"{where} keys -> rows -> from_edges")
        assert not offenders, offenders
