"""A refresh derives each O(m) artifact once — and derives the same one.

* ``IncrementalIngress.partition_for(snapshot)`` takes the placement
  ``sync()`` already hashed and hashes only the snapshot's repair
  self-loops; it must stay a from-scratch stable hash
  (``stable_hash_machines``) of the snapshot's edge keys under the
  current salt, whatever the snapshot.
* ``ReplicationTable`` groups the out-edges with two counting-sort
  passes, fills the replica bitmap from those groups plus one scatter
  of the targets, and builds the gather grouping only when asked; the
  table must stay ``structurally_equal``, dtypes included, to the
  construction it replaced (one ``np.lexsort`` per grouping, the
  bitmap scattered from the edges), kept here as
  :func:`_reference_table`, the oracle — and reach no ``np.argsort`` /
  ``np.lexsort`` doing it.
"""

import numpy as np
import pytest

from repro.cluster import ReplicationTable, make_partitioner, stable_hash_machines
from repro.cluster.replication import _GroupedEdges
from repro.dynamic import DynamicDiGraph, GraphDelta
from repro.errors import ConfigError
from repro.graph import DiGraph, from_edges, rmat, twitter_like
from repro.live import IncrementalIngress
from repro.store import SegmentStore


# ----------------------------------------------------------------------
# partition_for
# ----------------------------------------------------------------------
def _assert_from_scratch(ingress, snapshot):
    # Keyed in CSR order, edgeless snapshots included.
    n = snapshot.num_vertices
    keys = snapshot.edge_sources().astype(np.int64) * n + snapshot.indices
    expected = stable_hash_machines(keys, ingress.num_machines, ingress.salt)
    actual = ingress.partition_for(snapshot)
    assert actual.num_machines == ingress.num_machines
    assert actual.edge_machine.dtype == expected.dtype
    assert np.array_equal(actual.edge_machine, expected)


def _chain(n, loops=()):
    """0 -> 1 -> ... -> n-1 -> 0 plus real self-loops at ``loops``."""
    edges = [(v, (v + 1) % n) for v in range(n)]
    return DynamicDiGraph(n, edges + [(v, v) for v in loops])


def _strand(graph, vertices):
    """Remove every out-edge of ``vertices``: the snapshot repairs them."""
    rows = graph._edge_array()
    graph.apply(GraphDelta(removed=rows[np.isin(rows[:, 0], vertices)]))


class TestPartitionFor:
    @pytest.mark.parametrize(
        "stranded",
        [[], [7], list(range(0, 40, 3))],
        ids=["no-repair-loops", "one-repair-loop", "many-repair-loops"],
    )
    @pytest.mark.parametrize("repair", ["self-loop", "none"])
    def test_matches_a_from_scratch_hash(self, stranded, repair):
        graph = _chain(40, loops=[5, 6, 12])  # 6 and 12 get stranded too
        ingress = IncrementalIngress(graph, 4, seed=3)
        _strand(graph, stranded)
        ingress.sync()
        snapshot = graph.snapshot(repair)
        repaired = snapshot.num_edges - graph.num_edges
        assert repaired == (len(stranded) if repair == "self-loop" else 0)
        _assert_from_scratch(ingress, snapshot)

    def test_hashes_only_the_repair_loops(self, monkeypatch):
        import repro.live.ingress as module

        graph = _chain(40, loops=[5])
        ingress = IncrementalIngress(graph, 4, seed=3)
        _strand(graph, [7, 9])
        ingress.sync()
        snapshot = graph.snapshot()
        sizes = []
        real = module.stable_hash_machines

        def counted(keys, *args):
            sizes.append(int(np.size(keys)))
            return real(keys, *args)

        monkeypatch.setattr(module, "stable_hash_machines", counted)
        ingress.partition_for(snapshot)
        ingress.partition_for(snapshot)
        assert sizes == [2, 2]  # the two repair loops, never the 39 keys

    def test_follows_a_re_salt(self):
        graph = DynamicDiGraph.from_digraph(twitter_like(n=300, seed=4))
        ingress = IncrementalIngress(
            graph, 8, seed=1, rebalance_threshold=1.0 + 1e-9
        )
        before = ingress.partition().edge_machine.copy()
        _strand(graph, [3, 4])
        update = ingress.sync()
        assert update.full_repartition and ingress.salt != 1
        assert update.load_imbalance == ingress.load_imbalance()
        _assert_from_scratch(ingress, graph.snapshot())
        kept = ingress.partition().edge_machine
        assert kept.size != before.size or not np.array_equal(kept, before)
        assert ingress.partition() is ingress.partition()  # hashed once
        with pytest.raises(ValueError, match="read-only"):
            kept[0] = 0  # ... and shared, so nobody may write it

    @pytest.mark.parametrize("repair", ["self-loop", "none"])
    def test_edgeless_snapshot(self, repair):
        graph = DynamicDiGraph(6)
        ingress = IncrementalIngress(graph, 3, seed=0)
        assert ingress.sync().reuse_ratio == 1.0
        snapshot = graph.snapshot(repair)
        assert snapshot.num_edges == (6 if repair == "self-loop" else 0)
        _assert_from_scratch(ingress, snapshot)

    def test_a_snapshot_of_other_keys_is_still_placed_from_scratch(self):
        """The ingress has not synced the edit the snapshot contains, and
        a hand-built graph's rows are not even sorted: neither may take
        the synced placement."""
        graph = _chain(12)
        ingress = IncrementalIngress(graph, 4, seed=2)
        graph.apply(GraphDelta(added=[(3, 9), (0, 5)], removed=[(4, 5)]))
        _assert_from_scratch(ingress, graph.snapshot())  # stale ingress
        ingress.sync()
        _assert_from_scratch(ingress, graph.snapshot())
        unsorted = DiGraph(np.arange(13), (np.arange(12) + 1) % 12)
        shuffled = DiGraph(np.array([0, 2] + [2] * 11), np.array([7, 3]))
        for foreign in (unsorted, shuffled):
            _assert_from_scratch(ingress, foreign)
        with pytest.raises(ConfigError):
            ingress.partition_for(from_edges([(0, 1), (1, 0)], 2))

    def test_store_backed_ingresses_share_one_key_array(self, tmp_path):
        graph = twitter_like(n=200, seed=6)
        store = SegmentStore.create(tmp_path / "s", source=graph, segment_edges=256)
        ingresses = [IncrementalIngress(store, 4, seed=s) for s in (0, 1)]
        store.apply(GraphDelta(removed=graph._edge_array()[:5]))
        updates = [ingress.sync() for ingress in ingresses]
        assert ingresses[0]._keys is ingresses[1]._keys is store.edge_keys()
        assert [u.removed_placements for u in updates] == [5, 5]
        assert [u.reused_placements for u in updates] == [store.num_edges] * 2
        again = ingresses[0].sync()  # unchanged store: the identity shortcut
        assert again.reuse_ratio == 1.0 and again.removed_placements == 0
        snapshot = store.snapshot()
        for ingress in ingresses:
            _assert_from_scratch(ingress, snapshot)


# ----------------------------------------------------------------------
# ReplicationTable vs the construction it replaced
# ----------------------------------------------------------------------
def _reference_groups(anchor, machine, other, n):
    """``_GroupedEdges`` as built before the counting sorts: one
    lexsort per grouping, every array derived from the sorted edges.
    Every array is int32: machine ids always, and the index arrays
    because every test graph's values fit (the table's narrowing rule)."""
    order = np.lexsort((machine, anchor))
    anchor, machine = anchor[order], machine[order]
    pairs = anchor * (int(machine.max()) + 1 if machine.size else 1) + machine
    starts = np.flatnonzero(np.r_[True, pairs[1:] != pairs[:-1]][: pairs.size])
    vertex_ptr = np.r_[0, np.cumsum(np.bincount(anchor[starts], minlength=n))]
    edge_ptr = np.r_[0, np.cumsum(np.bincount(anchor, minlength=n))]
    return {
        "group_machine": machine[starts].astype(np.int32),
        "group_anchor": anchor[starts].astype(np.int32),
        "group_start": starts.astype(np.int32),
        "group_stop": np.r_[starts[1:], anchor.size].astype(np.int32),
        "vertex_ptr": vertex_ptr.astype(np.int32),
        "anchor_edge_ptr": edge_ptr.astype(np.int32),
        "sorted_other": other[order].astype(np.int32),
        "edge_machine_sorted": machine.astype(np.int32),
    }


def _reference_table(graph, partition, seed):
    n, machines = graph.num_vertices, partition.num_machines
    src, dst = graph.edge_sources(), graph.indices
    machine = partition.edge_machine.astype(np.int32)
    replicas = np.zeros((n, machines), dtype=bool)
    replicas[src, machine] = True
    replicas[dst, machine] = True
    replicas[~replicas.any(axis=1), 0] = True
    noise = np.random.default_rng([101, seed]).random((n, machines))
    noise[~replicas] = -1.0
    arrays = {
        "masters": np.argmax(noise, axis=1).astype(np.int32),
        "replicas": replicas,
        "edge_machine": partition.edge_machine,
    }
    for prefix, (anchor, other) in (("out", (src, dst)), ("in", (dst, src))):
        groups = _reference_groups(anchor, machine, other, n)
        assert set(groups) == set(_GroupedEdges.__slots__)
        arrays.update({f"{prefix}.{slot}": a for slot, a in groups.items()})
    return ReplicationTable.from_shared_components(graph, arrays)


def _with_isolated_vertices():
    """Vertices 3, 8 and 9 touch no edge (repair disabled)."""
    return from_edges(
        [(0, 1), (1, 2), (2, 0), (4, 5), (5, 4), (6, 7), (7, 6), (0, 4)],
        10,
        repair_dangling="none",
    )


GRAPHS = {
    "rmat": lambda: rmat(scale=9, edge_factor=8, seed=5),
    "twitter_like": lambda: twitter_like(n=600, seed=9),
    "isolated-vertices": _with_isolated_vertices,
}


def _assert_same_groups(groups, expected):
    for slot, array in expected.items():
        built = getattr(groups, slot)
        assert built.dtype == array.dtype, slot
        assert np.array_equal(built, array), slot


class TestSharedMachinePass:
    @pytest.mark.parametrize("machines", [1, 5, 16])
    @pytest.mark.parametrize("name", GRAPHS)
    def test_structurally_equal_to_the_per_grouping_build(self, name, machines):
        graph = GRAPHS[name]()
        partition = make_partitioner("stable-hash", 11).partition(graph, machines)
        table = ReplicationTable(graph, partition, seed=7)
        assert "in_groups" not in vars(table)  # built on first access
        reference = _reference_table(graph, partition, 7)
        assert table.structurally_equal(reference)
        assert reference.structurally_equal(table)
        for prefix, groups in (("out", table.out_groups), ("in", table.in_groups)):
            _assert_same_groups(
                groups, getattr(reference, f"{prefix}_groups").as_arrays()
            )
        for slot in ("masters", "_replicas", "replica_counts"):
            assert getattr(table, slot).dtype == getattr(reference, slot).dtype

    def test_isolated_vertices_are_pinned_to_machine_zero(self):
        graph = _with_isolated_vertices()
        table = ReplicationTable(
            graph, make_partitioner("stable-hash", 0).partition(graph, 4), seed=1
        )
        for lonely in (3, 8, 9):
            assert np.flatnonzero(table.replica_matrix[lonely]).tolist() == [0]
            assert table.masters[lonely] == 0
            assert table.out_groups.split(lonely)[0].size == 0
        assert table.replica_counts.min() == 1

    def test_wide_machine_ids_take_every_digit_pass(self):
        """Machine ids past 16 bits are one more column of the same
        counting sort, whichever integer type carries them."""
        graph = twitter_like(n=200, seed=1)
        machines = 2**16 + 9
        rng = np.random.default_rng(0)
        machine = rng.integers(0, machines, size=graph.num_edges)
        machine[-1] = machines - 1
        assert machine.dtype == np.int64
        src, dst, n = graph.edge_sources(), graph.indices, graph.num_vertices
        for anchor, key, other in (("src", src, dst), ("dst", dst, src)):
            for given in (machine, machine.astype(np.int32)):
                groups = _GroupedEdges(graph, given, machines, anchor)
                _assert_same_groups(
                    groups, _reference_groups(key, machine, other, n)
                )

    def test_a_table_build_reaches_no_comparison_sort(self, monkeypatch):
        """Call counts, not a clock: building a table — and then its
        gather grouping — calls neither ``np.argsort`` nor ``np.lexsort``."""
        graph = twitter_like(n=300, seed=2)
        partition = make_partitioner("stable-hash", 3).partition(graph, 8)
        reference = _reference_table(graph, partition, 5)
        calls = []

        def counted(name, real):
            def call(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)

            return call

        for name in ("argsort", "lexsort"):
            monkeypatch.setattr(np, name, counted(name, getattr(np, name)))
        table = ReplicationTable(graph, partition, seed=5)
        table.in_groups
        assert calls == []
        assert table.structurally_equal(reference)
        np.argsort(np.arange(3)), np.lexsort((np.arange(3),))
        assert calls == ["argsort", "lexsort"]  # the counter can fail
