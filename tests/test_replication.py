"""Unit tests for master/mirror replication tables."""

import numpy as np
import pytest

from repro.cluster import EdgePartition, RandomVertexCut, ReplicationTable
from repro.errors import PartitionError
from repro.graph import from_edges


@pytest.fixture
def tiny_table():
    """Four vertices, hand-placed edges on 2 machines.

    Edges (CSR order): (0,1) m0, (0,2) m1, (1,2) m0, (2,3) m1, (3,0) m0.
    """
    graph = from_edges([(0, 1), (0, 2), (1, 2), (2, 3), (3, 0)])
    partition = EdgePartition(np.array([0, 1, 0, 1, 0]), num_machines=2)
    return graph, ReplicationTable(graph, partition, seed=0)


class TestPlacement:
    def test_replicas_from_incident_edges(self, tiny_table):
        graph, table = tiny_table
        # Vertex 0: edges (0,1)@m0, (0,2)@m1, (3,0)@m0 -> both machines.
        assert list(np.flatnonzero(table.replica_matrix[0])) == [0, 1]
        # Vertex 1: edges (0,1)@m0, (1,2)@m0 -> machine 0 only.
        assert list(np.flatnonzero(table.replica_matrix[1])) == [0]

    def test_master_is_a_replica(self, tiny_table):
        _, table = tiny_table
        for v in range(4):
            assert table.replica_matrix[v, table.masters[v]]

    def test_mirrors_exclude_master(self, tiny_table):
        _, table = tiny_table
        for v in range(4):
            replicas = np.flatnonzero(table.replica_matrix[v])
            mirrors = replicas[replicas != table.masters[v]]
            assert len(mirrors) == table.replica_counts[v] - 1

    def test_replica_counts(self, tiny_table):
        _, table = tiny_table
        assert list(table.replica_counts) == [2, 1, 2, 2]

    def test_replication_factor(self, tiny_table):
        _, table = tiny_table
        assert table.replication_factor() == pytest.approx(7 / 4)

    def test_masters_on_partition_of_vertices(self, tiny_table):
        _, table = tiny_table
        all_masters = np.concatenate(
            [table.masters_on(p) for p in range(2)]
        )
        assert sorted(all_masters.tolist()) == [0, 1, 2, 3]

    def test_mismatched_partition_rejected(self):
        graph = from_edges([(0, 1), (1, 0)])
        bad = EdgePartition(np.array([0]), num_machines=2)
        with pytest.raises(PartitionError, match="does not match"):
            ReplicationTable(graph, bad)


class TestEdgeGroups:
    def test_out_groups_partition_out_edges(self, tiny_table):
        graph, table = tiny_table
        for v in range(4):
            machines, targets = table.out_groups.split(v)
            grouped = np.sort(np.concatenate(targets)) if targets else []
            assert list(grouped) == sorted(graph.successors(v).tolist())
            assert len(set(machines.tolist())) == len(machines)

    def test_in_groups_partition_in_edges(self, tiny_table):
        graph, table = tiny_table
        for v in range(4):
            machines, sources = table.in_groups.split(v)
            grouped = np.sort(np.concatenate(sources)) if sources else []
            assert list(grouped) == sorted(graph.predecessors(v).tolist())

    def test_out_group_machines_host_the_edges(self, tiny_table):
        graph, table = tiny_table
        # Vertex 0 out-edges: (0,1)@m0, (0,2)@m1.
        machines, targets = table.out_groups.split(0)
        by_machine = {int(m): t.tolist() for m, t in zip(machines, targets)}
        assert by_machine == {0: [1], 1: [2]}

    def test_vertex_ptr_counts_out_groups(self, tiny_table):
        _, table = tiny_table
        counts = np.diff(table.out_groups.vertex_ptr)
        assert counts[0] == 2
        assert counts[1] == 1

    def test_edge_anchor_matches_ptr(self, small_twitter):
        part = RandomVertexCut(seed=1).partition(small_twitter, 4)
        table = ReplicationTable(small_twitter, part)
        anchor = table.out_groups.edge_anchor()
        assert anchor.size == small_twitter.num_edges
        counts = np.bincount(anchor, minlength=small_twitter.num_vertices)
        np.testing.assert_array_equal(
            counts, np.diff(table.out_groups.anchor_edge_ptr)
        )


class TestSyncRecordMatrix:
    def test_matches_bruteforce(self, small_twitter):
        part = RandomVertexCut(seed=2).partition(small_twitter, 4)
        table = ReplicationTable(small_twitter, part, seed=0)
        rng = np.random.default_rng(0)
        changed = rng.random(small_twitter.num_vertices) < 0.3

        records = table.sync_record_matrix(changed)
        expected = np.zeros((4, 4), dtype=np.int64)
        for v in np.flatnonzero(changed):
            master = table.masters[v]
            for mirror in np.flatnonzero(table.replica_matrix[v]):
                if mirror != master:
                    expected[master, mirror] += 1
        np.testing.assert_array_equal(records, expected)

    def test_no_changes_no_records(self, small_twitter):
        part = RandomVertexCut(seed=2).partition(small_twitter, 4)
        table = ReplicationTable(small_twitter, part)
        records = table.sync_record_matrix(
            np.zeros(small_twitter.num_vertices, dtype=bool)
        )
        assert records.sum() == 0
