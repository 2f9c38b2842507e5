"""Replication-table invariants under every registered ingress strategy.

``tests/test_replication.py`` pins the table down on hand-placed edges
and on the random vertex-cut; the engine, though, reads the same table
after any of the five partitioners.  Each test here checks one
structural property against a brute-force recomputation from the
partition itself, for every partitioner at two machine counts.
"""

import numpy as np
import pytest

from repro.cluster import ReplicationTable, make_partitioner
from repro.graph import twitter_like

GRAPH = twitter_like(n=240, seed=5)
PARTITIONERS = ("random", "oblivious", "grid", "hdrf", "stable-hash")
MACHINES = (3, 8)


@pytest.fixture(
    scope="module",
    params=[(name, p) for name in PARTITIONERS for p in MACHINES],
    ids=lambda param: f"{param[0]}-{param[1]}",
)
def table(request):
    name, machines = request.param
    partition = make_partitioner(name, seed=4).partition(GRAPH, machines)
    return ReplicationTable(GRAPH, partition, seed=0)


def _hosted_triples(table):
    """(src, dst, machine) of every edge, from the partition alone."""
    src = GRAPH.edge_sources().astype(np.int64)
    dst = GRAPH.indices.astype(np.int64)
    machine = table.partition.edge_machine.astype(np.int64)
    return np.column_stack([src, dst, machine])


def _sorted_rows(rows):
    return rows[np.lexsort(rows.T[::-1])]


def test_out_groups_partition_successors(table):
    for v in range(GRAPH.num_vertices):
        machines, targets = table.out_groups.split(v)
        assert np.all(np.diff(machines) > 0)
        grouped = np.sort(np.concatenate(targets)) if targets else []
        assert list(grouped) == sorted(GRAPH.successors(v).tolist())


def test_in_groups_partition_predecessors(table):
    for v in range(GRAPH.num_vertices):
        machines, sources = table.in_groups.split(v)
        assert np.all(np.diff(machines) > 0)
        grouped = np.sort(np.concatenate(sources)) if sources else []
        assert list(grouped) == sorted(GRAPH.predecessors(v).tolist())


def test_groups_sit_on_the_hosting_machine(table):
    """Every grouped edge carries the machine the partition placed it
    on, in both groupings: the (src, dst, machine) multisets agree."""
    expected = _sorted_rows(_hosted_triples(table))
    out, inn = table.out_groups, table.in_groups
    sizes = out.group_sizes()
    from_out = np.column_stack([
        out.edge_anchor(),
        out.sorted_other,
        np.repeat(out.group_machine, sizes).astype(np.int64),
    ])
    from_in = np.column_stack([
        inn.sorted_other,
        inn.edge_anchor(),
        np.repeat(inn.group_machine, inn.group_sizes()).astype(np.int64),
    ])
    np.testing.assert_array_equal(_sorted_rows(from_out), expected)
    np.testing.assert_array_equal(_sorted_rows(from_in), expected)


def test_replicas_are_the_incident_edge_machines(table):
    triples = _hosted_triples(table)
    expected = np.zeros((GRAPH.num_vertices, table.num_machines), dtype=bool)
    expected[triples[:, 0], triples[:, 2]] = True
    expected[triples[:, 1], triples[:, 2]] = True
    expected[~expected.any(axis=1), 0] = True
    np.testing.assert_array_equal(table.replica_matrix, expected)
    np.testing.assert_array_equal(table.replica_counts, expected.sum(axis=1))


def test_every_vertex_has_its_master_among_its_replicas(table):
    vertices = np.arange(GRAPH.num_vertices)
    assert table.replica_matrix[vertices, table.masters].all()
    assert (table.replica_counts - 1).min() >= 0


def test_masters_on_partitions_the_vertices(table):
    seen = []
    for machine in range(table.num_machines):
        mastered = table.masters_on(machine)
        np.testing.assert_array_equal(
            mastered, np.flatnonzero(table.masters == machine)
        )
        seen.append(mastered)
    assert sorted(np.concatenate(seen).tolist()) == list(range(GRAPH.num_vertices))
    assert table.replica_matrix[np.arange(GRAPH.num_vertices), table.masters].all()


def test_shared_components_round_trip(table):
    components = table.shared_components()
    assert not any(key.startswith("in.") for key in components)
    attached = ReplicationTable.from_shared_components(GRAPH, components)
    assert "in_groups" not in vars(attached)
    assert attached.structurally_equal(table)
    for machine in range(table.num_machines):
        np.testing.assert_array_equal(
            attached.masters_on(machine), table.masters_on(machine)
        )
