"""Incremental ingress maintenance: equivalence, reuse, rebalancing.

The load-bearing invariant: after *any* sequence of deltas, the
maintained placement is byte-identical to a from-scratch
``make_partitioner("stable-hash", salt)`` placement of the current
snapshot's edge set under the ingress's current salt — incremental
maintenance never drifts.
"""

import numpy as np
import pytest

from repro.cluster import (
    StableHashVertexCut,
    make_partitioner,
    stable_hash_machines,
)
from repro.dynamic import ChurnGenerator, DynamicDiGraph, GraphDelta
from repro.errors import ConfigError
from repro.graph import twitter_like
from repro.live import IncrementalIngress
from repro.store import keys_to_edges


def make_dynamic(n=400, seed=3):
    return DynamicDiGraph.from_digraph(twitter_like(n=n, seed=seed))


def assert_matches_from_scratch(ingress, graph):
    """Maintained placement == from-scratch stable hash of the snapshot."""
    snapshot = graph.snapshot()
    expected = make_partitioner("stable-hash", ingress.salt).partition(
        snapshot, ingress.num_machines
    )
    actual = ingress.partition_for(snapshot)
    np.testing.assert_array_equal(
        actual.edge_machine, expected.edge_machine
    )


class TestEquivalence:
    def test_matches_from_scratch_after_random_delta_sequences(self):
        graph = make_dynamic()
        ingress = IncrementalIngress(graph, 8, seed=5)
        churn = ChurnGenerator(add_rate=0.05, remove_rate=0.05, seed=7)
        for _ in range(6):
            ingress.apply(churn.step(graph))
            assert_matches_from_scratch(ingress, graph)

    def test_matches_after_noop_and_overlapping_deltas(self):
        graph = make_dynamic(n=60, seed=1)
        ingress = IncrementalIngress(graph, 4, seed=2)
        edges = keys_to_edges(graph.edge_keys(), graph.num_vertices)
        existing = tuple(edges[0])
        # Re-adding an existing edge, removing a missing one, and an
        # atomic rewire (remove + re-add elsewhere) in one delta.
        deltas = [
            GraphDelta(added=[existing]),
            GraphDelta(removed=[(existing[0], (existing[1] + 1) % 60)]),
            GraphDelta(removed=[existing], added=[(existing[0], 59)]),
            GraphDelta(),
        ]
        for delta in deltas:
            ingress.apply(delta)
            assert_matches_from_scratch(ingress, graph)

    def test_sync_reconciles_externally_applied_churn(self):
        graph = make_dynamic()
        ingress = IncrementalIngress(graph, 8, seed=0)
        churn = ChurnGenerator(seed=4)
        for _ in churn.stream(graph, steps=3, apply=True):
            pass
        update = ingress.sync()
        assert update.new_placements > 0
        assert_matches_from_scratch(ingress, graph)

    def test_repair_self_loops_hash_like_everything_else(self):
        """Snapshot-added dangling repairs are not in the live edge set;
        they must still place identically to the from-scratch hash."""
        graph = DynamicDiGraph(10, [(0, 1), (1, 2)])
        ingress = IncrementalIngress(graph, 4, seed=1)
        snapshot = graph.snapshot()  # adds self-loops for 2..9
        assert snapshot.num_edges > graph.num_edges
        assert_matches_from_scratch(ingress, graph)


class TestReuse:
    def test_small_deltas_reuse_at_least_80_percent(self):
        """The acceptance bar: incremental refresh reuses >= 80% of edge
        placements on small (1%-churn) deltas."""
        graph = make_dynamic(n=500, seed=9)
        ingress = IncrementalIngress(graph, 8, seed=0)
        churn = ChurnGenerator(add_rate=0.01, remove_rate=0.01, seed=1)
        for _ in range(5):
            update = ingress.apply(churn.step(graph))
            assert update.reuse_ratio >= 0.8
        placed = ingress.reused_placements + ingress.new_placements
        assert ingress.reused_placements / placed >= 0.8

    def test_surviving_edges_keep_their_machine(self):
        graph = make_dynamic(n=200, seed=2)
        ingress = IncrementalIngress(graph, 6, seed=3)
        before = {
            tuple(edge): machine
            for edge, machine in zip(
                keys_to_edges(graph.edge_keys(), graph.num_vertices).tolist(),
                ingress.partition().edge_machine.tolist(),
            )
        }
        churn = ChurnGenerator(add_rate=0.02, remove_rate=0.02, seed=5)
        ingress.apply(churn.step(graph))
        after = {
            tuple(edge): machine
            for edge, machine in zip(
                keys_to_edges(graph.edge_keys(), graph.num_vertices).tolist(),
                ingress.partition().edge_machine.tolist(),
            )
        }
        survivors = set(before) & set(after)
        assert survivors
        for edge in survivors:
            assert before[edge] == after[edge]

    def test_two_ingresses_same_seed_agree(self):
        graph_a = make_dynamic(seed=6)
        graph_b = make_dynamic(seed=6)
        a = IncrementalIngress(graph_a, 8, seed=11)
        b = IncrementalIngress(graph_b, 8, seed=11)
        churn_a = ChurnGenerator(seed=8)
        churn_b = ChurnGenerator(seed=8)
        for _ in range(3):
            a.apply(churn_a.step(graph_a))
            b.apply(churn_b.step(graph_b))
        np.testing.assert_array_equal(
            a.partition().edge_machine, b.partition().edge_machine
        )

    def test_distinct_seeds_place_independently(self):
        graph = make_dynamic(seed=6)
        a = IncrementalIngress(graph, 8, seed=1)
        b = IncrementalIngress(graph, 8, seed=2)
        assert not np.array_equal(
            a.partition().edge_machine, b.partition().edge_machine
        )


class TestRebalanceFallback:
    def test_imbalance_past_threshold_triggers_full_repartition(self):
        graph = make_dynamic(n=200, seed=4)
        ingress = IncrementalIngress(
            graph, 8, seed=0, rebalance_threshold=1.0001
        )
        # Any realistic hash placement exceeds a 1.0001 max/mean bound.
        update = ingress.apply(GraphDelta(added=[(0, 199)]))
        assert update.full_repartition
        assert update.reuse_ratio == 0.0
        assert update.new_placements == update.num_edges
        assert ingress.full_repartitions == 1
        assert ingress.salt != ingress.seed
        assert_matches_from_scratch(ingress, graph)

    def test_disabled_threshold_never_repartitions(self):
        graph = make_dynamic(n=200, seed=4)
        ingress = IncrementalIngress(
            graph, 8, seed=0, rebalance_threshold=None
        )
        churn = ChurnGenerator(seed=3)
        for _ in range(3):
            ingress.apply(churn.step(graph))
        assert ingress.full_repartitions == 0
        assert ingress.salt == ingress.seed

    def test_threshold_validation(self):
        graph = make_dynamic(n=60, seed=1)
        with pytest.raises(ConfigError):
            IncrementalIngress(graph, 4, rebalance_threshold=1.0)
        with pytest.raises(ConfigError):
            IncrementalIngress(graph, 0)


class TestStableHashPartitioner:
    """The promoted cluster-layer primitive the ingress is built on."""

    def test_registered_with_the_factory(self):
        partitioner = make_partitioner("stable-hash", 7)
        assert isinstance(partitioner, StableHashVertexCut)
        assert partitioner.name == "stable-hash"

    def test_key_level_helper_matches_graph_level(self):
        graph = twitter_like(n=300, seed=5)
        n = graph.num_vertices
        keys = graph.edge_sources().astype(np.int64) * n + graph.indices
        np.testing.assert_array_equal(
            stable_hash_machines(keys, 6, seed=7),
            make_partitioner("stable-hash", 7).partition(graph, 6).edge_machine,
        )

    def test_seed_changes_placement(self):
        graph = twitter_like(n=300, seed=5)
        a, b = (
            make_partitioner("stable-hash", seed).partition(graph, 8)
            for seed in (1, 2)
        )
        assert not np.array_equal(a.edge_machine, b.edge_machine)

    def test_surviving_edges_keep_machines(self):
        """The stability property: placement is a pure edge function,
        so an edge that survives churn keeps its machine."""
        graph = make_dynamic(n=400, seed=5)
        partitioner = make_partitioner("stable-hash", 0)

        def placement():
            snapshot = graph.snapshot()
            machines = partitioner.partition(snapshot, 6).edge_machine
            edges = keys_to_edges(snapshot.edge_keys(), snapshot.num_vertices)
            return {(int(u), int(v)): int(m) for (u, v), m in zip(edges, machines)}

        before = placement()
        graph.apply(
            ChurnGenerator(add_rate=0.05, remove_rate=0.05, seed=0).step(graph)
        )
        after = placement()
        survivors = before.keys() & after.keys()
        assert 0 < len(survivors) < len(before)
        assert all(before[edge] == after[edge] for edge in survivors)

    def test_none_seed_degrades_to_zero(self):
        keys = np.arange(100, dtype=np.int64)
        np.testing.assert_array_equal(
            stable_hash_machines(keys, 4, seed=None),
            stable_hash_machines(keys, 4, seed=0),
        )
