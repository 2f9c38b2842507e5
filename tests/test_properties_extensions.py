"""Property-based tests (hypothesis) for the extension subsystems:
dynamic graphs, top-k set overlap and the stable hash ingress."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import make_partitioner
from repro.dynamic import DynamicDiGraph, GraphDelta
from repro.graph import from_edges
from repro.metrics import top_k_jaccard

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

edge_lists = st.lists(
    st.tuples(st.integers(0, 14), st.integers(0, 14)),
    min_size=1,
    max_size=80,
)

# ---------------------------------------------------------------------------
# DynamicDiGraph invariants
# ---------------------------------------------------------------------------


@given(edge_lists, edge_lists)
@settings(max_examples=50, deadline=None)
def test_dynamic_add_then_remove_roundtrip(initial, extra):
    """Adding a batch and removing exactly what was new restores the
    original edge set."""
    graph = DynamicDiGraph(15, initial)
    before = graph.edge_keys().copy()
    fresh = [
        (u, v) for u, v in extra if not graph.has_edge(u, v)
    ]
    added = graph.add_edges(extra)
    assert added == len(set(fresh))
    removed = graph.remove_edges(fresh)
    assert removed == added
    assert np.array_equal(graph.edge_keys(), before)


@given(edge_lists)
@settings(max_examples=50, deadline=None)
def test_dynamic_snapshot_matches_edge_set(edges):
    graph = DynamicDiGraph(15, edges)
    snapshot = graph.snapshot(repair_dangling="none")
    assert snapshot.num_edges == graph.num_edges
    assert np.array_equal(snapshot.edge_keys(), graph.edge_keys())


@given(edge_lists, edge_lists)
@settings(max_examples=50, deadline=None)
def test_dynamic_apply_counts_are_consistent(initial, batch):
    graph = DynamicDiGraph(15, initial)
    m0 = graph.num_edges
    delta = GraphDelta(added=batch)
    added, removed = graph.apply(delta)
    assert removed == 0
    assert graph.num_edges == m0 + added


# ---------------------------------------------------------------------------
# Top-k set overlap invariants
# ---------------------------------------------------------------------------


@given(
    st.lists(st.integers(0, 50), min_size=0, max_size=20),
    st.lists(st.integers(0, 50), min_size=0, max_size=20),
)
@settings(max_examples=60, deadline=None)
def test_top_k_jaccard_bounds_and_symmetry(a, b):
    a_arr, b_arr = np.array(a), np.array(b)
    value = top_k_jaccard(a_arr, b_arr)
    assert 0.0 <= value <= 1.0
    assert value == top_k_jaccard(b_arr, a_arr)


# ---------------------------------------------------------------------------
# Stable hash ingress invariants
# ---------------------------------------------------------------------------


@given(edge_lists, st.integers(1, 8), st.integers(0, 5))
@settings(max_examples=40, deadline=None)
def test_stable_hash_placement_in_range_and_deterministic(
    edges, machines, seed
):
    graph = from_edges(edges)
    a, b = (
        make_partitioner("stable-hash", seed).partition(graph, machines)
        for _ in range(2)
    )
    assert np.array_equal(a.edge_machine, b.edge_machine)
    assert a.edge_machine.min(initial=0) >= 0
    assert a.edge_machine.max(initial=0) < machines
