"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

from repro.cluster import EdgePartition, ReplicationTable
from repro.core import FrogWildConfig, PageRankEstimate, run_frogwild, top_k_indices
from repro.graph import from_edges
from repro.metrics import (
    exact_identification,
    mass_captured,
    normalized_mass_captured,
    optimal_mass,
)
from repro.pagerank import exact_pagerank

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

edge_lists = st.lists(
    st.tuples(st.integers(0, 19), st.integers(0, 19)),
    min_size=1,
    max_size=120,
)

distributions = npst.arrays(
    np.float64,
    st.integers(3, 40),
    elements=st.floats(1e-6, 1.0),
).map(lambda a: a / a.sum())


# ---------------------------------------------------------------------------
# Graph builder invariants
# ---------------------------------------------------------------------------


@given(edge_lists)
@settings(max_examples=60, deadline=None)
def test_builder_output_is_valid_csr(edges):
    g = from_edges(edges)
    assert g.indptr[0] == 0
    assert g.indptr[-1] == g.num_edges
    assert np.all(np.diff(g.indptr) >= 0)
    if g.num_edges:
        assert g.indices.min() >= 0
        assert g.indices.max() < g.num_vertices


@given(edge_lists)
@settings(max_examples=60, deadline=None)
def test_builder_idempotent_on_own_output(edges):
    g = from_edges(edges)
    again = from_edges(list(g.edges()), num_vertices=g.num_vertices)
    assert again == g


@given(edge_lists)
@settings(max_examples=60, deadline=None)
def test_builder_no_dangling_with_default_repair(edges):
    g = from_edges(edges)
    assert g.dangling_vertices().size == 0


@given(edge_lists)
@settings(max_examples=40, deadline=None)
def test_successors_sorted_and_unique(edges):
    g = from_edges(edges)
    for v in range(g.num_vertices):
        succ = g.successors(v)
        assert np.all(np.diff(succ) > 0)


# ---------------------------------------------------------------------------
# Top-k selection
# ---------------------------------------------------------------------------


@given(
    npst.arrays(np.float64, st.integers(1, 50), elements=st.floats(0, 1)),
    st.integers(0, 60),
)
@settings(max_examples=80, deadline=None)
def test_top_k_properties(values, k):
    chosen = top_k_indices(values, k)
    assert chosen.size == min(k, values.size)
    assert chosen.size == np.unique(chosen).size
    if chosen.size:
        worst_chosen = values[chosen].min()
        not_chosen = np.setdiff1d(np.arange(values.size), chosen)
        if not_chosen.size:
            assert worst_chosen >= values[not_chosen].max() - 1e-12
        # Returned in non-increasing order of value.
        assert np.all(np.diff(values[chosen]) <= 1e-12)


# ---------------------------------------------------------------------------
# Metric invariants
# ---------------------------------------------------------------------------


@given(distributions, distributions, st.integers(1, 10))
@settings(max_examples=80, deadline=None)
def test_mass_captured_bounds(estimate, truth, k):
    if estimate.size != truth.size:
        truth = np.resize(truth, estimate.size)
        truth = truth / truth.sum()
    value = mass_captured(estimate, truth, k)
    assert 0.0 <= value <= 1.0 + 1e-12
    assert value <= optimal_mass(truth, k) + 1e-12
    assert normalized_mass_captured(estimate, truth, k) <= 1.0 + 1e-9


@given(distributions, st.integers(1, 10))
@settings(max_examples=40, deadline=None)
def test_self_estimates_are_perfect(truth, k):
    assert normalized_mass_captured(truth, truth, k) == 1.0
    assert exact_identification(truth, truth, k) == 1.0


# ---------------------------------------------------------------------------
# Estimator invariants
# ---------------------------------------------------------------------------


@given(
    npst.arrays(np.int64, st.integers(1, 30), elements=st.integers(0, 100)),
    st.integers(1, 10_000),
)
@settings(max_examples=60, deadline=None)
def test_estimate_normalization(counts, frogs):
    est = PageRankEstimate(counts, num_frogs=frogs)
    np.testing.assert_allclose(est.distribution().sum(), 1.0)
    np.testing.assert_allclose(est.vector().sum() * frogs, counts.sum())


# ---------------------------------------------------------------------------
# Partition / replication invariants
# ---------------------------------------------------------------------------


@given(edge_lists, st.integers(1, 6), st.integers(0, 5))
@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_replication_covers_every_edge(edges, machines, seed):
    g = from_edges(edges)
    rng = np.random.default_rng(seed)
    placement = rng.integers(0, machines, size=g.num_edges, dtype=np.int32)
    table = ReplicationTable(g, EdgePartition(placement, machines), seed=seed)
    # Every edge's endpoints are replicated on its hosting machine.
    src = g.edge_sources()
    for e in range(g.num_edges):
        p = placement[e]
        assert table.replica_matrix[src[e], p]
        assert table.replica_matrix[g.indices[e], p]
    # Masters are valid replicas and replication factor >= 1.
    for v in range(g.num_vertices):
        assert table.replica_matrix[v, table.masters[v]]
    assert table.replication_factor() >= 1.0


# ---------------------------------------------------------------------------
# End-to-end FrogWild invariants
# ---------------------------------------------------------------------------


@given(
    st.integers(0, 1000),
    st.sampled_from([0.0, 0.3, 0.7, 1.0]),
    st.integers(1, 5),
)
@settings(max_examples=12, deadline=None)
def test_frogwild_conserves_and_reports(seed, ps, iterations):
    g = from_edges([(i, (i + j) % 12) for i in range(12) for j in (1, 2, 5)])
    config = FrogWildConfig(
        num_frogs=300, iterations=iterations, ps=ps, seed=seed
    )
    result = run_frogwild(g, config, num_machines=3)
    assert result.estimate.total_stopped == 300
    assert result.report.supersteps == iterations
    assert result.report.network_bytes >= 0
    dist = result.estimate.distribution()
    np.testing.assert_allclose(dist.sum(), 1.0)


@given(st.integers(0, 50))
@settings(max_examples=10, deadline=None)
def test_frogwild_estimate_is_distribution_on_random_graphs(seed):
    rng = np.random.default_rng(seed)
    n = 30
    edges = np.column_stack(
        [rng.integers(0, n, size=150), rng.integers(0, n, size=150)]
    )
    g = from_edges(edges, num_vertices=n)
    truth = exact_pagerank(g)
    result = run_frogwild(
        g,
        FrogWildConfig(num_frogs=2000, iterations=6, seed=seed),
        num_machines=2,
    )
    mass = normalized_mass_captured(result.estimate.vector(), truth, 5)
    assert mass > 0.3  # loose sanity: far above random choice
