"""Property and regression tests for the batched FrogWild kernel.

Three families of guarantees pin the kernel down:

* **invariants** (property-based, via hypothesis): frog conservation in
  multinomial scatter mode, non-negative estimates summing to at most 1,
  per-population cost attribution summing exactly to the shared totals;
* **B=1 equivalence**: :func:`repro.core.run_frogwild` and a
  single-query batch are bit-identical — estimate *and* report numerics
  — to the standalone runner they replaced, pinned as data
  (``batch_reference.py``), so the one superstep can never drift from
  the validated single-query kernel;
* **behaviour**: config-mixing rules, early termination, amortization.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from batch_reference import assert_lanes_match_standalone, assert_run_pinned
from repro.cluster import ReplicationTable, make_partitioner
from repro.core import (
    BatchQuery,
    FrogWildConfig,
    run_frogwild,
    run_frogwild_batch,
    run_personalized_frogwild,
)
from repro.engine import build_cluster
from repro.errors import ConfigError
from repro.graph import twitter_like

GRAPH = twitter_like(n=600, seed=13)


def _batch(queries, machines=4, **config_kwargs):
    defaults = dict(num_frogs=1500, iterations=4, seed=7)
    defaults.update(config_kwargs)
    return run_frogwild_batch(
        GRAPH, queries, FrogWildConfig(**defaults), num_machines=machines
    )


class TestInvariants:
    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        ps=st.sampled_from([0.0, 0.2, 0.5, 0.8, 1.0]),
        batch_size=st.integers(1, 5),
        num_frogs=st.integers(1, 3_000),
        iterations=st.integers(1, 6),
    )
    def test_multinomial_conserves_frogs(
        self, seed, ps, batch_size, num_frogs, iterations
    ):
        """Total stopped frogs equal the launched budget, per population."""
        queries = [BatchQuery(seed=seed + lane) for lane in range(batch_size)]
        result = _batch(
            queries,
            seed=seed,
            ps=ps,
            num_frogs=num_frogs,
            iterations=iterations,
        )
        for lane in result.results:
            assert lane.estimate.total_stopped == num_frogs

    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        ps=st.sampled_from([0.1, 0.6, 1.0]),
        batch_size=st.integers(1, 4),
    )
    def test_estimates_are_distributions(self, seed, ps, batch_size):
        """Estimates are non-negative and sum to at most 1."""
        queries = [BatchQuery(seed=seed + lane) for lane in range(batch_size)]
        result = _batch(queries, seed=seed, ps=ps)
        for lane in result.results:
            vector = lane.estimate.vector()
            assert vector.min() >= 0.0
            assert vector.sum() <= 1.0 + 1e-12

    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        batch_size=st.integers(2, 5),
        erasure=st.sampled_from(["at-least-one", "independent"]),
    )
    def test_cost_attribution_sums_to_shared_totals(
        self, seed, batch_size, erasure
    ):
        """Per-population CPU attribution is an exact partition of the
        shared execution's total; attributed bytes dominate shared bytes
        (headers amortize, records never vanish)."""
        queries = [
            BatchQuery(seed=seed + lane, ps=(0.3 + 0.15 * lane))
            for lane in range(batch_size)
        ]
        result = _batch(queries, seed=seed, ps=0.7, erasure_model=erasure)
        total_cpu = sum(lane.report.cpu_seconds for lane in result.results)
        assert total_cpu == pytest.approx(result.report.cpu_seconds, abs=1e-12)
        assert result.attributed_network_bytes() >= result.report.network_bytes
        assert 0.0 < result.amortization_ratio() <= 1.0

    def test_conservation_under_mixed_ps_and_budgets(self):
        queries = [
            BatchQuery(num_frogs=500, ps=0.0),
            BatchQuery(num_frogs=2000, ps=1.0),
            BatchQuery(num_frogs=1250, ps=0.4, seed=99),
        ]
        result = _batch(queries)
        for query, lane in zip(queries, result.results):
            assert lane.estimate.total_stopped == query.num_frogs
            assert lane.estimate.num_frogs == query.num_frogs

    def test_binomial_mode_runs_and_stays_nonnegative(self):
        result = _batch(
            [BatchQuery(seed=s) for s in (1, 2)],
            scatter_mode="binomial",
            ps=0.8,
        )
        for lane in result.results:
            assert lane.estimate.counts.min() >= 0


_CONFIGS = [
    dict(num_frogs=2000, iterations=4, seed=7),
    dict(num_frogs=1500, iterations=5, seed=3, ps=0.6),
    dict(num_frogs=1000, iterations=4, seed=9, ps=0.3,
         erasure_model="independent"),
    dict(num_frogs=1200, iterations=4, seed=11, scatter_mode="binomial",
         ps=0.8),
    dict(num_frogs=1200, iterations=6, seed=5, ps=0.0),
]
_PERSONAL_CONFIG = FrogWildConfig(num_frogs=1500, iterations=6, seed=2, ps=0.7)
_PERSONAL_SEEDS = np.array([3, 77, 140])
_SEQUENTIAL_CONFIG = FrogWildConfig(num_frogs=1000, iterations=4, seed=0, ps=0.8)
_SEQUENTIAL_SEEDS = [4, 5, 6]
_SHARED_TABLE_CONFIG = FrogWildConfig(
    num_frogs=1500, iterations=5, ps=0.8, seed=0
)
_rng = np.random.default_rng(123)
_SHARED_TABLE_SEED_SETS = [
    np.sort(_rng.choice(GRAPH.num_vertices, size=3, replace=False))
    for _ in range(6)
]
# name -> (graph, machines, config, queries): the runs alone pinned in
# tests/data (see batch_reference.py).
STANDALONE = {
    **{
        f"single-{index}": (GRAPH, 4, FrogWildConfig(**kwargs), [BatchQuery()])
        for index, kwargs in enumerate(_CONFIGS)
    },
    "personalized-single": (
        GRAPH, 4, _PERSONAL_CONFIG,
        [BatchQuery(seeds=_PERSONAL_SEEDS)],
    ),
    "sequential-lanes": (
        GRAPH, 4, _SEQUENTIAL_CONFIG,
        [BatchQuery(seed=s) for s in _SEQUENTIAL_SEEDS],
    ),
    "personalized-shared-table": (
        GRAPH, 8, _SHARED_TABLE_CONFIG,
        [BatchQuery(seeds=seeds) for seeds in _SHARED_TABLE_SEED_SETS],
    ),
}


class TestLaneRecords:
    """Each lane leaves the runner as its own id-ordered stop records,
    split from the batch's one keyed sum: a lane of 7 frogs next to a
    lane of thousands holds at most 7 records, and no record of one
    lane lands in another."""

    @pytest.mark.parametrize("config_kwargs", _CONFIGS)
    def test_lanes_hold_their_own_id_ordered_records(self, config_kwargs):
        config = FrogWildConfig(**config_kwargs)
        budgets = [config.num_frogs, 40, 7]
        result = run_frogwild_batch(
            GRAPH,
            [BatchQuery(num_frogs=frogs) for frogs in budgets],
            config,
            state=build_cluster(GRAPH, 4, seed=config.seed),
        )
        multinomial = config.scatter_mode == "multinomial"
        for frogs, lane in zip(budgets, result.results):
            ids, counts = lane.estimate.records
            assert lane.estimate.num_frogs == frogs
            assert (np.diff(ids) > 0).all()
            assert ids.size == 0 or 0 <= ids[0] <= ids[-1] < GRAPH.num_vertices
            assert (counts > 0).all()
            if multinomial:
                assert ids.size <= frogs
                assert int(counts.sum()) == frogs


class TestSingleQueryEquivalence:
    """A run alone and the B=1 batch replay the pinned standalone run
    bit for bit (see ``batch_reference.py``)."""

    CONFIGS = _CONFIGS

    @pytest.mark.parametrize("config_kwargs", CONFIGS)
    def test_bitwise_identical_estimate_and_report(self, config_kwargs):
        name = f"single-{_CONFIGS.index(config_kwargs)}"
        config = FrogWildConfig(**config_kwargs)
        single = run_frogwild(
            GRAPH, config, state=build_cluster(GRAPH, 4, seed=config.seed)
        )
        batched = run_frogwild_batch(
            GRAPH,
            [BatchQuery()],
            config,
            state=build_cluster(GRAPH, 4, seed=config.seed),
        )
        assert_run_pinned(name, single)
        assert_lanes_match_standalone(name, batched)
        lane = batched.results[0]
        assert single.report.total_time_s == lane.report.total_time_s
        # The batch-level (physical) report agrees too: with one lane
        # there is nothing to amortize.
        assert batched.report.network_bytes == single.report.network_bytes
        # A run alone keeps the standalone report's label and keys.
        assert single.report.algorithm == f"frogwild(ps={config.ps:g})"
        assert list(single.report.extra) == [
            "num_frogs", "iterations", "ps", "replication_factor"
        ]
        assert single.ledger is None

    def test_personalized_single_query_equivalence(self):
        config = _PERSONAL_CONFIG
        single = run_personalized_frogwild(
            GRAPH, _PERSONAL_SEEDS, config, num_machines=4
        )
        batched = run_frogwild_batch(
            GRAPH, [BatchQuery(seeds=_PERSONAL_SEEDS)], config, num_machines=4
        )
        assert_run_pinned("personalized-single", single)
        assert_lanes_match_standalone("personalized-single", batched)

    def test_lane_matches_sequential_run_inside_larger_batch(self):
        """Populations are independent: each lane of a B=3 batch equals
        the pinned run alone with the same seed and birth law."""
        config = _SEQUENTIAL_CONFIG
        batched = run_frogwild_batch(
            GRAPH,
            [BatchQuery(seed=s) for s in _SEQUENTIAL_SEEDS],
            config,
            state=build_cluster(GRAPH, 4, seed=config.seed),
        )
        assert_lanes_match_standalone("sequential-lanes", batched)

    def test_personalized_lanes_match_sequential_calls(self):
        """B personalized queries on one shared replication table answer
        exactly what B sequential calls answer, each of which rebuilds
        the tables from the same partition: batching is amortization,
        never approximation."""
        config = _SHARED_TABLE_CONFIG
        partition = make_partitioner("random", 0).partition(GRAPH, 8)
        batched = run_frogwild_batch(
            GRAPH,
            [BatchQuery(seeds=seeds) for seeds in _SHARED_TABLE_SEED_SETS],
            config,
            state=build_cluster(
                GRAPH, 8, seed=0,
                replication=ReplicationTable(GRAPH, partition, seed=0),
            ),
        )
        assert_lanes_match_standalone("personalized-shared-table", batched)
        for seeds, lane in zip(_SHARED_TABLE_SEED_SETS, batched.results):
            single = run_personalized_frogwild(
                GRAPH,
                seeds,
                config,
                state=build_cluster(GRAPH, 8, seed=0, partition=partition),
            )
            np.testing.assert_array_equal(
                single.estimate.counts, lane.estimate.counts
            )


class TestBehaviour:
    def test_empty_batch_rejected(self):
        with pytest.raises(ConfigError):
            _batch([])

    def test_bad_seed_set_rejected(self):
        with pytest.raises(ConfigError, match="out of range"):
            _batch([BatchQuery(seeds=[GRAPH.num_vertices])])
        with pytest.raises(ConfigError, match="positive mass"):
            _batch([BatchQuery(seeds=[0, 1], weights=[0.0, 0.0])])
        with pytest.raises(ConfigError, match="need a seed set"):
            _batch([BatchQuery(weights=[1.0])])

    def test_bad_ps_rejected(self):
        with pytest.raises(ConfigError):
            _batch([BatchQuery(ps=1.5)])

    def test_early_termination_bounds_lane_supersteps(self):
        """With a tiny budget and many iterations, populations die out;
        their reports stop counting supersteps once they are gone."""
        result = _batch(
            [BatchQuery(num_frogs=2, seed=s) for s in range(4)],
            iterations=60,
        )
        for lane in result.results:
            assert lane.estimate.total_stopped == 2
            assert lane.report.supersteps <= 60
        assert result.report.supersteps == max(
            lane.report.supersteps for lane in result.results
        )

    def test_early_finished_lane_stops_accumulating_time(self):
        """A population that dies out is not billed the batch's
        remaining supersteps: its attributed simulated time stops at
        its last live barrier."""
        result = _batch(
            [BatchQuery(num_frogs=1), BatchQuery(num_frogs=3000)],
            iterations=60,
        )
        small, big = result.results
        assert small.report.supersteps < big.report.supersteps
        assert small.report.total_time_s < big.report.total_time_s
        assert big.report.total_time_s == pytest.approx(
            result.report.total_time_s
        )

    def test_batch_report_carries_batch_extras(self):
        result = _batch([BatchQuery(seed=s) for s in range(3)])
        assert result.report.extra["batch_size"] == 3.0
        assert result.report.extra["total_frogs"] == 3 * 1500.0
        for index, lane in enumerate(result.results):
            assert lane.report.extra["batch_index"] == float(index)
            assert lane.report.extra["batch_size"] == 3.0

    def test_shared_traversal_amortizes_headers(self):
        """A real B>1 batch moves fewer wire bytes than its populations
        would standalone (same records, shared message headers)."""
        result = _batch([BatchQuery(seed=s) for s in range(6)], machines=8)
        assert result.report.network_bytes < result.attributed_network_bytes()

    def test_personalized_batch_results_in_query_order(self):
        seed_sets = [np.array([1]), np.array([2, 3]), np.array([4, 5, 6])]
        result = run_frogwild_batch(
            GRAPH,
            [BatchQuery(seeds=seeds) for seeds in seed_sets],
            FrogWildConfig(num_frogs=1500, iterations=6, seed=1),
            num_machines=4,
        )
        assert len(result) == 3
        # Frogs are born on the query's seeds, so early mass concentrates
        # near them: each query's top-1 differs and is reachable.
        tops = [lane.estimate.top_k(1)[0] for lane in result.results]
        assert len(set(map(int, tops))) >= 2

    def test_personalized_batch_validates_weights(self):
        with pytest.raises(ConfigError, match="align"):
            _batch(
                [
                    BatchQuery(seeds=np.array([1])),
                    BatchQuery(seeds=np.array([2]), weights=[1.0, 2.0]),
                ]
            )
