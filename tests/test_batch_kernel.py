"""Lane-major batch kernel: equivalence, shared sync, wire dedupe.

Four families of guarantees pin the batched superstep down:

* **kernel equivalence** — every lane of a batch (estimates, attributed
  bytes, CPU, supersteps) is bit-identical to the pinned run alone of
  that lane (the standalone runner's output, recorded before a run
  alone became the B = 1 lane), for every supported configuration, and
  what only a batch has — each lane's simulated time inside it and the
  physical report — is pinned to the values of the per-lane reference
  loop this kernel replaced (see ``batch_reference.py``; the test names
  still say what they were first compared to);
* **shared sync** (``sync_mode="shared"``) — one physical sync record
  per (vertex, mirror) per barrier *independent of B* (exact, proved on
  identical-frontier batches), per-lane attribution sums exactly to the
  physical count, and the bought correlation is quantified: cross-lane
  estimator correlation rises well above per-lane mode but stays far
  from 1 (the walks themselves must never be shared — cf. Lemma 18's
  pairwise-correlation argument, which the per-query variance story
  relies on);
* **wire dedupe** (``wire_dedupe=True``) — accounting-only: estimates
  are bit-identical with the flag on or off, physical frog records
  shrink to the cross-lane union, and largest-remainder attribution
  sums exactly to the physical count;
* **per-ingress caching** — kernel tables and the mirror bitmap build
  once per ingress, and fault injection (``disable_machine``, a crash
  in the faulty runner) can never corrupt the shared cache.
"""

import numpy as np
import pytest

from batch_reference import (
    assert_lanes_match_standalone,
    assert_physical_report_pinned,
)
from repro.core import (
    BatchQuery,
    FrogWildConfig,
    resolve_kernel,
    run_frogwild,
    run_frogwild_batch,
)
from repro.engine import MirrorSynchronizer, apportion_records, build_cluster
from repro.errors import ConfigError, EngineError
from repro.graph import from_edges, twitter_like

GRAPH = twitter_like(n=600, seed=13)
# Vertex 3 has no out-edges: a frog stranded there has nothing to repair.
DANGLING = from_edges(
    [(0, 1), (1, 2), (2, 0), (0, 3), (1, 3), (2, 3), (4, 0), (0, 4), (4, 3)],
    repair_dangling="none",
)


def _config(**config_kwargs):
    return FrogWildConfig(
        **{**dict(num_frogs=1500, iterations=4, seed=7), **config_kwargs}
    )


def _run(queries, machines=4, **config_kwargs):
    config = _config(**config_kwargs)
    return run_frogwild_batch(
        GRAPH,
        queries,
        config,
        state=build_cluster(GRAPH, machines, seed=config.seed),
    )


_THREE_LANES = [
    BatchQuery(seed=4),
    BatchQuery(seed=5, num_frogs=700),
    BatchQuery(seed=6, num_frogs=2200),
]
_CONFIGS = [
    dict(),
    dict(ps=0.6),
    dict(ps=0.0),
    dict(ps=0.3, erasure_model="independent"),
    dict(ps=0.8, scatter_mode="binomial"),
    dict(ps=0.4, scatter_mode="binomial", erasure_model="independent"),
]
# name -> (queries, config): the batches whose physical report is pinned
# in tests/data (see batch_reference.py for how it was recorded).
PINNED = {
    **{
        f"three-lanes-{index}": (_THREE_LANES, config_kwargs)
        for index, config_kwargs in enumerate(_CONFIGS)
    },
    "mixed-ps": (
        [BatchQuery(seed=s, ps=0.2 + 0.2 * s) for s in range(4)],
        dict(ps=0.5),
    ),
    "early-death": (
        [BatchQuery(num_frogs=2, seed=s) for s in range(3)]
        + [BatchQuery(num_frogs=3000, seed=9)],
        dict(iterations=40),
    ),
}


_DANGLING_CONFIG = dict(num_frogs=300, iterations=6, ps=0.2, seed=5)
_DANGLING_QUERIES = [BatchQuery(seed=5 + s) for s in range(3)]
# name -> (graph, machines, config, queries): every lane's run alone is
# pinned in tests/data (see batch_reference.py).
STANDALONE = {
    **{
        name: (GRAPH, 4, _config(**config_kwargs), queries)
        for name, (queries, config_kwargs) in PINNED.items()
    },
    **{
        f"dangling-{mode}": (
            DANGLING, 3,
            FrogWildConfig(**_DANGLING_CONFIG, scatter_mode=mode),
            _DANGLING_QUERIES,
        )
        for mode in ("multinomial", "binomial")
    },
}


def run_pinned(name):
    queries, config_kwargs = PINNED[name]
    return _run(queries, **config_kwargs)


def _check_pinned(name):
    batch = run_pinned(name)
    assert_lanes_match_standalone(name, batch)
    assert_physical_report_pinned(name, batch)
    return batch


class TestKernelEquivalence:
    """Every lane is a standalone run; the physical report is pinned."""

    @pytest.mark.parametrize("config_kwargs", _CONFIGS)
    def test_fused_matches_lane_loop_golden(self, config_kwargs):
        _check_pinned(f"three-lanes-{_CONFIGS.index(config_kwargs)}")

    def test_mixed_per_lane_ps_matches_lane_loop(self):
        _check_pinned("mixed-ps")

    def test_early_lane_death_matches_lane_loop(self):
        batch = _check_pinned("early-death")
        supersteps = [lane.report.supersteps for lane in batch.results]
        assert supersteps[3] == 40 and min(supersteps) < 40

    @pytest.mark.parametrize(
        "config_kwargs",
        [dict(), dict(scatter_mode="binomial"), dict(sync_mode="shared")],
    )
    def test_dangling_vertices_idle_instead_of_crashing(self, config_kwargs):
        """A frog stranded on a dangling vertex (no out-groups) has
        nothing the at-least-one repair can enable: it must idle in
        place instead of mis-indexing into a neighboring row's group
        block.  Every per-lane-sync lane is its pinned run alone,
        bitwise; a shared-sync lane draws its coins from the batch's
        stream, so no run alone replays it.  Multinomial scatter
        conserves the population; binomial may duplicate frogs."""
        config = FrogWildConfig(**_DANGLING_CONFIG, **config_kwargs)
        result = run_frogwild_batch(
            DANGLING, _DANGLING_QUERIES, config,
            state=build_cluster(DANGLING, 3, seed=5),
        )
        if config.sync_mode == "per-lane":
            assert_lanes_match_standalone(
                f"dangling-{config.scatter_mode}", result
            )
        if config.scatter_mode == "multinomial":
            for lane in result.results:
                assert lane.estimate.total_stopped == 300

    def test_dangling_vertices_idle_in_shared_sync_mode(self):
        result = run_frogwild_batch(
            DANGLING,
            [BatchQuery(seed=s) for s in range(3)],
            FrogWildConfig(
                num_frogs=300, iterations=6, ps=0.2, seed=5,
                sync_mode="shared", wire_dedupe=True,
            ),
            state=build_cluster(DANGLING, 3, seed=5),
        )
        for lane in result.results:
            assert lane.estimate.total_stopped == 300

    def test_unknown_kernel_rejected(self):
        """``resolve_kernel`` is the one check behind every serving
        entry point's ``kernel=``; the runner takes no such keyword."""
        for kernel in ("simd", "lane-loop", "compiled"):
            with pytest.raises(ConfigError, match="removed.*only kernel"):
                resolve_kernel(kernel)
        assert resolve_kernel("fused") == "fused"
        with pytest.raises(TypeError, match="kernel"):
            run_frogwild_batch(GRAPH, [BatchQuery()], kernel="fused")


class TestSharedSync:
    def test_one_record_per_vertex_mirror_independent_of_batch_size(self):
        """Identical-seed lanes walk identical frontiers, so the union
        frontier — and with it the physical sync and repair traffic —
        is *exactly* the B=1 frontier: shared mode must bill the same
        record totals at any batch size."""
        totals = {}
        for batch_size in (1, 4, 8):
            result = _run(
                [BatchQuery(seed=3) for _ in range(batch_size)],
                ps=0.7,
                sync_mode="shared",
            )
            extra = result.report.extra
            totals[batch_size] = (
                extra["sync_records"], extra["repair_records"]
            )
        assert totals[1] == totals[4] == totals[8]
        assert totals[1][0] > 0

    def test_shared_sync_cuts_physical_records_for_real_batches(self):
        queries = [BatchQuery(seed=s) for s in range(8)]
        per_lane = _run(queries, ps=0.7, sync_mode="per-lane")
        shared = _run(queries, ps=0.7, sync_mode="shared")
        assert (
            shared.report.extra["sync_records"]
            < per_lane.report.extra["sync_records"] / 2
        )
        # Frog traffic is untouched by the sync mode's record sharing
        # (walk randomness stays per-lane), so wire savings are sync-side.
        assert shared.report.network_bytes < per_lane.report.network_bytes

    def test_cut_against_per_lane_billing_of_the_same_coins(self):
        """The report carries both the physical sync records and the
        demand (what per-lane billing of the very same coins would
        cost), so the cut is exact.  An identical-frontier batch of B
        cuts >= (B-1)/B; distinct lanes on a saturating budget, whose
        union frontier exceeds any one lane's, still cut half."""
        batch_size = 16

        def cut(queries):
            extra = _run(
                queries,
                num_frogs=4 * GRAPH.num_vertices,
                iterations=3,
                ps=0.7,
                sync_mode="shared",
            ).report.extra
            return 1.0 - extra["sync_records"] / extra["sync_demand_records"]

        identical = cut([BatchQuery(seed=7) for _ in range(batch_size)])
        distinct = cut([BatchQuery(seed=100 + s) for s in range(batch_size)])
        assert identical >= (batch_size - 1) / batch_size
        assert distinct >= 0.5

    def test_attribution_sums_to_physical_records(self):
        result = _run(
            [BatchQuery(seed=s) for s in range(5)],
            ps=0.6,
            sync_mode="shared",
        )
        attributed = sum(
            lane.ledger.network_records for lane in result.results
        )
        physical = sum(result.report.extra[key] for key in (
            "sync_records", "repair_records", "frog_records"
        ))
        assert attributed == physical
        # CPU attribution partitions the shared execution exactly too.
        total_cpu = sum(lane.report.cpu_seconds for lane in result.results)
        assert total_cpu == pytest.approx(
            result.report.cpu_seconds, abs=1e-12
        )

    def test_conservation_and_validity(self):
        result = _run(
            [BatchQuery(seed=s) for s in range(4)],
            ps=0.4,
            sync_mode="shared",
        )
        for lane in result.results:
            assert lane.estimate.total_stopped == 1500
            vector = lane.estimate.vector()
            assert vector.min() >= 0.0
            assert vector.sum() <= 1.0 + 1e-12

    def test_per_query_ps_override_rejected(self):
        with pytest.raises(ConfigError):
            _run(
                [BatchQuery(seed=1), BatchQuery(seed=2, ps=0.3)],
                ps=0.7,
                sync_mode="shared",
            )

    def test_correlation_bound(self):
        """Quantify the correlation shared sync buys (cf. Lemma 18).

        Sharing the sync coins correlates the populations' *erasure*
        processes, so their estimator errors co-fluctuate: cross-lane
        error correlation must rise clearly above per-lane mode.  It
        must also stay far from 1 — the hop randomness is still
        per-lane, and a kernel bug that shared it would push the
        correlation toward identity.  Marginals stay untouched: the
        per-mode mean estimates agree closely.
        """
        graph = twitter_like(n=400, seed=3)
        reps = 20

        def estimates(mode):
            rows = []
            for rep in range(reps):
                config = FrogWildConfig(
                    num_frogs=1200,
                    iterations=3,
                    ps=0.25,
                    seed=3000 + rep,
                    sync_mode=mode,
                )
                result = run_frogwild_batch(
                    graph,
                    [BatchQuery(seed=1000 + rep), BatchQuery(seed=2000 + rep)],
                    config,
                    state=build_cluster(graph, 4, seed=0),
                )
                rows.append(
                    [lane.estimate.vector() for lane in result.results]
                )
            return np.array(rows)

        def mean_cross_lane_correlation(stack):
            errors = stack - stack.mean(axis=0, keepdims=True)
            correlations = []
            for rep in range(reps):
                left, right = errors[rep, 0], errors[rep, 1]
                denom = np.linalg.norm(left) * np.linalg.norm(right)
                correlations.append(
                    float(left @ right / denom) if denom else 0.0
                )
            return float(np.mean(correlations))

        per_lane = estimates("per-lane")
        shared = estimates("shared")
        corr_per_lane = mean_cross_lane_correlation(per_lane)
        corr_shared = mean_cross_lane_correlation(shared)
        assert corr_shared > corr_per_lane + 0.15
        assert corr_shared < 0.8
        assert abs(corr_per_lane) < 0.2
        mean_gap = np.abs(
            per_lane.mean(axis=(0, 1)) - shared.mean(axis=(0, 1))
        ).sum()
        assert mean_gap < 0.2


class TestWireDedupe:
    def test_accounting_only_estimates_bit_identical(self):
        queries = [BatchQuery(seed=s) for s in range(6)]
        plain = _run(queries, ps=0.8)
        deduped = _run(queries, ps=0.8, wire_dedupe=True)
        for lane_plain, lane_deduped in zip(plain.results, deduped.results):
            np.testing.assert_array_equal(
                lane_plain.estimate.counts, lane_deduped.estimate.counts
            )
        assert (
            deduped.report.extra["frog_records"]
            < plain.report.extra["frog_records"]
        )
        assert deduped.report.network_bytes < plain.report.network_bytes

    def test_saturating_lanes_share_most_frog_records(self):
        """Eight distinct lanes on a budget of 4n frogs overlap heavily:
        dedupe must cut the physical frog records by over a quarter."""
        queries = [BatchQuery(seed=100 + s) for s in range(8)]
        budget = dict(num_frogs=4 * GRAPH.num_vertices, iterations=3, ps=0.7)
        plain = _run(queries, **budget).report.extra["frog_records"]
        deduped = _run(queries, wire_dedupe=True, **budget).report.extra[
            "frog_records"
        ]
        assert deduped < 0.75 * plain

    def test_identical_lanes_collapse_to_single_lane_records(self):
        single = _run([BatchQuery(seed=3)], ps=0.9, wire_dedupe=True)
        batch = _run(
            [BatchQuery(seed=3) for _ in range(8)], ps=0.9, wire_dedupe=True
        )
        assert (
            batch.report.extra["frog_records"]
            == single.report.extra["frog_records"]
        )

    @pytest.mark.parametrize("seed", [0, 11, 23])
    @pytest.mark.parametrize("scatter_mode", ["multinomial", "binomial"])
    def test_attribution_sums_to_physical(self, seed, scatter_mode):
        result = _run(
            [BatchQuery(seed=seed + lane) for lane in range(5)],
            seed=seed,
            ps=0.8,
            scatter_mode=scatter_mode,
            wire_dedupe=True,
        )
        attributed = sum(
            lane.ledger.network_records for lane in result.results
        )
        physical = sum(result.report.extra[key] for key in (
            "sync_records", "repair_records", "frog_records"
        ))
        assert attributed == physical
        assert result.report.network_bytes <= (
            result.attributed_network_bytes()
        )

    def test_combines_with_shared_sync(self):
        result = _run(
            [BatchQuery(seed=s) for s in range(4)],
            ps=0.7,
            sync_mode="shared",
            wire_dedupe=True,
        )
        attributed = sum(
            lane.ledger.network_records for lane in result.results
        )
        physical = sum(result.report.extra[key] for key in (
            "sync_records", "repair_records", "frog_records"
        ))
        assert attributed == physical
        for lane in result.results:
            assert lane.estimate.total_stopped == 1500


class TestIngressCaching:
    def test_kernel_tables_built_once_per_ingress(self):
        state = build_cluster(GRAPH, 4, seed=0)
        builds = []
        first = state.ingress_cache("probe", lambda: builds.append(1) or "x")
        second = state.ingress_cache("probe", lambda: builds.append(1) or "y")
        assert first == second == "x"
        assert builds == [1]
        # A fresh accounting state over the same ingress shares the memo.
        sibling = build_cluster(
            GRAPH, 4, seed=0, replication=state.replication
        )
        assert sibling.ingress_cache("probe", lambda: "z") == "x"

    def test_batched_runs_share_kernel_tables(self):
        from repro.core.batched import BatchedFrogWildRunner

        state = build_cluster(GRAPH, 4, seed=0)
        config = FrogWildConfig(num_frogs=200, iterations=2, seed=1)
        runner_a = BatchedFrogWildRunner(state, config, [BatchQuery()])
        sibling = build_cluster(
            GRAPH, 4, seed=0, replication=state.replication
        )
        runner_b = BatchedFrogWildRunner(sibling, config, [BatchQuery()])
        assert runner_a.tables is runner_b.tables

    def test_disable_machine_never_corrupts_shared_mirror_cache(self):
        state = build_cluster(GRAPH, 4, seed=0)
        shared = MirrorSynchronizer.shared_mirror_matrix(state)
        baseline = shared.copy()
        sync = MirrorSynchronizer(
            state,
            1.0,
            np.random.default_rng(0),
            mirror_matrix=shared,
            copy_on_disable=True,
        )
        sync.disable_machine(2)
        np.testing.assert_array_equal(
            MirrorSynchronizer.shared_mirror_matrix(state), baseline
        )
        # The disabling synchronizer itself sees the crash.
        vertices = np.arange(10)
        fresh, _ = sync.draw_fresh(vertices)
        assert not fresh[:, 2][
            state.replication.masters[vertices] != 2
        ].any()

    @pytest.mark.parametrize("sync_mode", ["per-lane", "shared"])
    def test_a_crash_in_the_faulty_runner_never_corrupts_it(self, sync_mode):
        """The faulty runner is a one-lane batch on the per-ingress
        bitmap: its crash forks the bitmap before disabling a machine,
        and the next run on the ingress syncs every mirror again."""
        from repro.faults import (
            FaultSchedule,
            FaultyFrogWildRunner,
            MachineCrash,
        )

        state = build_cluster(GRAPH, 4, seed=0)
        shared = MirrorSynchronizer.shared_mirror_matrix(state)
        baseline = shared.copy()
        config = _config(num_frogs=400, ps=1.0, sync_mode=sync_mode)
        runner = FaultyFrogWildRunner(
            state, config, FaultSchedule(crashes=(MachineCrash(1, 2),))
        )
        runner.run()
        assert runner.fault_log.crashed_machines == [2]
        assert not runner._mirror_matrix[:, 2].any()
        assert MirrorSynchronizer.shared_mirror_matrix(state) is shared
        np.testing.assert_array_equal(shared, baseline)
        # A later run on the ingress is the crash-free run.
        sibling = build_cluster(GRAPH, 4, seed=0, replication=state.replication)
        fresh = build_cluster(GRAPH, 4, seed=0)
        np.testing.assert_array_equal(
            run_frogwild(GRAPH, config, state=sibling).estimate.counts,
            run_frogwild(GRAPH, config, state=fresh).estimate.counts,
        )


class TestApportionRecords:
    def test_exact_sum_and_proportionality(self):
        physical = np.array([[0, 10], [3, 0]])
        demand = np.array(
            [
                [[0, 6], [1, 0]],
                [[0, 3], [1, 0]],
                [[0, 3], [1, 0]],
            ]
        )
        shares = apportion_records(physical, demand)
        np.testing.assert_array_equal(shares.sum(axis=0), physical)
        assert (shares <= demand).all()
        assert shares[0, 0, 1] == 5  # 10 * 6/12

    def test_deterministic_tie_break_prefers_lower_lane(self):
        physical = np.array([1])
        demand = np.array([[1], [1]])
        shares = apportion_records(physical, demand)
        np.testing.assert_array_equal(shares, [[1], [0]])

    def test_rejects_unbacked_physical_records(self):
        with pytest.raises(EngineError):
            apportion_records(np.array([2]), np.array([[0], [0]]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(EngineError):
            apportion_records(np.array([1, 2]), np.array([[1], [1]]))
