"""Lane-major batch kernel: equivalence, per-lane billing, caching.

Two families of guarantees pin the batched superstep down:

* **kernel equivalence** — every lane of a batch (estimates, attributed
  bytes, CPU, supersteps) is bit-identical to the pinned run alone of
  that lane (the standalone runner's output, recorded before a run
  alone became the B = 1 lane), for every supported configuration, and
  what only a batch has — each lane's simulated time inside it and the
  physical report — is pinned to the values of the per-lane reference
  loop this kernel replaced (see ``batch_reference.py``; the test names
  still say what they were first compared to).  Each lane owns its
  coin stream, so the lanes' attributed records and CPU add up to the
  physical bill exactly, and two lanes' estimator errors are
  uncorrelated (the independence Lemma 18 assumes of one query);
* **per-ingress caching** — kernel tables and the mirror bitmap build
  once per ingress, and a crash in the faulty runner can never corrupt
  the shared bitmap.
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
from repro.engine import build_cluster, mirror_matrix
from repro.errors import ConfigError
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
        "config_kwargs", [dict(), dict(scatter_mode="binomial")]
    )
    def test_dangling_vertices_idle_instead_of_crashing(self, config_kwargs):
        """A frog stranded on a dangling vertex (no out-groups) has
        nothing the at-least-one repair can enable: it must idle in
        place instead of mis-indexing into a neighboring row's group
        block.  Every lane is its pinned run alone, bitwise.
        Multinomial scatter conserves the population; binomial may
        duplicate frogs."""
        config = FrogWildConfig(**_DANGLING_CONFIG, **config_kwargs)
        result = run_frogwild_batch(
            DANGLING, _DANGLING_QUERIES, config,
            state=build_cluster(DANGLING, 3, seed=5),
        )
        assert_lanes_match_standalone(
            f"dangling-{config.scatter_mode}", result
        )
        if config.scatter_mode == "multinomial":
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


class TestPerLaneSync:
    """Each lane draws its own coins: billing partitions, lanes decouple."""

    @pytest.mark.parametrize("seed", [0, 11, 23])
    @pytest.mark.parametrize("scatter_mode", ["multinomial", "binomial"])
    def test_attribution_sums_to_physical(self, seed, scatter_mode):
        """Per-lane attributed records are the physical sync + repair +
        frog records, and the lanes' CPU is the batch's CPU."""
        result = _run(
            [BatchQuery(seed=seed + lane) for lane in range(5)],
            seed=seed,
            ps=0.8,
            scatter_mode=scatter_mode,
        )
        attributed = sum(
            lane.ledger.network_records for lane in result.results
        )
        physical = sum(result.report.extra[key] for key in (
            "sync_records", "repair_records", "frog_records"
        ))
        assert attributed == physical > 0
        assert result.report.network_bytes <= (
            result.attributed_network_bytes()
        )
        total_cpu = sum(lane.report.cpu_seconds for lane in result.results)
        assert total_cpu == pytest.approx(
            result.report.cpu_seconds, abs=1e-12
        )

    @pytest.mark.parametrize("config_kwargs", [
        dict(ps=1.0),
        dict(ps=0.4),
        dict(ps=0.6, scatter_mode="binomial"),
    ])
    def test_physical_records_are_the_sum_of_runs_alone(self, config_kwargs):
        """No record is shared between lanes: every physical record count
        of a batch is the sum of its lanes' counts in one-lane batches."""
        queries = [BatchQuery(seed=seed) for seed in (2, 3, 4)]
        batch = _run(queries, **config_kwargs).report.extra
        alone = [_run([query], **config_kwargs).report.extra for query in queries]
        for key in ("sync_records", "repair_records", "frog_records"):
            assert batch[key] == sum(extra[key] for extra in alone)
        assert batch["sync_records"] > 0

    @pytest.mark.parametrize("ps", [0.0, 0.5, 1.0])
    def test_every_lane_conserves_its_population(self, ps):
        """Under multinomial scatter each lane's frogs all stop, whatever
        the sync probability, and its estimate is a probability law."""
        result = _run(_THREE_LANES, ps=ps)
        for lane, frogs in zip(result.results, (1500, 700, 2200)):
            assert lane.estimate.total_stopped == frogs
            vector = lane.estimate.vector()
            assert np.all(vector >= 0)
            assert vector.sum() == pytest.approx(1.0)

    def test_a_per_query_ps_override_is_that_lanes_own(self):
        """A lane with ``ps = 0`` syncs no mirror, even beside a lane that
        syncs every one."""
        silent = _run([BatchQuery(seed=1, ps=0.0)] * 2, ps=1.0).report.extra
        assert silent["sync_records"] == 0
        mixed = _run(
            [BatchQuery(seed=1, ps=0.0), BatchQuery(seed=2, ps=1.0)], ps=0.5
        ).report.extra
        loud = _run([BatchQuery(seed=2, ps=1.0)], ps=0.5).report.extra
        assert mixed["sync_records"] == loud["sync_records"] > 0

    @pytest.mark.parametrize("neighbour", [
        BatchQuery(seed=9, ps=0.0),
        BatchQuery(seed=9, ps=0.3, num_frogs=3000),
    ])
    def test_a_lane_ignores_its_neighbour(self, neighbour):
        """Lane 0's coins, hops and bill do not depend on the lane beside it."""
        first = BatchQuery(seed=8, ps=0.5)
        alone = _run([first]).results[0]
        beside = _run([first, neighbour]).results[0]
        np.testing.assert_array_equal(
            beside.estimate.counts, alone.estimate.counts
        )
        assert beside.ledger.network_records == alone.ledger.network_records

    def test_correlation_bound(self):
        """Two lanes of one batch are independent populations (cf.
        Lemma 18, which assumes one query's erasure process is its
        own): across seeds, the mean correlation of their estimator
        errors stays near 0.  A kernel bug that shared coins or hops
        between lanes would push it toward 1."""
        graph = twitter_like(n=400, seed=3)
        reps = 20
        rows = []
        for rep in range(reps):
            config = FrogWildConfig(
                num_frogs=1200, iterations=3, ps=0.25, seed=3000 + rep
            )
            result = run_frogwild_batch(
                graph,
                [BatchQuery(seed=1000 + rep), BatchQuery(seed=2000 + rep)],
                config,
                state=build_cluster(graph, 4, seed=0),
            )
            rows.append([lane.estimate.vector() for lane in result.results])
        errors = np.array(rows)
        errors -= errors.mean(axis=0, keepdims=True)
        correlations = []
        for left, right in errors:
            denom = np.linalg.norm(left) * np.linalg.norm(right)
            correlations.append(float(left @ right / denom) if denom else 0.0)
        assert abs(np.mean(correlations)) < 0.2


def _cached_mirrors(state):
    """The per-ingress mirror bitmap every run on ``state`` reads."""
    return state.ingress_cache(
        "mirror_matrix", lambda: mirror_matrix(state.replication)
    )


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

    def test_a_crash_in_the_faulty_runner_never_corrupts_it(self):
        """The faulty runner is a one-lane batch on the per-ingress
        bitmap: its crash forks the bitmap before disabling a machine,
        and the next run on the ingress syncs every mirror again."""
        from repro.faults import (
            FaultSchedule,
            FaultyFrogWildRunner,
            MachineCrash,
        )

        state = build_cluster(GRAPH, 4, seed=0)
        shared = _cached_mirrors(state)
        baseline = shared.copy()
        config = _config(num_frogs=400, ps=1.0)
        runner = FaultyFrogWildRunner(
            state, config, FaultSchedule(crashes=(MachineCrash(1, 2),))
        )
        runner.run()
        assert runner.fault_log.crashed_machines == [2]
        assert not runner._mirror_matrix[:, 2].any()
        assert _cached_mirrors(state) is shared
        np.testing.assert_array_equal(shared, baseline)
        # A later run on the ingress is the crash-free run.
        sibling = build_cluster(GRAPH, 4, seed=0, replication=state.replication)
        fresh = build_cluster(GRAPH, 4, seed=0)
        np.testing.assert_array_equal(
            run_frogwild(GRAPH, config, state=sibling).estimate.counts,
            run_frogwild(GRAPH, config, state=fresh).estimate.counts,
        )
