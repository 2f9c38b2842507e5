"""Integration tests across the extension subsystems.

Each test wires several of the newer packages together the way a
downstream user would: fault injection inside a churning graph's
refresh loop, persistence round trips of harness rows, independent
solvers cross-validating each other, and the full interaction-stream
pipeline.
"""

import numpy as np

from repro.core import FrogWildConfig, run_frogwild
from repro.dynamic import ActivityWindow, ChurnGenerator, DynamicDiGraph
from repro.engine import build_cluster, traffic_breakdown
from repro.experiments import (
    FigureResult,
    load_figure_json,
    save_figure_json,
)
from repro.experiments.harness import ExperimentHarness
from repro.experiments.workloads import Workload
from repro.faults import (
    FaultSchedule,
    MachineCrash,
    MessageDrop,
    StragglerCostModel,
    run_frogwild_with_faults,
)
from repro.graph import twitter_like
from repro.live import LiveRankingService
from repro.metrics import normalized_mass_captured
from repro.pagerank import exact_pagerank


class TestFaultsInsideTracking:
    def test_crashy_refreshes_keep_tracking(self):
        """A churning graph whose every refresh suffers a crash is still
        ranked well on its stable-hash cluster (the faults module
        composing with dynamic state)."""
        base = twitter_like(n=800, seed=11)
        dynamic = DynamicDiGraph.from_digraph(base)
        churn = ChurnGenerator(add_rate=0.01, remove_rate=0.01, seed=0)
        config = FrogWildConfig(num_frogs=6_000, iterations=4, seed=0)
        schedule = FaultSchedule(
            crashes=(MachineCrash(step=1, machine=0, rebirth=True),),
            message_drop=MessageDrop(0.05),
        )
        masses = []
        for tick in range(3):
            dynamic.apply(churn.step(dynamic))
            snapshot = dynamic.snapshot()
            state = build_cluster(
                snapshot, 4, partitioner="stable-hash", seed=0
            )
            result, log = run_frogwild_with_faults(
                snapshot, schedule, config, state=state
            )
            assert log.frogs_lost_to_crashes > 0
            truth = exact_pagerank(snapshot)
            masses.append(
                normalized_mass_captured(result.estimate.vector(), truth, 10)
            )
        assert all(m > 0.75 for m in masses)


class TestStragglerWithPartialSyncTracking:
    def test_live_service_under_straggler_cost_model(self):
        """A straggler's cost model rides every epoch of a live
        service: it slows the answer before and after a refresh."""
        base = twitter_like(n=600, seed=4)
        churn = ChurnGenerator(add_rate=0.01, remove_rate=0.01, seed=0)
        config = FrogWildConfig(num_frogs=5_000, iterations=4, ps=0.4, seed=0)
        everyone = np.arange(base.num_vertices)
        times = {}
        for name, cost_model in (
            ("even", None),
            ("straggler", StragglerCostModel(slowdowns=(4.0, 1.0, 1.0, 1.0))),
        ):
            service = LiveRankingService(
                base, config=config, num_machines=4, cost_model=cost_model
            )
            first = service.query(everyone, k=10).simulated_time_s
            service.refresh(churn.step(service.source))
            second = service.query(everyone, k=10).simulated_time_s
            times[name] = (first, second)
        assert all(t > 0 for t in times["even"])
        assert all(s > e for s, e in zip(times["straggler"], times["even"]))


class TestHarnessPersistence:
    def test_harness_rows_roundtrip(self, tmp_path, small_twitter):
        """Harness rows -> figure -> JSON -> figure, the full report
        pipeline."""
        workload = Workload(
            name="tiny",
            graph=small_twitter,
            default_frogs=2_000,
            default_iterations=3,
            default_machines=4,
            paper_vertices=small_twitter.num_vertices,
        )
        harness = ExperimentHarness(workload, seed=0)
        figure = FigureResult("X", "integration smoke")
        figure.rows.append(harness.run_frogwild(ks=(10,)))
        figure.rows.append(harness.run_graphlab(iterations=1, ks=(10,)))

        path = save_figure_json(figure, tmp_path / "fig.json")
        restored = load_figure_json(path)
        assert restored.to_text() == figure.to_text()
        assert "FrogWild" in restored.to_text()

    def test_breakdown_of_harness_state(self, small_twitter):
        """traffic_breakdown applies to any engine run's state."""
        result = run_frogwild(
            small_twitter,
            FrogWildConfig(num_frogs=4_000, iterations=3, seed=0),
            num_machines=4,
            partitioner="grid",
        )
        breakdown = traffic_breakdown(result.state)
        assert breakdown.total_bytes == result.report.network_bytes


class TestBaselineAgreement:
    def test_all_solvers_agree_on_the_head(self, small_twitter):
        """Exact and FrogWild name (almost) the same top-10 — two
        independent code paths cross-validating each other."""
        truth = exact_pagerank(small_twitter)
        frog = run_frogwild(
            small_twitter,
            FrogWildConfig(num_frogs=30_000, iterations=5, seed=0),
            num_machines=4,
        )
        estimate = frog.estimate.vector()
        assert normalized_mass_captured(estimate, truth, 10) > 0.9


class TestWindowToServicePipeline:
    def test_expired_hub_leaves_the_ranking(self):
        """An interaction burst makes a hub; after the window slides
        past it, the hub leaves the top-k."""
        n = 400
        rng = np.random.default_rng(7)
        window = ActivityWindow(n, horizon=2.0)
        live = DynamicDiGraph(n)

        def background(t):
            batch = rng.integers(0, n, size=(1_500, 2))
            return batch[batch[:, 0] != batch[:, 1]]

        hub = n - 1
        burst = np.column_stack(
            [np.arange(200), np.full(200, hub)]
        )
        first = np.concatenate([background(0), burst])
        live.apply(window.observe(first, timestamp=0.0))
        service = LiveRankingService(
            live,
            config=FrogWildConfig(num_frogs=6_000, iterations=4, seed=0),
            num_machines=4,
        )
        everyone = np.arange(n)
        assert hub in set(service.query(everyone, k=5).vertices.tolist())

        # Slide the window past the burst with fresh background noise.
        for t in (1.0, 2.5, 4.0):
            service.refresh(window.observe(background(t), t))
        assert hub not in set(service.query(everyone, k=5).vertices.tolist())
