"""Dynamic-graph tracking benchmark (the paper's OSN motivation).

Section 1 of the paper argues that on highly dynamic activity graphs
the top-k PageRank list must be recalculated constantly, making "a fast
approximation for the top-PageRank nodes a desirable alternative to the
exact solution".  This bench quantifies that claim on the simulator,
with a :class:`~repro.live.LiveRankingService` that refreshes on every
churn tick and answers one uniform query (frogs born on every vertex)
after it:

* per-churn-tick refresh cost of FrogWild tracking vs re-running the
  GraphLab PR baseline to convergence on each snapshot,
* list stability under light churn (the answer shouldn't thrash),
* responsiveness: a synthetic hub takeover must enter the list in one
  refresh,
* incremental ingress: per-tick placement work is proportional to the
  churn batch, not the graph.
"""

import numpy as np
import pytest

from conftest import run_once
from repro.core import FrogWildConfig
from repro.dynamic import ChurnGenerator, GraphDelta
from repro.engine import build_cluster
from repro.graph import twitter_like
from repro.live import LiveRankingService
from repro.metrics import optimal_mass, top_k_jaccard
from repro.pagerank import exact_pagerank, graphlab_pagerank

_CACHE = {}
_MACHINES = 8
_TICKS = 5
_K = 50


@pytest.fixture(scope="module")
def base_graph():
    if "graph" not in _CACHE:
        _CACHE["graph"] = twitter_like(n=10_000, seed=13)
    return _CACHE["graph"]


def _fresh_service(base_graph):
    return LiveRankingService(
        base_graph,
        config=FrogWildConfig(num_frogs=10_000, iterations=4, seed=0),
        num_machines=_MACHINES,
        seed=0,
    )


def _rank(service):
    """One uniform query (no seeds): frogs born on every vertex, global
    PageRank."""
    return service.query(None, k=_K)


def _track(service, churn, ticks):
    """The initial answer, then a refresh and an answer per churn tick."""
    answers = [_rank(service)]
    for _ in range(ticks):
        service.refresh(churn.step(service.source))
        answers.append(_rank(service))
    return answers


def test_tracking_beats_exact_recompute(benchmark, base_graph):
    """Per-tick refresh: FrogWild orders of magnitude below exact PR."""

    def run_both():
        service = _fresh_service(base_graph)
        churn = ChurnGenerator(add_rate=0.01, remove_rate=0.01, seed=1)
        frog_bytes, exact_bytes = [], []
        for _ in range(_TICKS):
            service.refresh(churn.step(service.source))
            frog_bytes.append(_rank(service).network_bytes)
            snapshot = service.current_epoch.graph
            state = build_cluster(
                snapshot, _MACHINES, partitioner="stable-hash", seed=0
            )
            exact = graphlab_pagerank(
                snapshot, tolerance=1e-6, state=state, max_supersteps=200
            )
            exact_bytes.append(exact.report.network_bytes)
        return frog_bytes, exact_bytes

    frog_bytes, exact_bytes = run_once(benchmark, run_both)
    mean_frog = np.mean(frog_bytes)
    mean_exact = np.mean(exact_bytes)
    assert mean_frog * 10 < mean_exact, (
        f"FrogWild tick {mean_frog:.2e}B vs exact {mean_exact:.2e}B"
    )


def test_tracking_quality_under_churn(benchmark, base_graph):
    """Each refreshed list must stay accurate against the snapshot's
    exact PageRank while the graph churns."""

    def run_tracked():
        service = _fresh_service(base_graph)
        churn = ChurnGenerator(add_rate=0.01, remove_rate=0.01, seed=2)
        masses = []
        for tick in range(4):
            if tick:
                service.refresh(churn.step(service.source))
            truth = exact_pagerank(service.current_epoch.graph)
            answer = _rank(service)
            masses.append(
                truth[answer.vertices].sum() / optimal_mass(truth, _K)
            )
        return masses

    masses = run_once(benchmark, run_tracked)
    assert all(m > 0.85 for m in masses), masses


def test_list_stability_under_light_churn(benchmark, base_graph):
    """1% churn per tick must not thrash the reported top-50."""

    def run_tracked():
        churn = ChurnGenerator(add_rate=0.01, remove_rate=0.01, seed=3)
        return _track(_fresh_service(base_graph), churn, _TICKS)

    answers = run_once(benchmark, run_tracked)
    stability = np.mean([
        top_k_jaccard(before.vertices, after.vertices)
        for before, after in zip(answers, answers[1:])
    ])
    assert stability > 0.75


def test_hub_takeover_detected_in_one_refresh(benchmark, base_graph):
    """Responsiveness: a vertex gaining thousands of in-links enters the
    top-k at the very next refresh."""

    def run_takeover():
        service = _fresh_service(base_graph)
        newcomer = base_graph.num_vertices - 1
        sources = np.arange(3_000)
        service.refresh(
            GraphDelta(
                added=np.column_stack(
                    [sources, np.full(sources.size, newcomer)]
                )
            )
        )
        return newcomer, _rank(service)

    newcomer, answer = run_once(benchmark, run_takeover)
    assert newcomer in set(answer.vertices.tolist())


def test_incremental_ingress_is_proportional_to_churn(benchmark, base_graph):
    """Per-tick placements track the churn batch size, not graph size."""

    def run_tracked():
        service = _fresh_service(base_graph)
        churn = ChurnGenerator(add_rate=0.01, remove_rate=0.01, seed=4)
        placed = []
        for _ in range(3):
            delta = churn.step(service.source)
            update = service.refresh(delta)
            placed.append((update.new_placements, delta))
        initial = sum(ingress.num_edges for ingress in service.ingresses)
        return initial, placed

    initial, placed = run_once(benchmark, run_tracked)
    for placements, delta in placed:
        batch = delta.num_added + delta.num_removed
        assert placements <= batch
        assert placements < initial * 0.1
