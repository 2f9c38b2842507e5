"""Ablation benchmarks for the FrogWild stack's implementation choices.

Three implementation decisions in the FrogWild stack have paper-mandated
alternatives; each ablation runs both sides on the calibrated Twitter
workload and checks the documented trade-off:

* **Scatter mode** — frog-conserving multinomial (the paper's actual
  implementation, Section 2.2 note) vs the pseudocode's per-edge
  binomial (conserves frogs only in expectation).
* **Erasure model** — "At Least One Out-Edge Per Node" (Example 10,
  used in the paper's experiments) vs "Independent Erasures"
  (Example 9, which strands walkers at low ps).
* **Ingress** — random vertex-cut vs PowerGraph's oblivious greedy
  (lower replication factor → less sync traffic).
"""

import pytest

from conftest import run_once
from repro.cluster import ObliviousVertexCut, RandomVertexCut, ReplicationTable
from repro.core import FrogWildConfig, run_frogwild
from repro.engine import build_cluster
from repro.graph import twitter_like
from repro.metrics import normalized_mass_captured
from repro.pagerank import exact_pagerank

_CACHE = {}


@pytest.fixture(scope="module")
def graph():
    if "graph" not in _CACHE:
        _CACHE["graph"] = twitter_like(n=20_000, seed=5)
    return _CACHE["graph"]


@pytest.fixture(scope="module")
def truth(graph):
    if "truth" not in _CACHE:
        _CACHE["truth"] = exact_pagerank(graph)
    return _CACHE["truth"]


def _run(graph, **overrides):
    defaults = dict(num_frogs=12_000, iterations=4, ps=0.5, seed=0)
    defaults.update(overrides)
    return run_frogwild(
        graph, FrogWildConfig(**defaults), num_machines=16
    )


def test_ablation_scatter_mode(benchmark, graph, truth):
    """Binomial scatter loses/creates frogs; multinomial conserves.

    Both must land comparable accuracy — the marginal hop law is the
    same — but only multinomial keeps the estimator denominator exact.
    """

    def run_both():
        return (
            _run(graph, scatter_mode="multinomial"),
            _run(graph, scatter_mode="binomial"),
        )

    multi, bino = run_once(benchmark, run_both)
    assert multi.estimate.total_stopped == 12_000
    assert bino.estimate.total_stopped != 12_000  # a.s. for this scale
    assert 0.5 * 12_000 < bino.estimate.total_stopped < 2.0 * 12_000

    mass_multi = normalized_mass_captured(
        multi.estimate.distribution(), truth, 100
    )
    mass_bino = normalized_mass_captured(
        bino.estimate.distribution(), truth, 100
    )
    assert mass_multi > 0.9
    assert abs(mass_multi - mass_bino) < 0.1


def test_ablation_erasure_model(benchmark, graph, truth):
    """At low ps, Independent Erasures strand walkers each step, slowing
    mixing; the At-Least-One repair keeps every walker moving at a tiny
    extra sync cost."""

    def run_both():
        return (
            _run(graph, ps=0.05, erasure_model="at-least-one"),
            _run(graph, ps=0.05, erasure_model="independent"),
        )

    repaired, independent = run_once(benchmark, run_both)
    # The repair pays extra forced syncs: strictly more network.
    assert repaired.report.network_bytes > independent.report.network_bytes
    # Both conserve frogs (stranded walkers idle, not vanish).
    assert repaired.estimate.total_stopped == 12_000
    assert independent.estimate.total_stopped == 12_000
    mass_rep = normalized_mass_captured(
        repaired.estimate.vector(), truth, 100
    )
    mass_ind = normalized_mass_captured(
        independent.estimate.vector(), truth, 100
    )
    # Repair cannot hurt accuracy materially at equal step count.
    assert mass_rep > mass_ind - 0.03


def test_ablation_partitioner_replication(benchmark, graph):
    """Oblivious ingress lowers replication factor, hence sync traffic."""

    def build_tables():
        random_part = RandomVertexCut(seed=0).partition(graph, 16)
        greedy_part = ObliviousVertexCut(seed=0).partition(graph, 16)
        return (
            ReplicationTable(graph, random_part),
            ReplicationTable(graph, greedy_part),
        )

    random_table, greedy_table = run_once(benchmark, build_tables)
    rf_random = random_table.replication_factor()
    rf_greedy = greedy_table.replication_factor()
    assert rf_greedy < rf_random * 0.8, (
        f"greedy {rf_greedy:.2f} vs random {rf_random:.2f}"
    )


def test_ablation_partitioner_traffic(benchmark, graph):
    """Lower replication translates into less FrogWild sync traffic."""

    def run_both():
        results = {}
        for name in ("random", "oblivious"):
            state = build_cluster(graph, 16, partitioner=name, seed=0)
            results[name] = run_frogwild(
                graph,
                FrogWildConfig(num_frogs=12_000, iterations=4, seed=0),
                state=state,
            )
        return results

    results = run_once(benchmark, run_both)
    assert (
        results["oblivious"].report.network_bytes
        < results["random"].report.network_bytes
    )


def test_ablation_teleport_probability(benchmark, graph, truth):
    """p_T controls mixing-vs-horizon: the paper's 0.15 beats extremes
    at a fixed 4-iteration budget or at least is never dominated."""

    def run_sweep():
        return {
            pt: normalized_mass_captured(
                _run(graph, ps=1.0, p_teleport=pt).estimate.vector(),
                truth,
                100,
            )
            for pt in (0.05, 0.15, 0.5)
        }

    masses = run_once(benchmark, run_sweep)
    # Huge p_T kills the walk before it can concentrate on hubs.
    assert masses[0.15] > masses[0.5]
    # All settings stay in a sane band.
    assert all(m > 0.7 for m in masses.values())
