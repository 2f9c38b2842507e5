"""Serving-layer benchmark: batched execution vs sequential queries.

The claim under test is the architectural one behind ``repro/serving``:
B personalized top-k queries coalesced into one
:class:`~repro.core.batched.BatchedFrogWildRunner` traversal answer in
well under half the wall-clock of B sequential
:func:`~repro.core.run_personalized_frogwild` calls — while returning
**bit-identical** per-query estimates, so the speedup is pure
amortization, not approximation.

Two baselines are measured on a Graph500-style RMAT workload:

* the repo's repeated-run idiom: the ingress *partition* is shared,
  per-run replication tables are rebuilt — this is what B independent
  ``run_personalized_frogwild`` calls cost today, and the < 0.5x
  acceptance bar is asserted against it;
* a stricter baseline that also shares the replication tables (the
  serving layer's own trick applied to the sequential path), against
  which the batched runner must still win.

Run directly: ``python -m pytest benchmarks/bench_serving.py -q``.

The headline numbers (wall times, amortization ratio) are persisted as
machine-readable records via :func:`repro.experiments.record_perf`
(``BENCH_serving.json``; override with ``REPRO_PERF_PATH``) so future
changes have a trajectory to compare against, not just a green check.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core import (
    FrogWildConfig,
    run_personalized_frogwild,
    run_personalized_frogwild_batch,
)
from repro.cluster import ReplicationTable, make_partitioner
from repro.engine import build_cluster
from repro.experiments import record_perf
from repro.graph import rmat
from repro.serving import RankingQuery, RankingService, VirtualClock

MACHINES = 16
BATCH = 16
CONFIG = FrogWildConfig(num_frogs=3_000, iterations=5, ps=0.8, seed=0)

_CACHE: dict[str, object] = {}


@pytest.fixture(scope="module")
def workload():
    if "workload" not in _CACHE:
        graph = rmat(scale=13, edge_factor=16, seed=7)
        partition = make_partitioner("random", 0).partition(graph, MACHINES)
        replication = ReplicationTable(graph, partition, seed=0)
        rng = np.random.default_rng(123)
        seed_sets = [
            np.sort(rng.choice(graph.num_vertices, size=3, replace=False))
            for _ in range(BATCH)
        ]
        _CACHE["workload"] = (graph, partition, replication, seed_sets)
    return _CACHE["workload"]


def _timed(fn, repeats: int = 1):
    """Best-of-``repeats`` wall-clock: the minimum is the standard
    noise-robust estimator, so a single noisy-neighbor stall on a
    shared CI runner cannot flip a ratio assertion."""
    best = float("inf")
    value = None
    for _ in range(repeats):
        start = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - start)
    return value, best


def _run_sequential(graph, seed_sets, state_factory):
    results = []
    for seeds in seed_sets:
        results.append(
            run_personalized_frogwild(
                graph, seeds, CONFIG, state=state_factory()
            )
        )
    return results


def test_batched_beats_sequential_wall_clock(workload):
    """B=16 batched < 0.5x the wall-clock of 16 sequential calls, with
    bit-identical per-query estimates."""
    graph, partition, replication, seed_sets = workload

    # Warm both paths (allocator, caches) before timing.
    run_personalized_frogwild_batch(
        graph,
        seed_sets[:2],
        CONFIG,
        state=build_cluster(
            graph, MACHINES, seed=0, replication=replication
        ),
    )

    sequential, sequential_s = _timed(
        lambda: _run_sequential(
            graph,
            seed_sets,
            lambda: build_cluster(graph, MACHINES, seed=0, partition=partition),
        ),
        repeats=2,
    )
    batched, batched_s = _timed(
        lambda: run_personalized_frogwild_batch(
            graph,
            seed_sets,
            CONFIG,
            state=build_cluster(
                graph, MACHINES, seed=0, replication=replication
            ),
        ),
        repeats=3,
    )

    for single, lane in zip(sequential, batched.results):
        np.testing.assert_array_equal(
            single.estimate.counts, lane.estimate.counts
        )

    ratio = batched_s / sequential_s
    print(
        f"\nsequential {sequential_s:.3f}s  batched {batched_s:.3f}s  "
        f"ratio {ratio:.3f}"
    )
    record_perf(
        "serving-batched-vs-sequential",
        {
            "sequential_s": sequential_s,
            "batched_s": batched_s,
            "wall_clock_ratio": ratio,
            "batch_size": BATCH,
        },
    )
    assert ratio < 0.5, (
        f"batched execution took {ratio:.2f}x of sequential "
        f"({batched_s:.3f}s vs {sequential_s:.3f}s); the amortization "
        "contract is < 0.5x"
    )


def test_batched_beats_fully_shared_sequential(workload):
    """Even when the sequential path also reuses the replication tables
    (the serving layer's own ingress trick), one shared traversal still
    wins on wall-clock."""
    graph, _, replication, seed_sets = workload

    sequential, sequential_s = _timed(
        lambda: _run_sequential(
            graph,
            seed_sets,
            lambda: build_cluster(
                graph, MACHINES, seed=0, replication=replication
            ),
        ),
        repeats=2,
    )
    batched, batched_s = _timed(
        lambda: run_personalized_frogwild_batch(
            graph,
            seed_sets,
            CONFIG,
            state=build_cluster(
                graph, MACHINES, seed=0, replication=replication
            ),
        ),
        repeats=3,
    )
    for single, lane in zip(sequential, batched.results):
        np.testing.assert_array_equal(
            single.estimate.counts, lane.estimate.counts
        )
    ratio = batched_s / sequential_s
    print(
        f"\nfully-shared sequential {sequential_s:.3f}s  "
        f"batched {batched_s:.3f}s  ratio {ratio:.3f}"
    )
    assert ratio < 0.85


def test_batch_amortizes_simulated_network(workload):
    """The simulated-cluster accounting agrees with the wall-clock
    story: the batch moves fewer wire bytes than its populations priced
    standalone, because sync and frog records share per-pair messages."""
    graph, _, replication, seed_sets = workload
    batched = run_personalized_frogwild_batch(
        graph,
        seed_sets,
        CONFIG,
        state=build_cluster(graph, MACHINES, seed=0, replication=replication),
    )
    attributed = batched.attributed_network_bytes()
    assert batched.report.network_bytes < attributed
    print(
        f"\nshared {batched.report.network_bytes:,} bytes vs "
        f"attributed {attributed:,} bytes "
        f"(amortization {batched.amortization_ratio():.3f})"
    )
    record_perf(
        "serving-network-amortization",
        {
            "shared_network_bytes": batched.report.network_bytes,
            "attributed_network_bytes": attributed,
            "amortization_ratio": batched.amortization_ratio(),
        },
    )


def test_trickle_workload_still_batches_under_deadline(workload):
    """A trickle workload — one query per 1 ms tick — still forms
    batches of >= 4 under a 5 ms deadline scheduler, driven entirely by
    a virtual clock (no sleeps, no background thread)."""
    graph, _, _, _ = workload
    clock = VirtualClock()
    service = RankingService(
        graph,
        CONFIG,
        num_machines=MACHINES,
        max_batch_size=BATCH,
        max_delay_s=0.005,
        clock=clock,
    )
    rng = np.random.default_rng(77)
    futures = []
    for _ in range(12):
        seeds = rng.choice(graph.num_vertices, size=3, replace=False)
        futures.append(service.submit(np.sort(seeds).tolist(), k=10))
        clock.advance(0.001)
        service.pump()
    clock.advance(0.005)
    service.pump()
    service.flush()
    assert all(future.done() for future in futures)
    sizes = service.stats.batch_sizes
    print(f"\ntrickle batch sizes {sizes} "
          f"({service.scheduler.stats.deadline_dispatches} deadline "
          f"dispatches)")
    assert service.scheduler.stats.deadline_dispatches >= 1
    # The deadline scheduler must beat one-query-per-arrival batching.
    assert max(sizes) >= 4, (
        f"trickle traffic executed in batches of {sizes}; the deadline "
        "scheduler should accumulate >= 4 queries per traversal"
    )
    assert service.stats.amortization_ratio() < 1.0


def test_service_cache_makes_repeat_traffic_free(workload):
    """End-to-end service path: a repeated burst of queries is served
    entirely from cache, orders of magnitude faster than execution."""
    graph, _, _, seed_sets = workload
    service = RankingService(
        graph,
        CONFIG,
        num_machines=MACHINES,
        max_batch_size=BATCH,
    )
    queries = [
        RankingQuery(seeds=tuple(seeds.tolist()), k=10) for seeds in seed_sets
    ]
    cold, cold_s = _timed(lambda: service.query_batch(queries))
    warm, warm_s = _timed(lambda: service.query_batch(queries), repeats=3)
    assert not any(answer.cached for answer in cold)
    assert all(answer.cached for answer in warm)
    for first, second in zip(cold, warm):
        np.testing.assert_array_equal(first.vertices, second.vertices)
    assert warm_s < cold_s / 10
    print(f"\ncold {cold_s:.3f}s  warm {warm_s:.4f}s")
