"""Batch-kernel microbenchmark: the one batched superstep.

What is measured and asserted:

* **throughput** — wall time and frog-steps/s of advancing B
  populations through one concatenated ``(lane, vertex)`` frontier,
  at B in {1, 4, 16, 64} on the sharded-serving shape (many lanes with
  modest per-lane budgets, the frontier mix a shard sees when
  per-query budgets are split).  The
  B=1 batch is asserted bit-identical to ``run_frogwild``.  The
  timings are a record, not a gate: single shots on a shared host.
* **shared sync** — ``sync_mode="shared"`` emits one sync record per
  (vertex, mirror) per barrier regardless of B.  On an
  identical-frontier batch (every lane walks the same frontier, so the
  union *is* each lane's frontier) the physical sync-record cut versus
  per-lane mode is therefore >= (B-1)/B at ps=0.7 — asserted exactly.
  The measured cut on a distinct-lane batch (union larger than any one
  lane's frontier) is recorded alongside as the realistic figure.

Headline numbers (per-B wall times, frog-step throughput, record cuts)
are persisted via :func:`repro.experiments.record_perf` into
``BENCH_serving.json``.

Run directly: ``python -m pytest benchmarks/bench_batch_kernel.py -q``.
Set ``REPRO_BENCH_SMOKE=1`` for the CI smoke mode: a tiny graph, every
correctness/record assertion intact.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.cluster import ReplicationTable, make_partitioner
from repro.core import (
    BatchQuery,
    FrogWildConfig,
    run_frogwild,
    run_frogwild_batch,
)
from repro.engine import build_cluster
from repro.experiments import record_perf
from repro.graph import rmat

SMOKE = bool(int(os.environ.get("REPRO_BENCH_SMOKE", "0")))

SCALE = 10 if SMOKE else 13
EDGE_FACTOR = 8 if SMOKE else 16
MACHINES = 8 if SMOKE else 16
FROGS_PER_LANE = 100
ITERATIONS = 4 if SMOKE else 6
PS = 0.7
BATCH_SIZES = (1, 4, 16) if SMOKE else (1, 4, 16, 64)

_CACHE: dict[str, object] = {}


@pytest.fixture(scope="module")
def cluster():
    if "cluster" not in _CACHE:
        graph = rmat(scale=SCALE, edge_factor=EDGE_FACTOR, seed=7)
        partition = make_partitioner("random", 0).partition(graph, MACHINES)
        replication = ReplicationTable(graph, partition, seed=0)
        _CACHE["cluster"] = (graph, replication)
    return _CACHE["cluster"]


def _state(graph, replication):
    return build_cluster(graph, MACHINES, seed=0, replication=replication)


def _timed(fn, repeats):
    """Best-of-``repeats``: the noise-robust wall-clock estimator."""
    best = float("inf")
    value = None
    for _ in range(repeats):
        start = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - start)
    return value, best


def test_fused_kernel_throughput(cluster):
    """Superstep throughput at B in {1, 4, 16, 64};
    the B=1 batch must be bit-identical to the standalone runner."""
    graph, replication = cluster
    config = FrogWildConfig(
        num_frogs=FROGS_PER_LANE, iterations=ITERATIONS, ps=PS, seed=0
    )
    metrics: dict[str, float] = {
        "frogs_per_lane": FROGS_PER_LANE,
        "iterations": ITERATIONS,
        "machines": MACHINES,
        "rmat_scale": SCALE,
        "smoke": float(SMOKE),
    }
    for batch_size in BATCH_SIZES:
        queries = [BatchQuery(seed=s) for s in range(batch_size)]

        def run():
            return run_frogwild_batch(
                graph, queries, config, state=_state(graph, replication)
            )

        run()  # warm
        fused, fused_s = _timed(run, repeats=3)
        if batch_size == 1:
            single = run_frogwild(
                graph, config, state=_state(graph, replication)
            )
            np.testing.assert_array_equal(
                fused.results[0].estimate.counts, single.estimate.counts
            )
            assert fused.report.network_bytes == single.report.network_bytes
        frog_steps = sum(
            lane.report.extra["num_frogs"] * lane.report.supersteps
            for lane in fused.results
        )
        metrics[f"fused_s_b{batch_size}"] = fused_s
        metrics[f"frog_steps_per_s_b{batch_size}"] = frog_steps / fused_s
        print(
            f"\nB={batch_size:3d}  fused {fused_s * 1e3:7.2f} ms  "
            f"({frog_steps / fused_s / 1e6:.2f}M frog-steps/s)"
        )
    record_perf("batch-kernel-throughput", metrics)


def test_shared_sync_cuts_physical_records(cluster):
    """Shared sync at ps=0.7: one record per (vertex, mirror) per
    barrier, independent of B.

    The cut is measured coin-exactly: the batch report carries both the
    physical sync records and the *demand* — what per-lane accounting
    of the very same coin outcomes would have billed — so the
    comparison has no cross-stream sampling noise.  On an
    identical-frontier batch (every lane walks the same frontier) the
    demand is exactly B x physical, so the cut is >= (B-1)/B; a
    distinct-lane batch (union frontier larger than any single lane's)
    is recorded as the realistic figure.  B-independence is also pinned
    exactly: an identical-frontier batch of 16 emits the same record
    total as the batch of 1."""
    graph, replication = cluster
    batch_size = 16
    # Saturating budget: the frontier covers (nearly) every vertex, so
    # identical-seed lanes make the union equal each lane's frontier.
    config = FrogWildConfig(
        num_frogs=4 * graph.num_vertices,
        iterations=3,
        ps=PS,
        seed=0,
        sync_mode="shared",
    )

    def run(queries):
        return run_frogwild_batch(
            graph, queries, config, state=_state(graph, replication)
        ).report.extra

    def cut_of(extra):
        return 1.0 - extra["sync_records"] / extra["sync_demand_records"]

    identical = run([BatchQuery(seed=7) for _ in range(batch_size)])
    solo = run([BatchQuery(seed=7)])
    distinct = run([BatchQuery(seed=100 + s) for s in range(batch_size)])
    identical_cut = cut_of(identical)
    distinct_cut = cut_of(distinct)

    print(
        f"\nidentical-frontier cut {identical_cut:.5f} "
        f"(bound {(batch_size - 1) / batch_size:.5f}); "
        f"distinct-lane cut {distinct_cut:.5f}; "
        f"records B=16 {identical['sync_records']:.0f} "
        f"== B=1 {solo['sync_records']:.0f}"
    )
    record_perf(
        "batch-kernel-shared-sync",
        {
            "batch_size": batch_size,
            "ps": PS,
            "shared_sync_records": identical["sync_records"],
            "per_lane_demand_records": identical["sync_demand_records"],
            "identical_frontier_cut": identical_cut,
            "distinct_lane_cut": distinct_cut,
            "smoke": float(SMOKE),
        },
    )
    # One record per (vertex, mirror) per barrier, independent of B:
    # the identical-frontier batch bills exactly the B=1 totals.
    assert identical["sync_records"] == solo["sync_records"]
    assert identical["repair_records"] == solo["repair_records"]
    assert identical_cut >= (batch_size - 1) / batch_size, (
        f"shared sync cut only {identical_cut:.5f} of the per-lane sync "
        f"billing on an identical-frontier batch of {batch_size}; the "
        "one-record-per-(vertex, mirror) contract guarantees "
        f">= {(batch_size - 1) / batch_size:.5f}"
    )
    # Distinct lanes overlap heavily on a saturating budget too: the
    # cut must stay deep even when the union exceeds single frontiers.
    assert distinct_cut >= 0.5


def test_wire_dedupe_cuts_frog_records(cluster):
    """Wire dedupe is free accuracy-wise (bit-identical estimates) and
    collapses cross-lane duplicate (host, destination) records; the
    per-lane attribution always sums back to the physical count."""
    graph, replication = cluster
    config = FrogWildConfig(
        num_frogs=4 * graph.num_vertices, iterations=3, ps=PS, seed=0
    )
    queries = [BatchQuery(seed=100 + s) for s in range(8)]

    def run(**updates):
        return run_frogwild_batch(
            graph,
            queries,
            config.with_updates(**updates),
            state=_state(graph, replication),
        )

    plain = run()
    deduped = run(wire_dedupe=True)
    for lane_plain, lane_deduped in zip(plain.results, deduped.results):
        np.testing.assert_array_equal(
            lane_plain.estimate.counts, lane_deduped.estimate.counts
        )
    attributed = sum(
        lane.ledger.network_records for lane in deduped.results
    )
    physical = sum(deduped.report.extra[key] for key in (
        "sync_records", "repair_records", "frog_records"
    ))
    assert attributed == physical
    dedupe_ratio = (
        deduped.report.extra["frog_records"]
        / plain.report.extra["frog_records"]
    )
    print(f"\nfrog-record dedupe ratio {dedupe_ratio:.4f}")
    record_perf(
        "batch-kernel-wire-dedupe",
        {
            "batch_size": len(queries),
            "plain_frog_records": plain.report.extra["frog_records"],
            "deduped_frog_records": deduped.report.extra["frog_records"],
            "dedupe_ratio": dedupe_ratio,
            "smoke": float(SMOKE),
        },
    )
    # A saturating workload overlaps lanes heavily; dedupe must bite.
    assert dedupe_ratio < 0.75
