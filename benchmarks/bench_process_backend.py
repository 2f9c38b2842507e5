"""Process-pool backend benchmark: true multi-core scale-out.

The claim under test is the tentpole behind
:class:`~repro.serving.ProcessPoolBackend`: with the graph's CSR
arrays and every shard's replication table in shared memory, one OS
process per shard executes the same sharded batch the in-process
:class:`~repro.serving.ShardedBackend` simulates — **bitwise
identically** — while actually occupying multiple cores.  On a
machine with >= 4 cores, 4 worker processes must answer the batch in
at most half the wall-clock of the single-process
:class:`~repro.serving.LocalBackend` (>= 2x speedup); the golden
top-k must be unchanged and the measured transport bytes must
reconcile with the simulated :class:`~repro.cluster.MessageSizeModel`
pricing.

Wall-clock honesty: the speedup is *recorded* unconditionally (with
the host's ``cpu_count`` alongside, so a 1-core CI container's
number is interpretable) but *asserted* only where it is physically
achievable — a real-run host with >= 4 cores.  What every host can
hold the pool to is its *overhead*: the same batch is also timed on
the in-process :class:`~repro.serving.ShardedBackend` (the identical
work, minus processes, pipes and shared memory), and the full-size
lane asserts ``overhead_ratio = process_s / sharded_s <= 1.5`` — a
pool that sleeps on its pipes (5.0 before the event-driven gather)
fails it on any core count.  Smoke mode (``REPRO_BENCH_SMOKE=1``)
shrinks the workload and asserts the scale-out contract instead:
every worker participates, results are bitwise equal to the sharded
reference, and the transport reconciles.

Run directly: ``python -m pytest benchmarks/bench_process_backend.py -q``.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.core import FrogWildConfig
from repro.experiments import record_perf
from repro.graph import rmat
from repro.serving import (
    LocalBackend,
    ProcessPoolBackend,
    RankingQuery,
    ShardedBackend,
)

SMOKE = bool(int(os.environ.get("REPRO_BENCH_SMOKE", "0")))

WORKERS = 4
MACHINES = 8
SCALE = 10 if SMOKE else 13
CONFIG = FrogWildConfig(
    num_frogs=4_000 if SMOKE else 60_000,
    iterations=3 if SMOKE else 6,
    ps=0.8,
    seed=0,
)
BATCH = 4 if SMOKE else 8
REPEATS = 2 if SMOKE else 5

_CACHE: dict[str, object] = {}


@pytest.fixture(scope="module")
def workload():
    if "workload" not in _CACHE:
        graph = rmat(scale=SCALE, edge_factor=16, seed=7)
        rng = np.random.default_rng(123)
        queries = [
            RankingQuery(
                seeds=tuple(
                    np.sort(
                        rng.choice(graph.num_vertices, size=3, replace=False)
                    ).tolist()
                ),
                k=10,
            )
            for _ in range(BATCH)
        ]
        _CACHE["workload"] = (graph, queries)
    return _CACHE["workload"]


def _overlap(a: np.ndarray, b: np.ndarray) -> float:
    return len(set(a.tolist()) & set(b.tolist())) / len(a)


def _timed(fn, repeats):
    """Best-of-``repeats``: the noise-robust wall-clock estimator (it
    also skips a fresh worker's first batches, which pay allocator
    warm-up rather than pool cost)."""
    best = float("inf")
    value = None
    for _ in range(repeats):
        start = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - start)
    return value, best


def test_process_backend_scaleout(workload):
    graph, queries = workload
    cpu_count = os.cpu_count() or 1

    local = LocalBackend(graph, num_machines=MACHINES, seed=0)
    sharded = ShardedBackend(
        graph, num_shards=WORKERS, num_machines=MACHINES, seed=0
    )
    sharded_outcome, sharded_s = _timed(
        lambda: sharded.run_batch(CONFIG, queries), REPEATS
    )
    local_outcome, local_s = _timed(
        lambda: local.run_batch(CONFIG, queries), REPEATS
    )
    with ProcessPoolBackend(
        graph, num_shards=WORKERS, num_machines=MACHINES, seed=0
    ) as backend:
        process_outcome, process_s = _timed(
            lambda: backend.run_batch(CONFIG, queries), REPEATS
        )
        transport = backend.transport_summary()

    # Scale-out contract: every worker ran a share of every batch.
    assert len(process_outcome.shards) == WORKERS

    # Golden top-k unchanged: the process pool is bitwise the sharded
    # backend (same tables, shares, per-shard seeds), and its top-k
    # overlaps the single-process baseline at golden tolerance.
    overlaps = []
    for process_lane, sharded_lane, local_lane in zip(
        process_outcome.lanes, sharded_outcome.lanes, local_outcome.lanes
    ):
        np.testing.assert_array_equal(
            process_lane.estimate.counts, sharded_lane.estimate.counts
        )
        overlaps.append(
            _overlap(
                process_lane.estimate.top_k(10),
                local_lane.estimate.top_k(10),
            )
        )
    topk_overlap = float(np.mean(overlaps))
    assert topk_overlap >= 0.6

    # Measured transport bytes reconcile with the simulated pricing.
    assert transport["reconciles"] == 1.0
    assert transport["sent_measured_bytes"] > 0

    speedup = local_s / process_s if process_s > 0 else float("inf")
    overhead_ratio = process_s / sharded_s
    print(
        f"\nlocal {local_s:.3f}s  sharded {sharded_s:.3f}s  "
        f"process({WORKERS} workers) {process_s:.3f}s  "
        f"speedup {speedup:.2f}x  overhead {overhead_ratio:.2f}x sharded  "
        f"(host cpu_count={cpu_count})  topk overlap {topk_overlap:.2f}"
    )
    record_perf(
        "process-backend-scaleout",
        {
            "local_s": local_s,
            "sharded_s": sharded_s,
            "process_s": process_s,
            "speedup": speedup,
            "overhead_ratio": overhead_ratio,
            "workers": WORKERS,
            "cpu_count": cpu_count,
            "batch_size": BATCH,
            "repeats": REPEATS,
            "num_frogs": CONFIG.num_frogs,
            "golden_topk_bitwise_vs_sharded": 1.0,
            "topk_overlap_vs_local": topk_overlap,
            "transport_reconciles": transport["reconciles"],
            "transport_measured_bytes": transport["sent_measured_bytes"],
            "smoke": float(SMOKE),
        },
    )

    # Any host can hold the pool to the in-process backend doing the
    # same work (smoke batches are too small to price a fixed cost).
    if not SMOKE:
        assert overhead_ratio <= 1.5, (
            f"the pool took {process_s:.3f}s where ShardedBackend took "
            f"{sharded_s:.3f}s ({overhead_ratio:.2f}x) on a "
            f"{cpu_count}-core host; the overhead contract is <= 1.5x"
        )
    # The >= 2x bar needs >= 4 real cores and the full workload; on a
    # smaller host the honest number is recorded above, not asserted.
    if not SMOKE and cpu_count >= WORKERS:
        assert speedup >= 2.0, (
            f"{WORKERS} workers achieved only {speedup:.2f}x over "
            f"LocalBackend ({process_s:.3f}s vs {local_s:.3f}s) on a "
            f"{cpu_count}-core host; the scale-out contract is >= 2x"
        )
