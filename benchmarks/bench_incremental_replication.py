"""Background-refresh benchmark.

One claim gates here, landing a machine-readable record in
``BENCH_serving.json`` for the CI perf-gate lane:

* **background refresh keeps the swap off the query path** — the
  publish step a query can ever contend on is the atomic epoch swap,
  orders of magnitude below the build it double-buffers; the p50
  publish latency and mean build time are recorded, and every submitted
  delta is covered by a published epoch even when builds coalesce.

(The patch-vs-rebuild half of this file went with the patch path: a
table patch never measured cheaper than the from-scratch build — see
README, "What a refresh costs, and why".)

Set ``REPRO_BENCH_SMOKE=1`` for the CI smoke mode: a tiny graph,
assertions only, same record.

Run directly: ``python -m pytest benchmarks/bench_incremental_replication.py -q``.
"""

from __future__ import annotations

import os

from repro.core import FrogWildConfig
from repro.dynamic import ChurnGenerator, DynamicDiGraph
from repro.experiments import record_perf
from repro.graph import rmat
from repro.live import LiveRankingService

SMOKE = bool(int(os.environ.get("REPRO_BENCH_SMOKE", "0")))
SCALE = 9 if SMOKE else 13
MACHINES = 8
TICKS = 3 if SMOKE else 4


def test_background_refresh_publish_stays_off_the_query_path():
    graph = rmat(scale=SCALE, edge_factor=12, seed=7)
    dynamic = DynamicDiGraph.from_digraph(graph)
    service = LiveRankingService(
        dynamic,
        config=FrogWildConfig(num_frogs=500 if SMOKE else 2_000, iterations=3, seed=0),
        num_machines=MACHINES,
        seed=0,
    )
    churn = ChurnGenerator(add_rate=0.01, remove_rate=0.01, seed=5)
    service.start_refresher()
    try:
        tickets = service.attach(churn, ticks=TICKS, background=True)
        updates = [ticket.result(timeout=120) for ticket in tickets]
    finally:
        service.stop()

    stats = service.refresher.stats
    assert stats.builds >= 1
    assert stats.deltas_submitted == TICKS
    # Coalescing accounting: every submitted delta is covered exactly
    # once across the distinct published updates.
    distinct = {id(u): u for u in updates}.values()
    assert sum(u.coalesced_deltas for u in distinct) == TICKS
    publish_p50 = stats.publish_p50_s()
    mean_build = stats.mean_build_s()
    print(
        f"\n{stats.builds} background builds covered {TICKS} deltas "
        f"(max coalesce {stats.max_coalesced}); publish p50 "
        f"{publish_p50 * 1e6:.1f} us vs mean build "
        f"{mean_build * 1e3:.1f} ms"
    )
    if not SMOKE:
        # The swap is the only query-path exposure; it must be far
        # below the build it double-buffers (observed ~1000x below).
        assert publish_p50 < 0.1 * mean_build
    record_perf(
        "background-refresh",
        {
            "publish_p50_s": publish_p50,
            "mean_build_s": mean_build,
            "builds": stats.builds,
            "deltas_submitted": stats.deltas_submitted,
            "deltas_coalesced": stats.deltas_coalesced,
            "max_coalesced": stats.max_coalesced,
            "publish_to_build_ratio": (
                publish_p50 / mean_build if mean_build else 0.0
            ),
            "smoke": SMOKE,
        },
    )
