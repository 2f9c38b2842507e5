"""Shared bytes per executed query, batch size and dispatch kinds per
traffic phase on serve-zipf-open's started service.

Runs bench's serve-zipf-open (setup, warm-up, ``service.start()``),
its r60 and r120 open-loop phases, then four all-miss phases of
never-repeated 3-seed queries at Poisson 100-400 qps, and prints one
JSON line of the service's own counters per phase.  ``TREE`` is the
checkout to import ``bench/`` and ``src/`` from, so two trees can be
compared on the same seed:

    python3 benchmarks/records/pr49-amortization.py TREE SEED
"""
import json
import os
import sys

os.environ.setdefault("NUMPY_MADVISE_HUGEPAGE", "0")
tree = sys.argv[1]
seed = int(sys.argv[2])
sys.path.insert(0, os.path.join(tree, "bench"))
sys.path.insert(0, os.path.join(tree, "src"))

import numpy as np  # noqa: E402
import workloads  # noqa: E402
from repro.serving.batching import RankingQuery  # noqa: E402
from repro.traffic.workload import QueryEvent  # noqa: E402

wl = workloads.WORKLOADS["serve-zipf-open"](seed, False)
wl.generate()
wl.setup()
wl.reference = wl.reference_digest()
wl.warmup()
svc = wl.service


def snap():
    s, sch = svc.stats, svc.scheduler.stats
    return {
        "executed": s.queries_executed,
        "shared": s.shared_network_bytes,
        "attributed": s.attributed_network_bytes,
        "batches": s.batch_size_count,
        "lanes": s.batch_size_sum,
        "deadline": sch.deadline_dispatches,
        "idle": getattr(sch, "idle_dispatches", 0),
        "fill": sch.fill_dispatches,
    }


def summary(before, after, samples):
    d = {k: after[k] - before[k] for k in after}
    ex = max(1, d["executed"])
    return {
        "executed": d["executed"],
        "shared_B_per_executed": d["shared"] / ex,
        "batch_size_mean": d["lanes"] / max(1, d["batches"]),
        "amortization_ratio": d["shared"] / max(1, d["attributed"]),
        "deadline": d["deadline"],
        "idle": d["idle"],
        "fill": d["fill"],
        "miss_p50_ms": float(np.median(samples.miss_ms)) if samples.miss_ms else 0.0,
        "p50_ms": float(np.median(samples.primary_ms)) if samples.primary_ms else 0.0,
        "failed": samples.failed,
    }


out = {"tree": tree, "seed": seed}
for tag, rate, secs in (("r60", 60.0, 9.0), ("r120", 120.0, 6.0)):
    samples = workloads.Samples()
    before = snap()
    wl.run_phase(tag, rate, secs, samples)
    out[tag] = summary(before, snap(), samples)

# All-miss trickle: never-repeated 3-seed queries, Poisson arrivals.
rng = np.random.default_rng([seed, 77])
n = wl.graph.num_vertices
for rate in (100.0, 200.0, 300.0, 400.0):
    secs = 4.0
    count = int(rate * secs)
    times = np.cumsum(rng.exponential(1.0 / rate, size=count))
    events = []
    for t in times:
        seeds = tuple(sorted(int(v) for v in rng.choice(n, 3, replace=False)))
        events.append(QueryEvent(float(t), -1, RankingQuery(seeds=seeds, k=10)))
    samples = workloads.Samples()
    before = snap()
    wl.drive(events, samples)
    row = summary(before, snap(), samples)
    out[f"miss{int(rate)}"] = row
wl.teardown()
print(json.dumps(out))
