"""What the parity suites compare the one superstep to.

A lane of a batch is the paper's algorithm run alone, so its counters,
attributed bytes, CPU seconds and supersteps must equal a run alone
with that lane's frog budget, seed, ``ps`` and birth law on a fresh
state of the same ingress.  A run alone is itself the B = 1 lane of the
batched runner now, so the reference is data: the outputs of the
standalone runner that ran it until commit ef87423 — counts digest,
``network_bytes``, ``cpu_seconds``, ``supersteps`` and ``total_time_s``
of every case the suites name in their ``STANDALONE`` tables, plus the
fault and checkpoint runs of their ``FAULT_RUNS`` tables with their
fault logs — stored in ``data/standalone_ef87423.json``
(:func:`assert_lanes_match_standalone`, :func:`assert_run_pinned`).
They were recorded with this script, through the public entry points
that commit still ran on the standalone runner::

    git archive ef87423 src | tar -x -C /tmp/parent
    PYTHONPATH=/tmp/parent/src python tests/batch_reference.py standalone

Two things no run alone can give: a lane's ``total_time_s`` is the
*batch's* simulated time while the lane was live, and the batch-level
report prices physical messages whose headers the lanes share.  Those
are pinned (:func:`assert_physical_report_pinned`) to the values the
per-lane reference loop produced at commit 3781176, the last one that
carried it (``kernel="lane-loop"``), stored in
``data/batch_reports_3781176.json``.  They were recorded by this script
as of commit 203fb0a, whose ``run_pinned`` still took a tier::

    git archive 3781176 src | tar -x -C /tmp/parent
    git archive 203fb0a tests | tar -x -C /tmp/parent
    PYTHONPATH=/tmp/parent/src python /tmp/parent/tests/batch_reference.py lane-loop

Running ``python tests/batch_reference.py [standalone]`` against the
current ``src`` rewrites either file from today's superstep; a diff in
it is a changed answer.
"""

import hashlib
import json
import pathlib
import sys
from dataclasses import replace

import numpy as np

from repro.core import run_frogwild, run_personalized_frogwild
from repro.engine import build_cluster

DATA = pathlib.Path(__file__).parent / "data"
PINNED_PATH = DATA / "batch_reports_3781176.json"
STANDALONE_PATH = DATA / "standalone_ef87423.json"
# What a lane shares with its run alone (its time is the batch's).
LANE_FIELDS = ("counts", "network_bytes", "cpu_seconds", "supersteps")


def outcome(result):
    """The pinned outputs of one run or lane."""
    counts = np.ascontiguousarray(result.estimate.counts, dtype=np.int64)
    return {
        "counts": hashlib.sha256(counts.tobytes()).hexdigest()[:16],
        "network_bytes": result.report.network_bytes,
        "cpu_seconds": result.report.cpu_seconds,
        "supersteps": result.report.supersteps,
        "total_time_s": result.report.total_time_s,
    }


def run_alone(graph, machines, config, query):
    """``query`` of a ``config`` batch run alone on a fresh state of the
    batch's ingress, through the public entry points (a seeded query
    goes in as its seeds and weights)."""
    state = build_cluster(graph, machines, seed=config.seed)
    overrides = {
        field: getattr(query, field)
        for field in ("num_frogs", "seed", "ps")
        if getattr(query, field) is not None
    }
    config = replace(config, **overrides)
    if query.seeds is None:
        return run_frogwild(graph, config, state=state)
    return run_personalized_frogwild(
        graph, query.seeds, config, weights=query.weights, state=state
    )


def _standalone():
    return json.loads(STANDALONE_PATH.read_text())


def assert_lanes_match_standalone(name, batch):
    """Every lane of ``batch`` is the pinned run alone of its query."""
    pinned = _standalone()[name]
    assert len(pinned) == len(batch.results)
    for lane, alone in zip(batch.results, pinned):
        got = outcome(lane)
        assert {f: got[f] for f in LANE_FIELDS} == {
            f: alone[f] for f in LANE_FIELDS
        }


def assert_run_pinned(name, result, **extra):
    """A run alone (and ``extra`` facts about it, e.g. its fault log)
    is the pinned one, every field."""
    assert [{**outcome(result), **extra}] == _standalone()[name]


def physical_report(batch):
    return {
        "lane_total_time_s": [
            lane.report.total_time_s for lane in batch.results
        ],
        "network_bytes": batch.report.network_bytes,
        "cpu_seconds": batch.report.cpu_seconds,
        "total_time_s": batch.report.total_time_s,
    }


def assert_physical_report_pinned(name, batch):
    pinned = json.loads(PINNED_PATH.read_text())
    assert physical_report(batch) == pinned[name]


def _record_standalone():
    import test_batch_kernel
    import test_batched_frogwild
    import test_checkpoint
    import test_dense_superstep
    import test_faults
    import test_frog_proportional

    modules = (
        test_batch_kernel, test_batched_frogwild, test_checkpoint,
        test_dense_superstep, test_faults, test_frog_proportional,
    )
    reports = {}
    for module in modules:
        for name, (graph, machines, config, queries) in getattr(
            module, "STANDALONE", {}
        ).items():
            reports[name] = [
                outcome(run_alone(graph, machines, config, query))
                for query in queries
            ]
        for name, run in getattr(module, "FAULT_RUNS", {}).items():
            result, extra = run()
            reports[name] = [{**outcome(result), **extra}]
    STANDALONE_PATH.write_text(
        json.dumps(dict(sorted(reports.items())), indent=1) + "\n"
    )


if __name__ == "__main__":
    if sys.argv[1:] == ["standalone"]:
        _record_standalone()
    else:
        import test_batch_kernel
        import test_frog_proportional

        reports = {
            name: physical_report(module.run_pinned(name))
            for module in (test_batch_kernel, test_frog_proportional)
            for name in module.PINNED
        }
        PINNED_PATH.write_text(json.dumps(reports, indent=1) + "\n")
