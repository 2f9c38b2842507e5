"""What the batch parity suites compare the one batched superstep to.

A lane of a batch is the paper's algorithm run alone, so its counters,
attributed bytes, CPU seconds and supersteps must equal a standalone
:class:`~repro.core.FrogWildRunner` run with that lane's frog budget,
seed, ``ps`` and birth law on a fresh state of the same ingress
(:func:`assert_lanes_match_standalone`).

Two things no standalone run can give: a lane's ``total_time_s`` is the
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

Running ``python tests/batch_reference.py`` against the current ``src``
rewrites the file from today's superstep; a diff in it is a changed
answer.
"""

import json
import pathlib
from dataclasses import replace

import numpy as np

from repro.core import FrogWildRunner
from repro.engine import build_cluster

PINNED_PATH = (
    pathlib.Path(__file__).parent / "data" / "batch_reports_3781176.json"
)


def assert_lanes_match_standalone(graph, machines, config, queries, batch):
    for query, lane in zip(queries, batch.results):
        overrides = {
            field: getattr(query, field)
            for field in ("num_frogs", "seed", "ps")
            if getattr(query, field) is not None
        }
        single = FrogWildRunner(
            build_cluster(graph, machines, seed=config.seed),
            replace(config, **overrides),
            query.start_distribution,
        ).run()
        np.testing.assert_array_equal(
            lane.estimate.counts, single.estimate.counts
        )
        assert lane.report.network_bytes == single.report.network_bytes
        assert lane.report.cpu_seconds == single.report.cpu_seconds
        assert lane.report.supersteps == single.report.supersteps


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


if __name__ == "__main__":
    import test_batch_kernel
    import test_frog_proportional

    reports = {
        name: physical_report(module.run_pinned(name))
        for module in (test_batch_kernel, test_frog_proportional)
        for name in module.PINNED
    }
    PINNED_PATH.write_text(json.dumps(reports, indent=1) + "\n")
