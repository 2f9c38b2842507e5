"""Every run's bill, pinned: report numerics and per-phase breakdown.

The simulated cluster's bill — bytes and messages by record kind, CPU
ops by phase, supersteps and simulated time — is what Figure 1 plots.
These cases pin ``RunReport.as_dict()`` and ``traffic_breakdown(state)``
of the BSP engine (GraphLab PR at 1, 4 and 16 machines, 1 and 2
iterations and converged; sparsified PR), the single FrogWild run, a
checkpointed run (its ``"checkpoint"`` bytes) and straggler cost-model
runs to the values commit c5b0c60 produced, stored in
``data/reports_c5b0c60.json``.  Equality is exact: floats round-trip
through JSON bit for bit, and a breakdown key set that gains a zero
phase or kind is a difference too.

``python tests/test_pinned_reports.py`` rewrites the file from today's
``src``; a diff in it is a changed bill.
"""

import json
import pathlib

import pytest

from repro.core import FrogWildConfig, run_frogwild
from repro.engine import build_cluster, traffic_breakdown
from repro.faults import (
    CheckpointConfig,
    CheckpointedFrogWildRunner,
    FaultSchedule,
    MachineCrash,
    StragglerCostModel,
)
from repro.graph import twitter_like
from repro.pagerank import graphlab_pagerank, sparsified_pagerank

PINNED_PATH = pathlib.Path(__file__).parent / "data" / "reports_c5b0c60.json"

_FROGS = FrogWildConfig(num_frogs=20_000, iterations=4, ps=0.7, seed=3)
_STRAGGLERS = StragglerCostModel(slowdowns=(1.0, 3.0, 1.0, 1.5))


def _graph():
    return twitter_like(n=2000, seed=42)


def _graphlab(machines, iterations, **kwargs):
    return lambda: graphlab_pagerank(
        _graph(), num_machines=machines, iterations=iterations, **kwargs
    )


def _frogwild(machines, **kwargs):
    return lambda: run_frogwild(
        _graph(), _FROGS, num_machines=machines, **kwargs
    )


def _checkpointed():
    state = build_cluster(_graph(), 4, seed=0)
    schedule = FaultSchedule(crashes=(MachineCrash(step=2, machine=1),))
    return CheckpointedFrogWildRunner(
        state, _FROGS, schedule, CheckpointConfig(interval=2)
    ).run()


CASES = {
    **{
        f"graphlab-m{machines}-{label}": _graphlab(machines, iterations)
        for machines in (1, 4, 16)
        for label, iterations in (("it1", 1), ("it2", 2), ("exact", None))
    },
    "sparsified-m4": lambda: sparsified_pagerank(
        _graph(), keep_probability=0.4, num_machines=4
    ),
    **{
        f"frogwild-m{machines}": _frogwild(machines)
        for machines in (1, 4, 16)
    },
    "checkpointed-m4": _checkpointed,
    "straggler-frogwild-m4": _frogwild(4, cost_model=_STRAGGLERS),
    "straggler-graphlab-m4": _graphlab(4, 2, cost_model=_STRAGGLERS),
}


def bill(result):
    """The pinned facts of one run: its report and its breakdown."""
    breakdown = traffic_breakdown(result.state)
    return {
        "report": result.report.as_dict(),
        "bytes_by_kind": breakdown.bytes_by_kind,
        "messages_by_kind": breakdown.messages_by_kind,
        "ops_by_phase": breakdown.ops_by_phase,
    }


@pytest.mark.parametrize("name", sorted(CASES))
def test_bill_is_pinned(name):
    pinned = json.loads(PINNED_PATH.read_text())[name]
    assert bill(CASES[name]()) == pinned


def test_checkpoint_bytes_are_pinned():
    pinned = json.loads(PINNED_PATH.read_text())["checkpointed-m4"]
    assert pinned["bytes_by_kind"]["checkpoint"] > 0


if __name__ == "__main__":
    PINNED_PATH.write_text(
        json.dumps(
            {name: bill(CASES[name]()) for name in sorted(CASES)},
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )
