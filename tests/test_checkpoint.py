"""Tests for checkpoint/restore recovery vs uniform rebirth.

Every checkpointed run below is also pinned bit for bit — counts
digest, report numerics, fault log and checkpoint counters — to the
standalone runner it subclassed before it became a one-lane batch
(:data:`FAULT_RUNS`, ``batch_reference.py``).
"""

from dataclasses import asdict

import numpy as np
import pytest

from batch_reference import assert_run_pinned
from repro.core import FrogWildConfig
from repro.engine import build_cluster, traffic_breakdown
from repro.errors import ConfigError
from repro.faults import (
    CheckpointConfig,
    CheckpointedFrogWildRunner,
    FaultSchedule,
    MachineCrash,
)
from repro.graph import twitter_like
from repro.metrics import normalized_mass_captured
from repro.pagerank import exact_pagerank

_CONFIG = FrogWildConfig(num_frogs=10_000, iterations=4, seed=0)


def _run(graph, schedule, interval=1, machines=4):
    state = build_cluster(graph, machines, seed=0)
    runner = CheckpointedFrogWildRunner(
        state, _CONFIG, schedule, CheckpointConfig(interval=interval)
    )
    result = runner.run()
    return runner, result


def _pinned(schedule, interval=1, machines=4):
    """A pinned checkpointed run: (result, log and counters) when called."""

    def run():
        runner, result = _run(
            twitter_like(n=1500, seed=42),  # the small_twitter fixture
            schedule, interval, machines,
        )
        return result, {
            **asdict(runner.fault_log),
            "frogs_restored": runner.frogs_restored,
            "checkpoints_taken": runner.checkpoints_taken,
        }

    return run


def _crash(step, machine):
    return FaultSchedule(crashes=(MachineCrash(step=step, machine=machine),))


# name -> checkpointed run whose output is pinned in tests/data.
FAULT_RUNS = {
    "checkpoint-every-step": _pinned(FaultSchedule()),
    "checkpoint-every-2": _pinned(FaultSchedule(), interval=2),
    "checkpoint-one-machine": _pinned(FaultSchedule(), machines=1),
    "checkpoint-crash": _pinned(_crash(2, 0)),
    "checkpoint-crash-8": _pinned(_crash(2, 1), machines=8),
    "checkpoint-stale": _pinned(_crash(3, 0), interval=4),
}


class TestPinnedToTheStandaloneRunner:
    @pytest.mark.parametrize("name", sorted(FAULT_RUNS))
    def test_checkpointed_run_is_the_pinned_run(self, name):
        result, extra = FAULT_RUNS[name]()
        assert_run_pinned(name, result, **extra)


class TestConfig:
    def test_rejects_zero_interval(self):
        with pytest.raises(ConfigError):
            CheckpointConfig(interval=0)

    def test_default_interval(self):
        assert CheckpointConfig().interval == 1


class TestCheckpointCost:
    def test_checkpoints_taken_per_interval(self, small_twitter):
        runner, _ = _run(small_twitter, FaultSchedule(), interval=1)
        assert runner.checkpoints_taken == _CONFIG.iterations

    def test_sparser_interval_fewer_checkpoints(self, small_twitter):
        runner, _ = _run(small_twitter, FaultSchedule(), interval=2)
        assert runner.checkpoints_taken == 2  # steps 0 and 2

    def test_checkpoint_traffic_on_the_wire(self, small_twitter):
        runner, result = _run(small_twitter, FaultSchedule())
        breakdown = traffic_breakdown(result.state)
        assert breakdown.bytes_by_kind.get("checkpoint", 0) > 0

    def test_checkpointing_costs_more_than_plain_run(self, small_twitter):
        from repro.core import run_frogwild

        plain = run_frogwild(small_twitter, _CONFIG, num_machines=4)
        _, checkpointed = _run(small_twitter, FaultSchedule())
        assert (
            checkpointed.report.network_bytes > plain.report.network_bytes
        )

    def test_single_machine_checkpoints_are_free(self, small_twitter):
        runner, result = _run(small_twitter, FaultSchedule(), machines=1)
        breakdown = traffic_breakdown(result.state)
        assert breakdown.bytes_by_kind.get("checkpoint", 0) == 0
        assert runner.checkpoints_taken == _CONFIG.iterations


class TestRecovery:
    def test_crash_restores_from_snapshot(self, small_twitter):
        schedule = FaultSchedule(
            crashes=(MachineCrash(step=2, machine=0),)
        )
        runner, result = _run(small_twitter, schedule, interval=1)
        assert runner.fault_log.frogs_lost_to_crashes > 0
        assert runner.frogs_restored > 0

    def test_restoration_preserves_usable_accuracy(self, small_twitter):
        truth = exact_pagerank(small_twitter)
        schedule = FaultSchedule(
            crashes=(MachineCrash(step=2, machine=1),)
        )
        _, result = _run(small_twitter, schedule, interval=1, machines=8)
        mass = normalized_mass_captured(result.estimate.vector(), truth, 20)
        assert mass > 0.8

    def test_stale_snapshot_duplicates_walkers(self, small_twitter):
        """Frogs that hopped off the dead machine's vertices since the
        checkpoint survive AND get restored: total count can exceed N."""
        schedule = FaultSchedule(
            crashes=(MachineCrash(step=3, machine=0),)
        )
        runner, result = _run(small_twitter, schedule, interval=4)
        # Snapshot at step 0 is 4 steps stale at the crash: duplication
        # happens whenever the restored counters are non-empty.
        if runner.frogs_restored > runner.fault_log.frogs_lost_to_crashes:
            assert result.estimate.total_stopped > _CONFIG.num_frogs

    def test_deterministic(self, small_twitter):
        schedule = FaultSchedule(
            crashes=(MachineCrash(step=2, machine=0),)
        )
        _, a = _run(small_twitter, schedule)
        _, b = _run(small_twitter, schedule)
        assert np.array_equal(a.estimate.counts, b.estimate.counts)
