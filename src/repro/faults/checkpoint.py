"""Checkpoint/restore recovery — the alternative rebirth makes moot.

Synchronous graph engines recover from machine failures by restoring a
consistent snapshot (PowerGraph inherits the classic Chandy-Lamport
style checkpointing).  FrogWild's walkers are anonymous and uniformly
born, so the paper's implicit recovery story is far cheaper: just
rebirth the lost walkers uniformly.  This module implements the classic
alternative so the two can be compared head to head:

* every ``interval`` supersteps each machine replicates the frog
  counters of its mastered vertices to a buddy machine (one record per
  frog-holding vertex, kind ``"checkpoint"`` on the wire);
* on a crash with checkpoint recovery, the dead machine's frogs are
  restored *from the last checkpoint* — positions that are up to
  ``interval`` steps stale — rather than lost or reborn.

The bench (`bench_faults.py` / `bench_checkpoint.py`) shows the
trade-off: checkpointing pays a continuous traffic tax for accuracy
that uniform rebirth delivers for free, precisely because a frog's
identity carries no information.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core import FrogWildConfig
from ..engine import ClusterState
from ..errors import ConfigError
from .runner import FaultyFrogWildRunner, _dense, _frontier
from .schedule import FaultSchedule

__all__ = ["CheckpointConfig", "CheckpointedFrogWildRunner"]


@dataclass(frozen=True)
class CheckpointConfig:
    """Checkpointing policy.

    Attributes
    ----------
    interval:
        Supersteps between checkpoints; the snapshot at step 0 (initial
        placement) is always taken.
    """

    interval: int = 1

    def __post_init__(self) -> None:
        if self.interval < 1:
            raise ConfigError("checkpoint interval must be positive")


class CheckpointedFrogWildRunner(FaultyFrogWildRunner):
    """Faulty runner whose crashes restore from checkpoints.

    Crashes in the schedule are honoured with checkpoint recovery
    regardless of their ``rebirth`` flag: the dead machine's mastered
    vertices get their frog counters *as of the last checkpoint* back.
    Frogs that hopped OFF those vertices since the checkpoint survive
    on their new vertices, so restored walkers are duplicated relative
    to a loss-free run — the standard stale-snapshot artifact, counted
    in :attr:`frogs_restored`.
    """

    def __init__(
        self,
        state: ClusterState,
        config: FrogWildConfig,
        schedule: FaultSchedule,
        checkpoint: CheckpointConfig | None = None,
    ) -> None:
        super().__init__(state, config, schedule)
        self.checkpoint = checkpoint or CheckpointConfig()
        self._snapshot: np.ndarray | None = None
        #: Frogs recovered from snapshots across all crashes.
        self.frogs_restored = 0
        #: Checkpoints taken (for cost reporting).
        self.checkpoints_taken = 0

    # ------------------------------------------------------------------
    def _begin_superstep(self, step, frontier):
        n = self.state.num_vertices
        if step % self.checkpoint.interval == 0:
            self._take_checkpoint(_dense(frontier, n))

        crashes = self.schedule.crashes_at(step)
        if not crashes:
            return frontier
        frogs = _dense(frontier, n)
        for crash in crashes:
            self._crash(crash.machine)
            mastered = self.state.replication.masters_on(crash.machine)
            lost = int(frogs[mastered].sum())
            self.fault_log.frogs_lost_to_crashes += lost
            if self._snapshot is None:
                frogs[mastered] = 0
                continue
            restored = self._snapshot[mastered]
            frogs[mastered] = restored
            self.frogs_restored += int(restored.sum())
        return _frontier(frogs)

    # ------------------------------------------------------------------
    def _take_checkpoint(self, frogs: np.ndarray) -> None:
        """Replicate each machine's mastered frog counters to a buddy."""
        state = self.state
        self._snapshot = frogs
        self.checkpoints_taken += 1
        num_machines = state.num_machines
        if num_machines < 2:
            return  # local snapshot only: nothing crosses the wire
        masters = state.replication.masters
        holding = frogs > 0
        if not holding.any():
            return
        records = np.bincount(
            masters[holding], minlength=num_machines
        ).astype(np.int64)
        matrix = np.zeros((num_machines, num_machines), dtype=np.int64)
        buddies = (np.arange(num_machines) + 1) % num_machines
        matrix[np.arange(num_machines), buddies] = records
        state.send_pair_matrix(matrix, kind="checkpoint")
        state.charge_many(records, phase="checkpoint")
