"""FrogWild under injected faults.

:class:`FaultyFrogWildRunner` is a one-lane
:class:`~repro.core.BatchedFrogWildRunner` — the single run of
:func:`~repro.core.run_frogwild` — plus a schedule, applied through the
superstep's two hooks:

* ``_begin_superstep`` fires scheduled :class:`~repro.faults.MachineCrash`
  events — frogs mastered on the dead machine are lost (and optionally
  reborn uniformly), and the machine's mirrors leave the sync pool for
  good (the run forks the per-ingress mirror bitmap before its first
  crash, so later runs on the ingress never see it);
* ``_deliver`` applies :class:`~repro.faults.MessageDrop` — each
  machine-crossing frog delivery is lost independently, *after* its
  bytes were charged (the message really was sent).

Only these hooks turn the sparse frontier into a dense frog vector and
back.  Fault coins come from their own stream (``[108, seed]``), so the
walk stream is untouched and an empty schedule is the plain run, bit
for bit.

The headline property this module exists to demonstrate: because frogs
are anonymous, uniformly born, and individually meaningless, FrogWild
degrades *gracefully* — a crash that wipes 1/M of the walkers costs
roughly a 1/M accuracy dent (rebirth even less), while an exact
synchronous PageRank would have to restart or replay the lost partition
before its answer means anything.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..cluster import CostModel, EdgePartition, MessageSizeModel
from ..core import BatchedFrogWildRunner, BatchQuery, FrogWildConfig
from ..core.frogwild import FrogWildResult
from ..engine import ClusterState, build_cluster
from ..errors import ConfigError
from ..graph import DiGraph
from .schedule import FaultSchedule

__all__ = ["FaultLog", "FaultyFrogWildRunner", "run_frogwild_with_faults"]


def _dense(frontier, n: int) -> np.ndarray:
    """The frog count of every vertex of a one-lane frontier."""
    _, verts, k = frontier
    frogs = np.zeros(n, dtype=np.int64)
    frogs[verts] = k
    return frogs


def _frontier(frogs: np.ndarray):
    """The one-lane ``(lane, vertex, count)`` frontier of ``frogs``."""
    verts = np.flatnonzero(frogs != 0)
    return np.zeros_like(verts), verts, frogs[verts]


@dataclass
class FaultLog:
    """What the injected faults actually did to the run."""

    crashed_machines: list[int] = field(default_factory=list)
    frogs_lost_to_crashes: int = 0
    frogs_reborn: int = 0
    frogs_dropped_in_flight: int = 0

    @property
    def net_frogs_lost(self) -> int:
        """Walkers permanently removed from the run."""
        return (
            self.frogs_lost_to_crashes
            - self.frogs_reborn
            + self.frogs_dropped_in_flight
        )


class FaultyFrogWildRunner(BatchedFrogWildRunner):
    """The single run plus a fault schedule."""

    def __init__(
        self,
        state: ClusterState,
        config: FrogWildConfig,
        schedule: FaultSchedule,
    ) -> None:
        super().__init__(state, config, [BatchQuery()])
        for crash in schedule.crashes:
            if crash.machine >= state.num_machines:
                raise ConfigError(
                    f"crash targets machine {crash.machine} but the "
                    f"cluster has {state.num_machines}"
                )
            if crash.step >= config.iterations:
                raise ConfigError(
                    f"crash at superstep {crash.step} would never fire: "
                    f"the run has {config.iterations}"
                )
        self.schedule = schedule
        self.fault_log = FaultLog()
        self._private_mirrors = False
        # Fault randomness must not perturb the walk randomness, so a
        # run with an empty schedule is bit-identical to the stock
        # runner: distinct stream.
        self._fault_rng = np.random.default_rng(
            config.seed if config.seed is None else [108, config.seed]
        )

    def run(self) -> FrogWildResult:
        """Run the schedule; the result is the single run's."""
        return self.run_single()

    # ------------------------------------------------------------------
    def _crash(self, machine: int) -> None:
        """Log ``machine`` and take its mirrors out of every later sync."""
        self.fault_log.crashed_machines.append(machine)
        if not self._private_mirrors:
            # Copy-on-disable: the bitmap is the per-ingress cache.
            self._mirror_matrix = self._mirror_matrix.copy()
            self._private_mirrors = True
        self._mirror_matrix[:, machine] = False

    def _begin_superstep(self, step, frontier):
        crashes = self.schedule.crashes_at(step)
        if not crashes:
            return frontier
        n = self.state.num_vertices
        frogs = _dense(frontier, n)
        for crash in crashes:
            self._crash(crash.machine)
            mastered = self.state.replication.masters_on(crash.machine)
            lost = int(frogs[mastered].sum())
            frogs[mastered] = 0
            self.fault_log.frogs_lost_to_crashes += lost
            if crash.rebirth and lost:
                rebirth_positions = self._fault_rng.integers(
                    0, n, size=lost
                )
                frogs += np.bincount(rebirth_positions, minlength=n)
                self.fault_log.frogs_reborn += lost
        return _frontier(frogs)

    def _deliver(self, dest, host, hop_keys, hop_weights):
        drop = self.schedule.message_drop
        if drop is None or drop.probability == 0.0 or dest.size == 0:
            return hop_keys, hop_weights
        if hop_weights is not None:
            # One coin per frog, not per weighted hop.
            dest = np.repeat(dest, hop_weights)
            host = np.repeat(host, hop_weights)
        remote = host != self.tables.masters[dest]
        coins = self._fault_rng.random(dest.size) < drop.probability
        lost = remote & coins
        self.fault_log.frogs_dropped_in_flight += int(lost.sum())
        # One lane: a frog's key is its destination.
        return dest[~lost], None


def run_frogwild_with_faults(
    graph: DiGraph,
    schedule: FaultSchedule,
    config: FrogWildConfig | None = None,
    num_machines: int = 16,
    partitioner: str = "random",
    cost_model: CostModel | None = None,
    size_model: MessageSizeModel | None = None,
    partition: EdgePartition | None = None,
    state: ClusterState | None = None,
) -> tuple[FrogWildResult, FaultLog]:
    """Run FrogWild end to end under a fault schedule.

    Mirrors :func:`repro.core.run_frogwild`, returning the usual result
    plus the :class:`FaultLog` of what the schedule inflicted.
    """
    config = config or FrogWildConfig()
    if state is None:
        state = build_cluster(
            graph,
            num_machines,
            partitioner=partitioner,
            cost_model=cost_model,
            size_model=size_model,
            seed=config.seed,
            partition=partition,
        )
    else:
        state.check_graph(graph)
    runner = FaultyFrogWildRunner(state, config, schedule)
    return runner.run(), runner.fault_log
