"""Chaos schedules: real-process fault injection under live traffic.

:mod:`repro.faults` *simulates* failures inside the simulated cluster — a
:class:`~repro.faults.MachineCrash` deletes frogs from arrays.  This
module injects the same scenarios into the **real** multi-process
serving stack: a :class:`ChaosEvent` of kind ``"kill"`` sends an
actual ``SIGKILL`` to a shard worker's OS pid, ``"hang"`` parks a
worker's control loop, ``"delay"`` stalls its next batch reply.  Both
layers speak the one taxonomy of
:data:`repro.faults.FAULT_KINDS`, and schedules convert both ways
(:meth:`ChaosSchedule.from_fault_schedule` /
:meth:`ChaosSchedule.to_fault_schedule`) — which is what makes the
paper's robustness claim *cross-checkable*: the accuracy dent a
simulated machine loss predicts can be compared against what a real
SIGKILL'd worker costs a partial-mode pool at the same lost-frog
fraction.

:class:`ChaosInjector` arms a schedule against a running target
(a :class:`~repro.serving.ProcessPoolBackend`, a
:class:`~repro.serving.RankingService` over one, or a live
:class:`~repro.live.EpochManager`) on daemon timers, so the events
land while the target serves (``tests/test_supervisor.py``).
"""

from __future__ import annotations

import os
import signal
import threading
import time
from dataclasses import dataclass, field

from ..errors import ConfigError
from ..faults.schedule import FaultSchedule, MachineCrash

__all__ = ["ChaosEvent", "ChaosSchedule", "ChaosInjector"]

#: The subset of :data:`repro.faults.FAULT_KINDS` an injector can
#: deliver to real processes.  ``drop`` has no real-process analogue
#: here (pipes are reliable transports); simulated schedules carrying
#: message drop convert with that component documentedly ignored.
CHAOS_KINDS = ("kill", "hang", "delay")


@dataclass(frozen=True)
class ChaosEvent:
    """One real fault, scheduled relative to the run's start.

    ``shard`` addresses the target pool's shard (its worker process);
    ``duration_s`` is meaningful for ``hang``/``delay`` only.
    """

    time_s: float
    kind: str
    shard: int
    duration_s: float = 0.0

    def __post_init__(self) -> None:
        if self.time_s < 0:
            raise ConfigError("event time_s must be non-negative")
        if self.kind not in CHAOS_KINDS:
            raise ConfigError(
                f"unknown chaos kind {self.kind!r}: expected one of "
                f"{CHAOS_KINDS}"
            )
        if self.shard < 0:
            raise ConfigError("shard id must be non-negative")
        if self.duration_s < 0:
            raise ConfigError("duration_s must be non-negative")


@dataclass(frozen=True)
class ChaosSchedule:
    """A time-ordered set of real faults for one traffic run."""

    events: tuple[ChaosEvent, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "events",
            tuple(sorted(self.events, key=lambda e: e.time_s)),
        )

    @property
    def is_empty(self) -> bool:
        return not self.events

    def kills(self) -> tuple[ChaosEvent, ...]:
        """The schedule's hard kills (the events that lose frogs)."""
        return tuple(e for e in self.events if e.kind == "kill")

    # ------------------------------------------------------------------
    # Taxonomy bridge to the simulated layer
    # ------------------------------------------------------------------
    @classmethod
    def from_fault_schedule(
        cls, schedule: FaultSchedule, step_time_s: float = 1.0
    ) -> "ChaosSchedule":
        """A simulated scenario replayed against real processes.

        Each :class:`~repro.faults.MachineCrash` at superstep ``s``
        becomes a ``kill`` of shard ``machine`` at ``s * step_time_s``
        — superstep indices are the simulated layer's clock, so the
        caller chooses how much wall time one superstep is worth.  A
        ``message_drop`` component has no real-process analogue (the
        worker pipes are reliable) and is ignored.
        """
        if step_time_s <= 0:
            raise ConfigError("step_time_s must be positive")
        return cls(
            events=tuple(
                ChaosEvent(
                    time_s=crash.step * step_time_s,
                    kind=crash.chaos_kind,
                    shard=crash.machine,
                )
                for crash in schedule.crashes
            )
        )

    def to_fault_schedule(
        self, step_time_s: float = 1.0, rebirth: bool = False
    ) -> FaultSchedule:
        """This schedule's simulated twin, for cross-checking accuracy.

        ``kill`` events become :class:`~repro.faults.MachineCrash`\\ es
        at superstep ``floor(time_s / step_time_s)`` (duplicates on the
        same (step, machine) collapse); ``hang``/``delay`` are
        latency-only and carry no simulated-accuracy analogue, so they
        are dropped.  ``rebirth=False`` by default: a real partial
        merge loses the dead worker's frogs outright, so the matching
        simulation must too.
        """
        if step_time_s <= 0:
            raise ConfigError("step_time_s must be positive")
        crashes: list[MachineCrash] = []
        seen: set[tuple[int, int]] = set()
        for event in self.kills():
            key = (int(event.time_s // step_time_s), event.shard)
            if key in seen:
                continue
            seen.add(key)
            crashes.append(
                MachineCrash(
                    step=key[0], machine=key[1], rebirth=rebirth
                )
            )
        return FaultSchedule(crashes=tuple(crashes))


def _resolve_pool(target):
    """The process pool behind whatever object the caller handed us."""
    seen = set()
    obj = target
    while obj is not None and id(obj) not in seen:
        seen.add(id(obj))
        if hasattr(obj, "worker_pid") and hasattr(obj, "inject_chaos"):
            return obj
        if hasattr(obj, "current"):  # EpochManager
            obj = obj.current.backend
            continue
        obj = getattr(obj, "backend", None)  # RankingService / Live
    raise ConfigError(
        "chaos needs a process-pool target (a ProcessPoolBackend, or "
        "a service/epoch manager running on one); got "
        f"{type(target).__name__}"
    )


@dataclass
class ChaosInjector:
    """Arms a :class:`ChaosSchedule` against a live process pool.

    Every event runs on its own daemon :class:`threading.Timer`:
    ``kill`` resolves the shard's *current* worker pid at fire time
    and SIGKILLs it directly (no locks — a kill must land even while a
    batch holds the backend lock, that being the whole point);
    ``hang``/``delay`` go through the pool's ``inject_chaos`` control
    op, which serializes with batches.  Fired events are recorded in
    ``fired`` as ``(elapsed_s, event)``; injection errors (e.g. a
    worker already gone) land in ``errors`` instead of propagating —
    chaos must never crash the experiment that measures it.
    """

    target: object
    schedule: ChaosSchedule
    fired: list[tuple[float, ChaosEvent]] = field(default_factory=list)
    errors: list[tuple[ChaosEvent, BaseException]] = field(
        default_factory=list
    )

    def __post_init__(self) -> None:
        self.pool = _resolve_pool(self.target)
        # Checked now: at fire time a bad shard would only land in
        # ``errors``.
        for event in self.schedule.events:
            if event.shard >= self.pool.num_shards:
                raise ConfigError(
                    f"chaos event for shard {event.shard} of a "
                    f"{self.pool.num_shards}-shard pool"
                )
        self._timers: list[threading.Timer] = []
        self._start: float | None = None
        self._lock = threading.Lock()

    def _fire(self, event: ChaosEvent) -> None:
        try:
            if event.kind == "kill":
                os.kill(self.pool.worker_pid(event.shard), signal.SIGKILL)
            else:
                self.pool.inject_chaos(
                    event.shard, event.kind, event.duration_s
                )
        except BaseException as error:
            with self._lock:
                self.errors.append((event, error))
            return
        with self._lock:
            self.fired.append(
                (time.monotonic() - (self._start or 0.0), event)
            )

    def arm(self) -> "ChaosInjector":
        """Start one timer per event (idempotent per arm/disarm cycle)."""
        self.disarm()
        self._start = time.monotonic()
        for event in self.schedule.events:
            timer = threading.Timer(event.time_s, self._fire, (event,))
            timer.daemon = True
            timer.start()
            self._timers.append(timer)
        return self

    def disarm(self) -> None:
        """Cancel every not-yet-fired timer."""
        for timer in self._timers:
            timer.cancel()
        self._timers = []
