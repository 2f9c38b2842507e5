"""Driving a :class:`~repro.serving.RankingService` with real traffic.

:meth:`TrafficHarness.run_virtual` replays a workload as a
**single-server queue over virtual time**: a batch's simulated cluster
makespan (the ``simulated_time_s`` every backend already reports,
scaled by ``service_time_scale``) is its service time, the service's
scheduler keeps the server busy that long, and arrivals pile up in its
queue meanwhile.  The replay advances the service's
:class:`~repro.serving.VirtualClock` to the next arrival or to the
instant :meth:`~repro.serving.RankingService.pump` asked to be woken,
then submits or pumps — no threads, no sleeps, bit-identical on every
run.  Batches form by the dispatch rule a started service follows
(:mod:`repro.serving.scheduler`), which is what makes overload
*observable* under a virtual clock: while a batch runs, the queue
grows.

It returns a :class:`TrafficRunResult` carrying every future, the
queue-depth time series and one flat report row: the run's own
figures plus the service's :meth:`~repro.serving.RankingService.snapshot`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..errors import ConfigError, OverloadError
from ..obs import flatten
from ..serving.scheduler import VirtualClock
from ..serving.service import RankingAnswer, RankingFuture, RankingService
from .trace import QueryTracer
from .workload import QueryEvent, TrafficWorkload

__all__ = ["TrafficRunResult", "TrafficHarness"]


@dataclass
class TrafficRunResult:
    """Everything one traffic run produced."""

    #: One flat ``str -> float`` row: ``duration_s``, ``arrivals``,
    #: ``offered_rate_qps``, ``queue_depth_max``/``_mean``,
    #: ``utilization`` and ``busy_s``, beside every key of the
    #: service's snapshot at the end of the run.
    report: dict[str, float]
    events: list[QueryEvent]
    futures: list[RankingFuture]
    #: (clock reading, scheduler queue depth) samples, one after every
    #: arrival and every dispatch — the series the overload acceptance
    #: test asserts monotone growth / boundedness on.
    depth_samples: list[tuple[float, int]] = field(default_factory=list)

    def answers(self) -> list[RankingAnswer]:
        """All successfully served answers, in arrival order."""
        out: list[RankingAnswer] = []
        for future in self.futures:
            try:
                out.append(future.result(timeout=0))
            except (OverloadError, TimeoutError):
                continue
        return out


class TrafficHarness:
    """Replays a :class:`TrafficWorkload` against a ranking service.

    The service should be constructed with a
    :class:`~repro.traffic.QueryTracer` (``tracer=``) — the harness
    attaches one itself if it is missing — and, for the admission /
    degraded-mode behavior under test, an
    :class:`~repro.traffic.AdmissionController` (``admission=``).
    """

    def __init__(
        self,
        service: RankingService,
        workload: TrafficWorkload,
        service_time_scale: float = 1.0,
    ) -> None:
        if service_time_scale <= 0:
            raise ConfigError("service_time_scale must be positive")
        self.service = service
        self.workload = workload
        #: Calibration factor from simulated batch makespan to harness
        #: service time.  The cost model's absolute seconds are
        #: arbitrary units; this factor places offered load relative
        #: to modeled capacity (rho = arrival rate x scaled service
        #: time / batch size), which is how the overload tests pin
        #: rho > 1 deterministically.  Set on the service, whose batches
        #: report their scaled makespan to the scheduler as service
        #: time and stamp their answers' resolve times with it.
        self.service_time_scale = float(service_time_scale)
        service.service_time_scale = self.service_time_scale
        if service.tracer is None:
            service.tracer = QueryTracer()
        self.tracer = service.tracer

    # ------------------------------------------------------------------
    # Deterministic virtual-time mode
    # ------------------------------------------------------------------
    def run_virtual(self, duration_s: float) -> TrafficRunResult:
        """Replay the workload on the service's virtual clock.

        Advances the clock to the next arrival or to the instant the
        last ``pump()`` asked to be woken, whichever comes first (the
        arrival on a tie), then submits it or pumps.  Requires a
        :class:`~repro.serving.VirtualClock` service and a deadline
        policy (``max_delay_s``), so a free server takes every partial
        batch and every enqueued query eventually dispatches.
        """
        service = self.service
        clock = service.clock
        if not isinstance(clock, VirtualClock):
            raise ConfigError(
                "run_virtual needs a service built on a VirtualClock"
            )
        if service.scheduler.max_delay_s is None:
            raise ConfigError(
                "run_virtual needs a deadline policy (max_delay_s) so "
                "partial batches eventually dispatch"
            )
        events = self.workload.events(duration_s)
        futures: list[RankingFuture] = []
        depth_samples: list[tuple[float, int]] = []
        start = clock.now
        simulated_before = service.stats.simulated_time_s
        i = 0
        wake: float | None = None
        # The last pump's wake is the end of the last batch, so the run
        # covers its service time.
        while i < len(events) or wake is not None:
            arrival = events[i].time_s + start if i < len(events) else math.inf
            if wake is not None and wake < arrival:
                clock.advance(wake - clock.now)
            else:
                clock.advance(arrival - clock.now)
                futures.append(service.submit_query(events[i].query))
                i += 1
            wake = service.pump()
            depth_samples.append((clock.now, service.scheduler.pending_count()))
        busy_s = (
            service.stats.simulated_time_s - simulated_before
        ) * self.service_time_scale
        elapsed = max(clock.now - start, duration_s)
        report = self._collect(
            duration_s=duration_s,
            arrivals=len(events),
            depth_samples=depth_samples,
            busy_s=busy_s,
            elapsed_s=elapsed,
        )
        return TrafficRunResult(
            report=report,
            events=events,
            futures=futures,
            depth_samples=depth_samples,
        )

    # ------------------------------------------------------------------
    # Report folding
    # ------------------------------------------------------------------
    def _collect(
        self,
        duration_s: float,
        arrivals: int,
        depth_samples: list[tuple[float, int]],
        busy_s: float,
        elapsed_s: float,
    ) -> dict[str, float]:
        depths = [depth for _, depth in depth_samples]
        run = {
            "duration_s": duration_s,
            "arrivals": arrivals,
            "offered_rate_qps": arrivals / duration_s if duration_s else 0.0,
            "queue_depth_max": max(depths) if depths else 0,
            "queue_depth_mean": sum(depths) / len(depths) if depths else 0.0,
            "utilization": busy_s / elapsed_s if elapsed_s else 0.0,
            "busy_s": busy_s,
        }
        return flatten({**run, **self.service.stats_parts()})
