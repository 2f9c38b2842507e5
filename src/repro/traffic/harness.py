"""Driving a :class:`~repro.serving.RankingService` with real traffic.

:meth:`TrafficHarness.run_virtual` models the service as a
**single-server queue over virtual time**: the simulated cluster's own
batch makespan (the ``simulated_time_s`` every backend already
reports) is the service time, so while a batch "runs" the server is
busy and arrivals pile up in the scheduler queue.  The harness
interleaves arrival events and server-free dispatch events in strict
time order on the service's :class:`~repro.serving.VirtualClock` — no
threads, no sleeps, bit-identical on every run.  This is what makes
overload *observable* under a virtual clock at all: without the busy
gate, dispatch would be instantaneous and no queue could ever form.
The queue follows the deadline rule alone: a partial batch waits out
``max_delay_s`` even when the modelled server is free, where a started
service's loop would send it at once (idle dispatch), so the queue
waits and latencies it reports are those of a deadline-only scheduler
and overstate a started service's by up to ``max_delay_s``.

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

    def shed_count(self) -> int:
        count = 0
        for future in self.futures:
            try:
                future.result(timeout=0)
            except OverloadError:
                count += 1
            except TimeoutError:
                continue
        return count


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
        #: rho > 1 deterministically.  Propagated onto the service so
        #: trace resolve stamps use the same time base as the busy
        #: gate.
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

        Requires a :class:`~repro.serving.VirtualClock` service and a
        deadline policy (``max_delay_s``), so every enqueued query is
        guaranteed to become dispatchable; fill dispatch is held back
        for the run (``hold_filled``) because a full batch must still
        wait for the single server to free up.  A partial batch leaves
        at its deadline or when the server frees, whichever is later
        (no idle dispatch: see the module docstring).
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
        scheduler = service.scheduler
        events = self.workload.events(duration_s)
        futures: list[RankingFuture] = []
        depth_samples: list[tuple[float, int]] = []
        start = clock.now
        busy_until = start
        busy_s = 0.0
        held = scheduler.hold_filled
        scheduler.hold_filled = True
        try:
            i = 0
            while True:
                ready = scheduler.next_ready()
                next_dispatch = (
                    math.inf if ready is None else max(ready, busy_until)
                )
                next_arrival = (
                    events[i].time_s + start if i < len(events) else math.inf
                )
                if next_arrival is math.inf and next_dispatch is math.inf:
                    break
                if next_arrival <= next_dispatch:
                    clock.advance(next_arrival - clock.now)
                    futures.append(service.submit_query(events[i].query))
                    i += 1
                    depth_samples.append(
                        (clock.now, scheduler.pending_count())
                    )
                else:
                    clock.advance(next_dispatch - clock.now)
                    before = service.stats.simulated_time_s
                    if scheduler.dispatch_next() == 0:
                        continue
                    service_time = (
                        service.stats.simulated_time_s - before
                    ) * self.service_time_scale
                    busy_until = clock.now + service_time
                    busy_s += service_time
                    depth_samples.append(
                        (clock.now, scheduler.pending_count())
                    )
            # Let the last batch's virtual service time elapse so end
            # timestamps (and utilization) cover it.
            if busy_until > clock.now:
                clock.advance(busy_until - clock.now)
        finally:
            scheduler.hold_filled = held
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
