"""Traffic: open-loop load generation, admission control, degraded modes.

The serving stack (:mod:`repro.serving`) answers *how* a query is
executed cheaply — cache, coalesce, batch, shard.  This package
answers what happens when **more queries arrive than the cluster can
execute**, which is where FrogWild's accuracy-for-cost knob becomes an
operational lever rather than a benchmark curiosity:

* :mod:`~repro.traffic.arrivals` / :mod:`~repro.traffic.workload` —
  open-loop arrival processes (Poisson, diurnal, flash-crowd burst)
  over a Zipf-popular user population, deterministic per seed;
* :mod:`~repro.traffic.admission` — a bounded pending queue with
  typed shedding (:class:`~repro.errors.OverloadError`) and a
  backlog-triggered :class:`DegradationLadder` that shrinks frog
  budgets / early-stops supersteps, each degraded answer carrying the
  Theorem-1 error bound it implies (:mod:`repro.theory.bounds`);
* :mod:`~repro.traffic.trace` — per-query traces (enqueue → dispatch
  → resolve, with degrade decisions) and the latency histograms the
  service's flat :meth:`~repro.serving.RankingService.snapshot` reads;
* :mod:`~repro.traffic.harness` — the driver: a deterministic
  virtual-time single-server queue;
* :mod:`~repro.traffic.chaos` — real-process fault injection under
  load: :class:`ChaosSchedule` speaks the same event taxonomy as the
  simulated :mod:`repro.faults` layer but its ``kill`` events SIGKILL
  actual shard workers (``hang``/``delay`` stall them), exercising the
  fail-soft process pool's supervision and partial-answer paths.

Exercised by ``tests/test_traffic_service.py`` (the overload
acceptance scenario) and ``tests/test_supervisor.py`` (chaos).
"""

from .admission import (
    AdmissionController,
    AdmissionDecision,
    AdmissionStats,
    DegradationLadder,
    DegradeRung,
)
from .arrivals import (
    ArrivalProcess,
    BurstArrivals,
    DiurnalArrivals,
    PoissonArrivals,
)
from .chaos import ChaosEvent, ChaosInjector, ChaosSchedule
from .harness import TrafficHarness, TrafficRunResult
from .trace import QueryTrace, QueryTracer
from .workload import QueryEvent, TrafficWorkload, UserPopulation

__all__ = [
    "ArrivalProcess",
    "PoissonArrivals",
    "DiurnalArrivals",
    "BurstArrivals",
    "UserPopulation",
    "QueryEvent",
    "TrafficWorkload",
    "DegradeRung",
    "DegradationLadder",
    "AdmissionDecision",
    "AdmissionStats",
    "AdmissionController",
    "QueryTrace",
    "QueryTracer",
    "TrafficHarness",
    "TrafficRunResult",
    "ChaosEvent",
    "ChaosSchedule",
    "ChaosInjector",
]
