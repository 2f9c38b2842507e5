"""Per-query tracing with bounded memory.

Every query the service touches while a :class:`QueryTracer` is
attached gets one :class:`QueryTrace` following it through its life:
enqueue → (admission ruling) → dispatch → resolve, with the batch it
rode, the supersteps and frogs it actually ran, and — when the
degradation ladder engaged — the rung and the Theorem-1 error bound
its answer carries.

The tracer itself is built for sustained load: completed traces land
in a bounded ring (most recent wins) and latencies in two
:class:`~repro.obs.Histogram` windows.  Nothing here grows with the
number of queries served.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass

from ..errors import ConfigError
from ..obs import Histogram

__all__ = ["QueryTrace", "QueryTracer"]


@dataclass
class QueryTrace:
    """The life of one query through the service, timestamped.

    Timestamps are clock readings from the service's (possibly
    virtual) clock; under the deterministic harness the resolve stamp
    of an executed query is its dispatch stamp plus the simulated
    batch time, so latencies are simulated-cluster latencies, not
    host-process ones.
    """

    query_id: int
    seeds: tuple[int, ...] | None
    k: int
    enqueue_s: float
    status: str = "pending"  # -> "served" | "shed" | "failed"
    dispatch_s: float | None = None
    resolve_s: float | None = None
    cached: bool = False
    coalesced: bool = False
    batch_size: int = 0
    supersteps: int = 0
    frogs: int = 0
    degrade_level: int = 0
    error_bound: float | None = None
    shed_depth: int | None = None

    @property
    def queue_delay_s(self) -> float | None:
        if self.dispatch_s is None:
            return None
        return self.dispatch_s - self.enqueue_s

    @property
    def latency_s(self) -> float | None:
        if self.resolve_s is None:
            return None
        return self.resolve_s - self.enqueue_s

    @property
    def degraded(self) -> bool:
        return self.degrade_level > 0

    def as_dict(self) -> dict[str, object]:
        return {
            "query_id": self.query_id,
            "seeds": None if self.seeds is None else list(self.seeds),
            "k": self.k,
            "status": self.status,
            "enqueue_s": self.enqueue_s,
            "dispatch_s": self.dispatch_s,
            "resolve_s": self.resolve_s,
            "latency_s": self.latency_s,
            "cached": self.cached,
            "coalesced": self.coalesced,
            "batch_size": self.batch_size,
            "supersteps": self.supersteps,
            "frogs": self.frogs,
            "degrade_level": self.degrade_level,
            "error_bound": self.error_bound,
            "shed_depth": self.shed_depth,
        }


class QueryTracer:
    """Collects per-query traces with bounded memory.

    ``recent(n)`` returns the last completed traces (up to the ring
    capacity) for debugging and tests.  Served traces feed the
    ``latency`` and ``queue_delay`` histograms, which the owning
    service's :meth:`~repro.serving.RankingService.snapshot` reads;
    every count of queries lives in the service's own stats.
    """

    def __init__(self, recent_capacity: int = 1024) -> None:
        if recent_capacity < 1:
            raise ConfigError("recent_capacity must be positive")
        self._lock = threading.Lock()
        self._next_id = 0
        self._recent: deque[QueryTrace] = deque(maxlen=recent_capacity)
        self.latency = Histogram()
        self.queue_delay = Histogram()

    def begin(
        self, seeds: tuple[int, ...] | None, k: int, now: float
    ) -> QueryTrace:
        """Open a trace for one arriving query (``seeds`` None: a
        uniform one)."""
        with self._lock:
            trace = QueryTrace(
                query_id=self._next_id,
                seeds=None if seeds is None else tuple(seeds),
                k=k,
                enqueue_s=now,
            )
            self._next_id += 1
        return trace

    def complete(self, trace: QueryTrace) -> None:
        """Close a trace; a served one feeds the latency histograms."""
        if trace.status not in ("served", "shed", "failed"):
            raise ConfigError(
                f"cannot complete a trace in status {trace.status!r}"
            )
        with self._lock:
            if trace.status == "served":
                if trace.latency_s is not None:
                    self.latency.add(trace.latency_s)
                if trace.queue_delay_s is not None:
                    self.queue_delay.add(trace.queue_delay_s)
            self._recent.append(trace)

    def recent(self, n: int | None = None) -> list[QueryTrace]:
        """The most recently completed traces, oldest first."""
        with self._lock:
            traces = list(self._recent)
        return traces if n is None else traces[-n:]
