"""Per-query tracing and O(1)-memory streaming latency statistics.

Every query the service touches while a :class:`QueryTracer` is
attached gets one :class:`QueryTrace` following it through its life:
enqueue → (admission ruling) → dispatch → resolve, with the batch it
rode, the supersteps and frogs it actually ran, and — when the
degradation ladder engaged — the rung and the Theorem-1 error bound
its answer carries.

The tracer itself is built for sustained load: counters are plain
integers, completed traces land in a bounded ring (most recent wins),
and latency quantiles come from a fixed-size uniform reservoir
(Vitter's Algorithm R with a seeded generator, so summaries are
deterministic under the virtual clock).  Nothing here grows with the
number of queries served.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError

__all__ = ["StreamingReservoir", "QueryTrace", "QueryTracer"]


class StreamingReservoir:
    """Fixed-size uniform sample of a stream, plus exact moments.

    ``count``/``total``/``min``/``max`` are exact over the whole
    stream; quantiles are computed from the reservoir (exact until the
    stream outgrows ``capacity``, a uniform sample after).  Algorithm R
    with a seeded generator keeps replacement decisions deterministic.
    """

    def __init__(self, capacity: int = 2048, seed: int = 0) -> None:
        if capacity < 1:
            raise ConfigError("capacity must be positive")
        self.capacity = int(capacity)
        self._rng = np.random.default_rng([53, seed])
        self._sample: list[float] = []
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None

    def add(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        if len(self._sample) < self.capacity:
            self._sample.append(value)
            return
        # Algorithm R: the new value displaces a uniform victim with
        # probability capacity / count.
        slot = int(self._rng.integers(0, self.count))
        if slot < self.capacity:
            self._sample[slot] = value

    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """The q-quantile of the sampled stream (0.0 when empty)."""
        if not 0.0 <= q <= 1.0:
            raise ConfigError("q must lie in [0, 1]")
        if not self._sample:
            return 0.0
        return float(np.quantile(np.asarray(self._sample), q))

    def as_dict(self, prefix: str = "") -> dict[str, float]:
        return {
            f"{prefix}count": float(self.count),
            f"{prefix}mean": self.mean(),
            f"{prefix}p50": self.quantile(0.50),
            f"{prefix}p95": self.quantile(0.95),
            f"{prefix}p99": self.quantile(0.99),
            f"{prefix}max": self.max if self.max is not None else 0.0,
        }


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
    seeds: tuple[int, ...]
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
            "seeds": list(self.seeds),
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


@dataclass
class _TracerCounters:
    offered: int = 0
    served: int = 0
    shed: int = 0
    failed: int = 0
    cache_hits: int = 0
    coalesced: int = 0
    degraded: int = 0
    degraded_with_bound: int = 0


class QueryTracer:
    """Collects per-query traces with bounded memory.

    ``recent(n)`` returns the last completed traces (up to the ring
    capacity) for debugging and tests; :meth:`summary` folds the whole
    stream into the flat metric row the overload tests assert
    against.
    """

    def __init__(
        self,
        recent_capacity: int = 1024,
        reservoir_capacity: int = 2048,
        seed: int = 0,
    ) -> None:
        if recent_capacity < 1:
            raise ConfigError("recent_capacity must be positive")
        self._lock = threading.Lock()
        self._next_id = 0
        self._recent: deque[QueryTrace] = deque(maxlen=recent_capacity)
        self.latency = StreamingReservoir(reservoir_capacity, seed)
        self.queue_delay = StreamingReservoir(reservoir_capacity, seed + 1)
        self.batch_occupancy = StreamingReservoir(
            reservoir_capacity, seed + 2
        )
        self.counters = _TracerCounters()
        self.max_error_bound = 0.0

    def begin(
        self, seeds: tuple[int, ...], k: int, now: float
    ) -> QueryTrace:
        """Open a trace for one arriving query."""
        with self._lock:
            self.counters.offered += 1
            trace = QueryTrace(
                query_id=self._next_id,
                seeds=tuple(seeds),
                k=k,
                enqueue_s=now,
            )
            self._next_id += 1
        return trace

    def complete(self, trace: QueryTrace) -> None:
        """Close a trace; folds it into counters and reservoirs."""
        with self._lock:
            counters = self.counters
            if trace.status == "served":
                counters.served += 1
                if trace.cached:
                    counters.cache_hits += 1
                if trace.coalesced:
                    counters.coalesced += 1
                if trace.degraded:
                    counters.degraded += 1
                    if trace.error_bound is not None:
                        counters.degraded_with_bound += 1
                        self.max_error_bound = max(
                            self.max_error_bound, trace.error_bound
                        )
                if trace.latency_s is not None:
                    self.latency.add(trace.latency_s)
                if trace.queue_delay_s is not None:
                    self.queue_delay.add(trace.queue_delay_s)
                if trace.batch_size:
                    self.batch_occupancy.add(float(trace.batch_size))
            elif trace.status == "shed":
                counters.shed += 1
            elif trace.status == "failed":
                counters.failed += 1
            else:
                raise ConfigError(
                    f"cannot complete a trace in status {trace.status!r}"
                )
            self._recent.append(trace)

    def recent(self, n: int | None = None) -> list[QueryTrace]:
        """The most recently completed traces, oldest first."""
        with self._lock:
            traces = list(self._recent)
        return traces if n is None else traces[-n:]

    def summary(self) -> dict[str, float]:
        """The flat metric row: rates, latency quantiles, occupancy."""
        with self._lock:
            c = self.counters
            offered = c.offered
            row: dict[str, float] = {
                "offered": float(offered),
                "served": float(c.served),
                "shed": float(c.shed),
                "failed": float(c.failed),
                "cache_hits": float(c.cache_hits),
                "coalesced": float(c.coalesced),
                "degraded": float(c.degraded),
                "degraded_with_bound": float(c.degraded_with_bound),
                "shed_rate": c.shed / offered if offered else 0.0,
                "degraded_rate": c.degraded / offered if offered else 0.0,
                "cache_hit_rate": (
                    c.cache_hits / c.served if c.served else 0.0
                ),
                "max_error_bound": self.max_error_bound,
            }
            row.update(self.latency.as_dict("latency_"))
            row.update(self.queue_delay.as_dict("queue_delay_"))
            row.update(self.batch_occupancy.as_dict("batch_occupancy_"))
        return row
