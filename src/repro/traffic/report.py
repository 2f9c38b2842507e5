"""Folding a traffic run into one flat, machine-checkable metric row.

A :class:`TrafficReport` is the single artifact a traffic run leaves
behind: arrival volume, queue behavior, utilization, the tracer's
latency/shed/degrade summary, the admission controller's decision
counters and the service's own lifetime stats — flattened into one
``str -> float`` row (:meth:`TrafficReport.as_dict`) that
``tests/test_traffic_service.py`` asserts against (shed rate bounded,
p99 finite, degraded answers carrying bounds).
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["TrafficReport"]


@dataclass(frozen=True)
class TrafficReport:
    """Summary of one traffic run."""

    duration_s: float
    arrivals: int
    queue_depth_max: int
    queue_depth_mean: float
    utilization: float
    busy_s: float
    traffic: dict[str, float] = field(default_factory=dict)
    admission: dict[str, float] = field(default_factory=dict)
    service: dict[str, float] = field(default_factory=dict)
    scheduler: dict[str, float] = field(default_factory=dict)
    cache: dict[str, float] = field(default_factory=dict)

    @property
    def offered_rate_qps(self) -> float:
        return self.arrivals / self.duration_s if self.duration_s else 0.0

    def as_dict(self) -> dict[str, float]:
        """One flat row: run scalars plus prefixed component summaries."""
        row: dict[str, float] = {
            "duration_s": self.duration_s,
            "arrivals": float(self.arrivals),
            "offered_rate_qps": self.offered_rate_qps,
            "queue_depth_max": float(self.queue_depth_max),
            "queue_depth_mean": self.queue_depth_mean,
            "utilization": self.utilization,
            "busy_s": self.busy_s,
        }
        row.update(self.traffic)
        row.update({f"admission_{k}": v for k, v in self.admission.items()})
        row.update({f"service_{k}": v for k, v in self.service.items()})
        row.update(
            {f"scheduler_{k}": v for k, v in self.scheduler.items()}
        )
        row.update({f"cache_{k}": v for k, v in self.cache.items()})
        return row
