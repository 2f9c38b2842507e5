"""Open-loop arrival processes for the traffic harness.

Open-loop means arrivals do **not** wait for the service: the process
emits query instants from its own law, and a slow server simply watches
its queue grow — exactly the regime where admission control earns its
keep.  (A closed-loop driver, where each user waits for their answer
before asking again, self-throttles and can never overload anything.)

Three processes cover the shapes production traffic actually takes:

* :class:`PoissonArrivals` — homogeneous Poisson at a constant rate,
  the memoryless baseline;
* :class:`DiurnalArrivals` — a sinusoidally modulated rate (day/night
  cycle), the slow envelope real services provision for;
* :class:`BurstArrivals` — a flash crowd: baseline rate with a
  rectangular burst window at a multiple of it, the overload scenario
  the degradation ladder is designed around.

All processes are inhomogeneous-Poisson under the hood and sample via
Lewis–Shedler thinning against their peak rate, so a fixed seed yields
a bit-identical arrival sequence on every run — the property the
deterministic virtual-clock harness relies on.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ConfigError

__all__ = [
    "ArrivalProcess",
    "PoissonArrivals",
    "DiurnalArrivals",
    "BurstArrivals",
]


class ArrivalProcess:
    """Base class: an intensity function sampled by thinning.

    Subclasses define :meth:`rate` (the instantaneous intensity in
    queries/second) and :attr:`peak_rate` (a finite upper bound on it);
    :meth:`times` then draws one realization of the process.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)

    @property
    def peak_rate(self) -> float:
        raise NotImplementedError

    def rate(self, t: float) -> float:
        """Instantaneous arrival intensity at time ``t`` (queries/s)."""
        raise NotImplementedError

    def times(self, duration_s: float) -> np.ndarray:
        """One arrival realization on ``[0, duration_s)``, sorted.

        Lewis–Shedler thinning: candidate points from a homogeneous
        Poisson process at ``peak_rate`` are kept with probability
        ``rate(t) / peak_rate``.  Deterministic for a fixed seed.
        """
        if duration_s <= 0:
            raise ConfigError("duration_s must be positive")
        lam = self.peak_rate
        rng = np.random.default_rng([31, self.seed])
        out: list[float] = []
        t = 0.0
        while True:
            t += rng.exponential(1.0 / lam)
            if t >= duration_s:
                break
            if rng.random() * lam <= self.rate(t):
                out.append(t)
        return np.asarray(out, dtype=np.float64)


class PoissonArrivals(ArrivalProcess):
    """Homogeneous Poisson arrivals at ``rate_qps`` queries/second."""

    def __init__(self, rate_qps: float, seed: int = 0) -> None:
        super().__init__(seed)
        if rate_qps <= 0:
            raise ConfigError("rate_qps must be positive")
        self.rate_qps = float(rate_qps)

    @property
    def peak_rate(self) -> float:
        return self.rate_qps

    def rate(self, t: float) -> float:
        return self.rate_qps


class DiurnalArrivals(ArrivalProcess):
    """Sinusoidal day/night modulation between a trough and a peak.

    ``rate(t) = mid + amp * sin(2π t / period_s + phase)`` with
    ``mid = (trough + peak) / 2`` — the classic diurnal envelope,
    compressed to whatever ``period_s`` the test or benchmark can
    afford to simulate.
    """

    def __init__(
        self,
        trough_qps: float,
        peak_qps: float,
        period_s: float,
        phase: float = 0.0,
        seed: int = 0,
    ) -> None:
        super().__init__(seed)
        if trough_qps <= 0 or peak_qps <= 0:
            raise ConfigError("rates must be positive")
        if peak_qps < trough_qps:
            raise ConfigError("peak_qps must be >= trough_qps")
        if period_s <= 0:
            raise ConfigError("period_s must be positive")
        self.trough_qps = float(trough_qps)
        self.peak_qps = float(peak_qps)
        self.period_s = float(period_s)
        self.phase = float(phase)

    @property
    def peak_rate(self) -> float:
        return self.peak_qps

    def rate(self, t: float) -> float:
        mid = 0.5 * (self.trough_qps + self.peak_qps)
        amp = 0.5 * (self.peak_qps - self.trough_qps)
        return mid + amp * math.sin(
            2.0 * math.pi * t / self.period_s + self.phase
        )


class BurstArrivals(ArrivalProcess):
    """A flash crowd: baseline rate with one rectangular burst window.

    Inside ``[burst_start_s, burst_start_s + burst_duration_s)`` the
    rate jumps to ``burst_qps``; outside it stays at ``base_qps``.
    The deterministic overload scenario drives the burst far beyond
    service capacity and watches the queue.
    """

    def __init__(
        self,
        base_qps: float,
        burst_qps: float,
        burst_start_s: float,
        burst_duration_s: float,
        seed: int = 0,
    ) -> None:
        super().__init__(seed)
        if base_qps <= 0 or burst_qps <= 0:
            raise ConfigError("rates must be positive")
        if burst_qps < base_qps:
            raise ConfigError("burst_qps must be >= base_qps")
        if burst_start_s < 0 or burst_duration_s <= 0:
            raise ConfigError("burst window must be non-degenerate")
        self.base_qps = float(base_qps)
        self.burst_qps = float(burst_qps)
        self.burst_start_s = float(burst_start_s)
        self.burst_duration_s = float(burst_duration_s)

    @property
    def peak_rate(self) -> float:
        return self.burst_qps

    def rate(self, t: float) -> float:
        lo = self.burst_start_s
        if lo <= t < lo + self.burst_duration_s:
            return self.burst_qps
        return self.base_qps
