"""Admission control and the backlog-triggered degradation ladder.

FrogWild's whole point is a *tunable* accuracy-for-cost knob: fewer
frogs and earlier stopping give a cheaper answer whose error Theorem 1
still bounds.  Under backlog that knob is exactly what a service should
turn — instead of letting the queue grow without bound (latency →
infinity for everyone) it serves *bounded-error* answers faster, and
only when even the cheapest rung cannot keep up does it shed load
outright with a typed :class:`~repro.errors.OverloadError`.

:class:`AdmissionController` makes that policy explicit and auditable:

* a hard ``max_pending`` bound on the scheduler queue — at or beyond
  it, new work is **shed** (fail-fast, never silently dropped);
* a :class:`DegradationLadder` of rungs engaged at increasing
  queue-depth fractions, each shrinking the frog budget and/or capping
  supersteps;
* every degraded config's implied error bound, computed through
  :func:`repro.theory.bounds.theorem1_epsilon` with the intersection
  probability of Theorem 2, so the accuracy given up is *reported*
  alongside the answer, never silently lost.

The controller is pure policy: it never touches the queue itself.  The
:class:`~repro.serving.RankingService` consults it under its own lock
(see ``admission=`` in the service constructor), which is why the
counters here need no locking of their own.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core import FrogWildConfig
from ..errors import ConfigError
from ..theory.bounds import config_error_bound

__all__ = [
    "DegradeRung",
    "DegradationLadder",
    "AdmissionDecision",
    "AdmissionStats",
    "AdmissionController",
]


@dataclass(frozen=True)
class DegradeRung:
    """One rung of the ladder: how much fidelity to give up.

    ``frog_fraction`` scales the query's frog budget (N); a
    ``max_iterations`` of ``None`` leaves the cut-off t alone.  Both
    knobs map one-to-one onto the terms of Theorem 1: fewer frogs grow
    the sampling loss, a smaller t grows the mixing loss.
    """

    frog_fraction: float
    max_iterations: int | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.frog_fraction <= 1.0:
            raise ConfigError("frog_fraction must lie in (0, 1]")
        if self.max_iterations is not None and self.max_iterations < 1:
            raise ConfigError("max_iterations must be positive (or None)")


@dataclass(frozen=True)
class DegradationLadder:
    """Backlog thresholds mapped to degrade rungs.

    ``rungs[i]`` engages once queue depth reaches
    ``trigger_fractions[i] * max_pending``; fractions must be strictly
    increasing and the rungs monotonically cheaper, so deeper backlog
    never buys *more* work per query.
    """

    rungs: tuple[DegradeRung, ...] = (
        DegradeRung(frog_fraction=0.5, max_iterations=3),
        DegradeRung(frog_fraction=0.25, max_iterations=2),
    )
    trigger_fractions: tuple[float, ...] = (0.5, 0.75)

    def __post_init__(self) -> None:
        if len(self.rungs) != len(self.trigger_fractions):
            raise ConfigError(
                "rungs and trigger_fractions must align one-to-one"
            )
        if any(not 0.0 < f < 1.0 for f in self.trigger_fractions):
            raise ConfigError("trigger_fractions must lie in (0, 1)")
        if list(self.trigger_fractions) != sorted(
            set(self.trigger_fractions)
        ):
            raise ConfigError(
                "trigger_fractions must be strictly increasing"
            )
        for earlier, later in zip(self.rungs, self.rungs[1:]):
            if later.frog_fraction > earlier.frog_fraction:
                raise ConfigError(
                    "rungs must degrade monotonically (frog_fraction "
                    "must not increase down the ladder)"
                )

    def level_for(self, depth: int, max_pending: int) -> int:
        """The rung engaged at this queue depth (0: full fidelity)."""
        level = 0
        for i, fraction in enumerate(self.trigger_fractions):
            if depth >= fraction * max_pending:
                level = i + 1
        return level


@dataclass(frozen=True)
class AdmissionDecision:
    """What the controller ruled for one arriving query."""

    action: str  # "admit" | "degrade" | "shed"
    level: int = 0
    depth: int = 0
    limit: int = 0


@dataclass
class AdmissionStats:
    """Lifetime decision counters of one controller."""

    offered: int = 0
    admitted: int = 0
    degraded: int = 0
    shed: int = 0
    # Decisions per ladder rung, keyed by level (>= 1).
    degraded_by_level: dict[int, int] = field(default_factory=dict)

    def shed_rate(self) -> float:
        return self.shed / self.offered if self.offered else 0.0


class AdmissionController:
    """Queue-bound admission with an SLO ladder of degraded modes.

    Parameters
    ----------
    max_pending:
        Hard bound on scheduler queue depth.  A query arriving at
        depth >= ``max_pending`` is shed.
    ladder:
        The degradation policy; ``None`` uses the two-rung default
        (half frogs / t<=3, then quarter frogs / t<=2).
    delta:
        Confidence parameter of Theorem 1's guarantee (the reported
        bound holds with probability >= 1 - delta).
    pi_max:
        Upper bound on the personalized PageRank vector's largest
        entry, feeding Theorem 2's intersection-probability bound.
        The conservative default (0.01) reflects the top-entry mass
        typical of power-law graphs; callers who know their graph can
        tighten it (e.g. from an exact run's ``pi.max()``).
    """

    def __init__(
        self,
        max_pending: int = 64,
        ladder: DegradationLadder | None = None,
        delta: float = 0.1,
        pi_max: float = 0.01,
    ) -> None:
        if max_pending < 1:
            raise ConfigError("max_pending must be positive")
        if not 0.0 < delta < 1.0:
            raise ConfigError("delta must lie in (0, 1)")
        if not 0.0 <= pi_max <= 1.0:
            raise ConfigError("pi_max must lie in [0, 1]")
        self.max_pending = int(max_pending)
        self.ladder = ladder if ladder is not None else DegradationLadder()
        self.delta = float(delta)
        self.pi_max = float(pi_max)
        self.stats = AdmissionStats()

    def decide(self, depth: int) -> AdmissionDecision:
        """Rule on one arriving query given the current queue depth.

        Not independently thread-safe: the owning service calls this
        under the same lock that guards its queue and stats.
        """
        self.stats.offered += 1
        if depth >= self.max_pending:
            self.stats.shed += 1
            return AdmissionDecision(
                action="shed", depth=depth, limit=self.max_pending
            )
        level = self.ladder.level_for(depth, self.max_pending)
        if level > 0:
            self.stats.degraded += 1
            self.stats.degraded_by_level[level] = (
                self.stats.degraded_by_level.get(level, 0) + 1
            )
            return AdmissionDecision(
                action="degrade",
                level=level,
                depth=depth,
                limit=self.max_pending,
            )
        self.stats.admitted += 1
        return AdmissionDecision(
            action="admit", depth=depth, limit=self.max_pending
        )

    def degraded_config(
        self, config: FrogWildConfig, level: int
    ) -> FrogWildConfig:
        """The config rung ``level`` (>= 1) turns ``config`` into."""
        if not 1 <= level <= len(self.ladder.rungs):
            raise ConfigError(
                f"level must lie in [1, {len(self.ladder.rungs)}], "
                f"got {level}"
            )
        rung = self.ladder.rungs[level - 1]
        num_frogs = max(1, int(config.num_frogs * rung.frog_fraction))
        iterations = config.iterations
        if rung.max_iterations is not None:
            iterations = min(iterations, rung.max_iterations)
        if num_frogs == config.num_frogs and iterations == config.iterations:
            return config
        return config.with_updates(
            num_frogs=num_frogs, iterations=iterations
        )

    def error_bound(
        self, config: FrogWildConfig, k: int, num_vertices: int
    ) -> float:
        """Theorem 1's epsilon for answers served under ``config``.

        The intersection probability comes from Theorem 2 with the
        controller's ``pi_max``; the result is the accuracy actually
        promised by a degraded (or full-fidelity) answer.  Delegates to
        :func:`repro.theory.bounds.config_error_bound` — the same
        machinery the process backend uses to widen partial answers'
        bounds after a shard loss.
        """
        return config_error_bound(
            config,
            k,
            num_vertices,
            delta=self.delta,
            pi_max=self.pi_max,
        )
