"""The paper's analytical guarantees, computable.

* :func:`mixing_loss_bound` — Lemma 17's cut-off penalty.
* :func:`sampling_loss_bound` — Lemma 18's finite-sample /
  partial-synchronization penalty, driven by the intersection
  probability.
* :func:`theorem1_epsilon` — the full ε of Theorem 1 (their sum).
* :func:`config_error_bound` — Theorem 1 evaluated straight from a
  :class:`~repro.core.FrogWildConfig` (the shared machinery behind the
  admission ladder's degraded bounds and the process backend's
  partial-answer bounds).
* :func:`intersection_probability_bound` — Theorem 2.
* :func:`recommended_iterations` / :func:`recommended_frogs` — the
  scaling of Remark 6 made concrete.
* :func:`empirical_intersection_probability` — Monte-Carlo estimate of
  p∩(t), used to validate Theorem 2.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ConfigError
from ..graph import DiGraph
from ..pagerank.montecarlo import simulate_walkers

__all__ = [
    "mixing_loss_bound",
    "sampling_loss_bound",
    "theorem1_epsilon",
    "config_error_bound",
    "intersection_probability_bound",
    "recommended_iterations",
    "recommended_frogs",
    "empirical_intersection_probability",
]


def mixing_loss_bound(p_teleport: float, t: int) -> float:
    """sqrt((1 − p_T)^{t+1} / p_T): mass lost to the t-step cut-off."""
    if not 0.0 < p_teleport < 1.0:
        raise ConfigError("p_teleport must lie in (0, 1)")
    if t < 0:
        raise ConfigError("t must be non-negative")
    return math.sqrt((1.0 - p_teleport) ** (t + 1) / p_teleport)


def sampling_loss_bound(
    k: int,
    delta: float,
    num_frogs: int,
    ps: float,
    p_intersect: float,
) -> float:
    """sqrt(k/δ · [1/N + (1 − ps²) p∩(t)]) (Lemma 18).

    The first bracket term is pure sampling noise; the second is the
    correlation injected by partial synchronization.
    """
    if k < 1:
        raise ConfigError("k must be positive")
    if not 0.0 < delta < 1.0:
        raise ConfigError("delta must lie in (0, 1)")
    if num_frogs < 1:
        raise ConfigError("num_frogs must be positive")
    if not 0.0 <= ps <= 1.0:
        raise ConfigError("ps must lie in [0, 1]")
    if not 0.0 <= p_intersect <= 1.0:
        raise ConfigError("p_intersect must lie in [0, 1]")
    inner = 1.0 / num_frogs + (1.0 - ps * ps) * p_intersect
    return math.sqrt(k / delta * inner)


def theorem1_epsilon(
    k: int,
    delta: float,
    num_frogs: int,
    ps: float,
    t: int,
    p_intersect: float,
    p_teleport: float = 0.15,
) -> float:
    """The ε of Theorem 1: with probability ≥ 1 − δ,
    ``mu_k(pi_hat) ≥ mu_k(pi) − ε``.

    This is the paper's bound as stated, and it is vacuous (above 1,
    while top-k mass is at most 1) at practical settings: the mixing
    term alone is 1.59 at t = 5 and stays above 1 until t ≥ 11.
    """
    return mixing_loss_bound(p_teleport, t) + sampling_loss_bound(
        k, delta, num_frogs, ps, p_intersect
    )


def config_error_bound(
    config,
    k: int,
    num_vertices: int,
    delta: float = 0.1,
    pi_max: float = 0.01,
    num_frogs: int | None = None,
) -> float:
    """Theorem 1's ε promised by answers served under ``config``.

    The intersection probability comes from Theorem 2 with the given
    ``pi_max``.  ``config`` is duck typed (anything with ``num_frogs``,
    ``iterations``, ``ps`` and ``p_teleport`` — a
    :class:`~repro.core.FrogWildConfig` in practice), keeping this
    module import-light.  ``num_frogs`` overrides the config's budget:
    that is how partial answers — batches that lost a shard's frog
    slice mid-flight — report the *wider* bound their surviving
    population actually guarantees, through exactly the machinery the
    :class:`~repro.traffic.DegradationLadder` uses for load-shed
    answers.

    The value is Theorem 1's ε, not a calibrated error: with the
    constant ``pi_max`` it exceeds 1 at every benchmarked serving
    configuration (k=10, t=5, ps=0.8, n=32768 gives 5.055 at 3 000
    frogs and 5.051 at 20 000), so it bounds nothing there.
    """
    frogs = config.num_frogs if num_frogs is None else int(num_frogs)
    p_intersect = intersection_probability_bound(
        num_vertices, config.iterations, pi_max, config.p_teleport
    )
    return theorem1_epsilon(
        k=k,
        delta=delta,
        num_frogs=frogs,
        ps=config.ps,
        t=config.iterations,
        p_intersect=p_intersect,
        p_teleport=config.p_teleport,
    )


def intersection_probability_bound(
    n: int, t: int, pi_max: float, p_teleport: float = 0.15
) -> float:
    """Theorem 2: p∩(t) ≤ 1/n + t ‖pi‖∞ / p_T (clipped to 1)."""
    if n < 1:
        raise ConfigError("n must be positive")
    if t < 0:
        raise ConfigError("t must be non-negative")
    if not 0.0 <= pi_max <= 1.0:
        raise ConfigError("pi_max must lie in [0, 1]")
    if not 0.0 < p_teleport < 1.0:
        raise ConfigError("p_teleport must lie in (0, 1)")
    return min(1.0, 1.0 / n + t * pi_max / p_teleport)


def recommended_iterations(
    mu_k: float, p_teleport: float = 0.15, slack: float = 0.5
) -> int:
    """Smallest t with mixing loss ≤ ``slack · mu_k`` (Remark 6's
    ``t = O(log 1/mu_k)`` with explicit constants)."""
    if not 0.0 < mu_k <= 1.0:
        raise ConfigError("mu_k must lie in (0, 1]")
    if not 0.0 < slack < 1.0:
        raise ConfigError("slack must lie in (0, 1)")
    target = slack * mu_k
    t = 0
    while mixing_loss_bound(p_teleport, t) > target:
        t += 1
        if t > 10_000:  # pragma: no cover - unreachable for valid inputs
            raise ConfigError("failed to satisfy the mixing target")
    return t


def recommended_frogs(
    k: int, mu_k: float, delta: float = 0.1, slack: float = 0.5
) -> int:
    """Smallest N with sampling noise ≤ ``slack · mu_k`` at full sync
    (Remark 6's ``N = O(k / mu_k²)`` with explicit constants)."""
    if k < 1:
        raise ConfigError("k must be positive")
    if not 0.0 < mu_k <= 1.0:
        raise ConfigError("mu_k must lie in (0, 1]")
    if not 0.0 < delta < 1.0:
        raise ConfigError("delta must lie in (0, 1)")
    if not 0.0 < slack < 1.0:
        raise ConfigError("slack must lie in (0, 1)")
    return int(math.ceil(k / (delta * (slack * mu_k) ** 2)))


def empirical_intersection_probability(
    graph: DiGraph,
    t: int,
    trials: int = 2000,
    p_teleport: float = 0.15,
    seed: int | None = 0,
) -> float:
    """Monte-Carlo p∩(t): fraction of independent walker pairs (uniform
    starts, chain Q) that co-locate at some step ≤ t."""
    if t < 0:
        raise ConfigError("t must be non-negative")
    if trials < 1:
        raise ConfigError("trials must be positive")
    rng = np.random.default_rng(seed)
    n = graph.num_vertices
    a = rng.integers(0, n, size=trials).astype(np.int64)
    b = rng.integers(0, n, size=trials).astype(np.int64)
    met = a == b
    for _ in range(t):
        a = simulate_walkers(
            graph, a, p_teleport=p_teleport, max_steps=1, rng=rng,
            teleport_restarts=True,
        )
        b = simulate_walkers(
            graph, b, p_teleport=p_teleport, max_steps=1, rng=rng,
            teleport_restarts=True,
        )
        met |= a == b
    return float(met.mean())
