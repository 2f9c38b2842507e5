"""Configuration for FrogWild runs.

Mirrors the paper's input parameters (vertex program, Section 2.2):
``ps`` (mirror sync probability), ``p_T = 0.15`` (teleport/death
probability) and ``t`` (iteration cut-off), plus the number of frogs N
and the implementation choices discussed in Sections 2.2 and 3.3.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from numbers import Integral

import numpy as np

from ..errors import ConfigError

__all__ = ["FrogWildConfig"]

_SCATTER_MODES = ("multinomial", "binomial")
_ERASURE_MODELS = ("at-least-one", "independent")


def check_positive_int(name: str, value) -> None:
    """Refuse anything but a positive integer (``bool`` excluded)."""
    if not isinstance(value, Integral) or isinstance(value, bool):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ConfigError(f"{name} must be positive")


def check_seed(seed) -> None:
    """Refuse a seed other than None or a non-negative integer, the
    seeds ``np.random.default_rng`` accepts."""
    if seed is None:
        return
    if not isinstance(seed, Integral) or isinstance(seed, bool):
        raise ConfigError(f"seed must be an integer or None, got {seed!r}")
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")


def check_seed_set(
    seeds, weights=None, num_vertices: int | None = None
) -> tuple[np.ndarray, np.ndarray | None]:
    """``seeds`` and ``weights`` as int64 ids and float64 weights (None:
    uniform over the seeds), or a :class:`ConfigError`.

    The one check of a birth law on a seed set (Lemma 16): integer ids
    (a float or bool id is refused, never truncated), distinct, at
    least 0 and below ``num_vertices`` when it is given; weights aligned
    with the seeds, finite, non-negative and of positive mass.
    """
    array = np.atleast_1d(np.asarray(seeds))
    if not array.size:
        raise ConfigError("seed set must be non-empty")
    # A bool inside a list of ints hides in an int64 array.
    if (
        array.ndim != 1
        or array.dtype.kind not in "iu"
        or (
            isinstance(seeds, (tuple, list))
            and any(isinstance(s, (bool, np.bool_)) for s in seeds)
        )
    ):
        raise ConfigError(f"seed ids must be integers, got {seeds!r}")
    array = array.astype(np.int64)
    ordered = np.sort(array)
    if (ordered[1:] == ordered[:-1]).any():
        raise ConfigError("seed ids must be distinct")
    if ordered[0] < 0 or (
        num_vertices is not None and ordered[-1] >= num_vertices
    ):
        raise ConfigError("seed ids out of range")
    if weights is None:
        return array, None
    weights = np.atleast_1d(np.asarray(weights, dtype=np.float64))
    if weights.shape != array.shape:
        raise ConfigError("weights must align with seeds")
    if not np.isfinite(weights).all():
        raise ConfigError("weights must be finite")
    # Finite weights can still sum past the float range.
    with np.errstate(over="ignore"):
        total = weights.sum()
    if weights.min() < 0 or not 0 < total < np.inf:
        raise ConfigError("weights must be non-negative with positive mass")
    return array, weights


@dataclass(frozen=True)
class FrogWildConfig:
    """Parameters of one FrogWild execution.

    Attributes
    ----------
    num_frogs:
        N — initial random walkers, placed uniformly at random.  The
        paper uses 800K on graphs of 4.8M–41.6M vertices; Remark 6 gives
        the scaling ``N = O(k / mu_k(pi)^2)``.
    iterations:
        t — supersteps before every surviving frog is stopped and
        counted.  The paper finds 3–5 sufficient (Figures 3, 6).
    ps:
        Probability that each mirror synchronizes per barrier;
        ``ps = 1`` is stock PowerGraph.
    p_teleport:
        p_T — per-step death probability realizing the teleportation
        component (0.15 throughout the paper).
    scatter_mode:
        ``"multinomial"`` (default) conserves frogs exactly, matching the
        implementation note in Section 2.2; ``"binomial"`` reproduces the
        pseudocode literally (Bin(K, 1/(d_out ps)) per enabled edge,
        conserving frogs only in expectation).
    erasure_model:
        ``"at-least-one"`` (default, Example 10 — used in the paper's
        experiments) re-enables one uniformly chosen mirror when all
        coins fail for a vertex holding frogs; ``"independent"``
        (Example 9) lets such frogs idle in place for the step.
    seed:
        Seed for all run randomness (placement, deaths, coins, hops).

    Notes
    -----
    There is no kernel field: the batched superstep has one pass
    implementation (:mod:`repro.core.kernels`).  The serving entry
    points keep a ``kernel=`` keyword for caller compatibility, and
    its only value is ``"fused"``.
    """

    num_frogs: int = 10_000
    iterations: int = 4
    ps: float = 1.0
    p_teleport: float = 0.15
    scatter_mode: str = "multinomial"
    erasure_model: str = "at-least-one"
    seed: int | None = 0

    def __post_init__(self) -> None:
        check_positive_int("num_frogs", self.num_frogs)
        check_positive_int("iterations", self.iterations)
        check_seed(self.seed)
        if not 0.0 <= self.ps <= 1.0:
            raise ConfigError(f"ps must lie in [0, 1], got {self.ps}")
        if not 0.0 < self.p_teleport < 1.0:
            raise ConfigError(
                f"p_teleport must lie in (0, 1), got {self.p_teleport}"
            )
        if self.scatter_mode not in _SCATTER_MODES:
            raise ConfigError(
                f"scatter_mode must be one of {_SCATTER_MODES}, "
                f"got {self.scatter_mode!r}"
            )
        if self.erasure_model not in _ERASURE_MODELS:
            raise ConfigError(
                f"erasure_model must be one of {_ERASURE_MODELS}, "
                f"got {self.erasure_model!r}"
            )

    def with_updates(self, **changes) -> "FrogWildConfig":
        """Return a copy with the given fields replaced (validated)."""
        return replace(self, **changes)

