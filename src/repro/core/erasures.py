"""Edge-erasure models (Appendix A of the paper).

Partial mirror synchronization makes edges hosted on un-synchronized
mirrors temporarily unusable — Definition 8 abstracts this as a
per-step random *erasure* of out-edges satisfying:

1. independence across vertices and time,
2. each edge preserved with probability at least ``ps``,
3. no significant negative correlation,
4. symmetric within a neighbourhood.

Two concrete models are analyzed:

* :class:`IndependentErasures` (Example 9) — every edge erased
  independently; can strand walkers when all out-edges of their vertex
  vanish for a step (the paper's footnote 1 — we keep such walkers in
  place rather than losing them).
* :class:`AtLeastOneOutEdge` (Example 10) — like the above, but if all
  out-edges of a vertex are erased one is re-enabled uniformly at
  random.  This is the model used in the paper's implementation and our
  default.

The runner (:mod:`repro.core.batched`) applies the model's repair rule
to the erasure pattern it draws each superstep.
"""

from __future__ import annotations

from ..errors import ConfigError

__all__ = [
    "ErasureModel",
    "IndependentErasures",
    "AtLeastOneOutEdge",
    "make_erasure_model",
]


class ErasureModel:
    """Base class; concrete models only differ in the repair rule."""

    name = "base"
    #: Whether a vertex whose enabled edge set came up empty gets one
    #: uniformly chosen edge re-enabled.
    repairs_empty: bool = False


class IndependentErasures(ErasureModel):
    """Example 9: iid erasures, no repair (stranded walkers wait)."""

    name = "independent"
    repairs_empty = False


class AtLeastOneOutEdge(ErasureModel):
    """Example 10: iid erasures, one edge forced back when all fail."""

    name = "at-least-one"
    repairs_empty = True


def make_erasure_model(name: str) -> ErasureModel:
    """Factory keyed by config string."""
    if name == "independent":
        return IndependentErasures()
    if name == "at-least-one":
        return AtLeastOneOutEdge()
    raise ConfigError(f"unknown erasure model {name!r}")
