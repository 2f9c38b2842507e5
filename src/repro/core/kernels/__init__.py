"""The deterministic passes of the batched FrogWild superstep.

:class:`~repro.core.BatchedFrogWildRunner` has one superstep.  It makes
every random draw itself (death coins, sync coins, repair picks, hop
draws — per lane, in the order of the lane's single run) and hands
everything deterministic between the draws to
:class:`~.fused.FusedPasses`: whole-frontier numpy passes whose shape
is the documented cost, O(frontier rows x machines + frogs) — one
(rows x machines) block of dense group widths
(:class:`~.layout.DenseGroupTables`, cached per ingress) masked by the
coin matrix and reduced along rows and columns.

The serving entry points still accept ``kernel=`` for caller
compatibility; it has a single value, ``"fused"``, and
:func:`resolve_kernel` is the check they share.
"""

from __future__ import annotations

from ...errors import ConfigError
from .fused import FusedPasses
from .layout import DenseGroupTables

__all__ = ["DenseGroupTables", "FusedPasses", "resolve_kernel"]


def resolve_kernel(kernel: str) -> str:
    """Validate a ``kernel=`` keyword: ``"fused"`` is the only kernel.

    Anything else — the removed Numba ``"compiled"`` tier included —
    raises :class:`~repro.errors.ConfigError`.
    """
    if kernel != "fused":
        raise ConfigError(
            f"unknown kernel {kernel!r}: the Numba 'compiled' tier was "
            "removed and 'fused' is the only kernel"
        )
    return kernel
