"""Kernel tiers of the batched FrogWild superstep.

:class:`~repro.core.BatchedFrogWildRunner` has one superstep.  It makes
every random draw itself (death coins, sync coins, repair picks, hop
draws — per lane, in the standalone runner's order) and hands
everything deterministic between the draws to a *pass implementation*;
the ``kernel=`` seam of the runner and of every serving backend picks
which:

* ``"fused"``    — :class:`~.fused.FusedPasses`, whole-frontier numpy
  (default, and the reference the other tier is pinned to).  Its passes
  have the shape of the documented cost, O(frontier rows x machines +
  frogs): one (rows x machines) block of dense group widths
  (:class:`~.layout.DenseGroupTables`, cached per ingress) masked by
  the coin matrix and reduced along rows and columns — 0.81 full on
  the benchmark's R-MAT graph at 16 machines, 0.35-0.43 on
  ``twitter_like(50k)``, and slower than the ragged lists it replaced
  at 64 machines on the latter (fill 0.12-0.26; README, "Cost model");
* ``"compiled"`` — :class:`~.compiled.CompiledPasses`, Numba-jitted
  single-pass loops with cache-conscious layout (:mod:`.compiled`,
  :mod:`.layout`, :mod:`.arena`), installed via the ``[accel]`` extra.

A pass implementation is constructed from the kernel tables (and its
tier's own per-ingress view of them) plus
``num_lanes``/``num_machines``/``num_vertices`` and provides, in the
order a superstep calls them: ``begin_superstep()``; ``apply(counts,
lane_ids, verts, dead, k)`` (tally deaths, return per-machine ops);
``enabled_groups(lane_sv, vert_sv, fresh)`` (open the scatter frontier,
return enabled and total groups per row); ``force_groups(rows,
groups)`` (switch a repaired row's chosen global group on);
``enabled_totals()`` (enabled edges per row, enabled groups per machine
and per lane); ``scratch(size, dtype)`` for the draw buffers;
``expand_multinomial(k_send, edge_counts, draw)`` or
``expand_binomial(k_sv, edge_counts, lane_ps)`` + ``binomial_post(
chosen, edge_lane, sent)`` (the hops); ``frog_records(lane, host, dest,
dedupe=)`` (per-lane demand and deduped physical record matrices); and
``reduce_frontier(hop_keys, hop_weights, idle_keys, idle_weights)``
(the next sorted ``(lane, vertex, count)`` frontier).

Selection degrades gracefully: requesting ``"compiled"`` on a host
without Numba falls back to ``"fused"`` with a single
:class:`RuntimeWarning` (never an ImportError), and
:func:`available_kernels` reports what is actually runnable.  Setting
``REPRO_COMPILED_FORCE=python`` forces the compiled tier to run its
pure-Python pass implementations — far too slow for production but
exactly what the parity tests use to pin the compiled passes bitwise to
the fused kernel on Numba-less hosts.
"""

from __future__ import annotations

import os
import warnings

from ...errors import ConfigError
from .arena import BufferArena
from .compiled import HAVE_NUMBA, CompiledPasses
from .fused import FusedPasses
from .layout import (
    CompiledTables,
    DenseGroupTables,
    lane_key_dtype,
    pack_lane_keys,
    plan_tiles,
    unpack_lane_keys,
)

__all__ = [
    "KERNEL_TIERS",
    "HAVE_NUMBA",
    "BufferArena",
    "CompiledPasses",
    "CompiledTables",
    "DenseGroupTables",
    "FusedPasses",
    "available_kernels",
    "compiled_available",
    "lane_key_dtype",
    "pack_lane_keys",
    "plan_tiles",
    "reset_fallback_warning",
    "resolve_kernel",
    "unpack_lane_keys",
]

KERNEL_TIERS = ("fused", "compiled")

_warned_fallback = False


def compiled_available() -> bool:
    """Whether ``kernel="compiled"`` can actually run on this host."""
    from . import compiled  # live attribute so tests can mask the import

    if compiled.HAVE_NUMBA:
        return True
    return os.environ.get("REPRO_COMPILED_FORCE", "") == "python"


def available_kernels() -> tuple[str, ...]:
    """The kernel tiers runnable on this host, in escalation order."""
    if compiled_available():
        return KERNEL_TIERS
    return tuple(k for k in KERNEL_TIERS if k != "compiled")


def resolve_kernel(kernel: str) -> str:
    """Validate a requested tier and apply the graceful fallback.

    Unknown names raise :class:`~repro.errors.ConfigError`;
    ``"compiled"`` without a way to run it degrades to ``"fused"`` with
    one warning per process (the two tiers are bitwise identical, so
    only speed is lost).
    """
    if kernel not in KERNEL_TIERS:
        raise ConfigError(
            f"kernel must be one of {KERNEL_TIERS}, got {kernel!r}"
        )
    if kernel == "compiled" and not compiled_available():
        global _warned_fallback
        if not _warned_fallback:
            _warned_fallback = True
            warnings.warn(
                "kernel='compiled' requested but numba is not importable; "
                "falling back to the numpy fused kernel (results are "
                "identical). Install the accelerator extra: "
                "pip install 'frogwild-repro[accel]'",
                RuntimeWarning,
                stacklevel=3,
            )
        return "fused"
    return kernel


def reset_fallback_warning() -> None:
    """Re-arm the once-per-process fallback warning (tests only)."""
    global _warned_fallback
    _warned_fallback = False
