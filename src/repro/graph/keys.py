"""Sorted integer keys — the one dedup primitive every layer shares.

Edges travel through the repo as ``source * n + target`` int64 keys and
per-superstep message pairs as ``host * n + dest`` keys; both are
deduplicated many times per refresh / superstep.  Plain ``np.unique``
on an integer array takes numpy's hash-table path (numpy >= 2.3), which
is ~30x slower than a sort plus an adjacent-difference mask on the
500k-key arrays the serving graphs produce (150 ms vs 5 ms) and throws
away the sortedness the callers rely on anyway.  :func:`sorted_unique`
is that sort + mask; everything under ``src/repro`` that needs distinct
keys calls it instead of ``np.unique``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["sorted_unique"]


def sorted_unique(keys) -> np.ndarray:
    """Sorted distinct values of an integer array.

    Bit-identical to ``np.unique(keys)`` (flattens, keeps the dtype,
    always returns a fresh array) for any integer input.
    """
    keys = np.sort(keys, axis=None)
    if keys.size < 2:
        return keys
    first = np.empty(keys.size, dtype=bool)
    first[0] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return keys[first]
