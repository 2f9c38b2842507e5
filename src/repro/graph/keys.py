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

Keys that are *already* sorted and distinct get their set algebra here
too (:func:`merge_sorted`, :func:`drop_sorted`, :func:`count_common`):
one definition for the disk store and the RAM graph, which never
re-sorts an ordered run or probes all m keys for a handful of members.
"""

from __future__ import annotations

import numpy as np

__all__ = ["count_common", "drop_sorted", "merge_sorted", "sorted_unique"]


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


def _find(keys: np.ndarray, members: np.ndarray):
    """Slot of each sorted ``members`` value in sorted ``keys``, and
    whether the value is already there."""
    slots = np.searchsorted(keys, members)
    found = slots < keys.size
    found[found] = keys[slots[found]] == members[found]
    return slots, found


def merge_sorted(keys: np.ndarray, extra: np.ndarray) -> np.ndarray:
    """``np.union1d`` of sorted distinct arrays, without its sort:
    O(len(extra) log m) to place the new keys plus one O(m) copy
    (``keys`` itself when ``extra`` brings nothing new)."""
    slots, found = _find(keys, extra)
    if found.all():
        return keys
    return np.insert(keys, slots[~found], extra[~found])


def drop_sorted(keys: np.ndarray, members: np.ndarray) -> np.ndarray:
    """``np.setdiff1d(keys, members)`` of sorted distinct arrays, without
    its sort; absent members are ignored (and ``keys`` itself may come
    back when none is present)."""
    if members.size > keys.size:  # probe the shorter array into the longer
        return keys[~_find(members, keys)[1]]
    slots, found = _find(keys, members)
    if not found.any():
        return keys
    return np.delete(keys, slots[found])


def count_common(a: np.ndarray, b: np.ndarray) -> int:
    """``np.intersect1d(a, b).size`` of sorted distinct arrays: a stable
    sort of two ordered runs is one linear merge (timsort), after which
    a common key is an adjacent equal pair."""
    if a is b:
        return int(a.size)
    both = np.concatenate([a, b])
    both.sort(kind="stable")
    return int(np.count_nonzero(both[1:] == both[:-1]))
