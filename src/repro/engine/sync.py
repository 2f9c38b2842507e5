"""Randomized mirror synchronization — the paper's GraphLab patch.

Stock PowerGraph synchronizes *every* mirror of a changed vertex at each
barrier.  The paper's key system modification (Section 1, third
innovation; Section 3.3) exposes a scalar ``ps``: each mirror is
synchronized independently with probability ``ps``, and mirrors left
un-synchronized stay idle for the following scatter phase.  Setting
``ps = 1`` reproduces stock behaviour exactly.

:func:`mirror_matrix` is the per-ingress bitmap of mirrors and
:func:`sync_coins` flips the patch's coins over rows of it.  The caller
(the FrogWild runner, once per frog population) adds the master column
to get the replicas that may participate in scatter — the coupling that
turns partial synchronization into the edge-erasure model of
Definition 8.  Billing is the caller's too: one sync record per
synchronized mirror, counted per machine pair by
:func:`count_marks_by_key` and sent with
:meth:`~repro.engine.ClusterState.send_pair_matrix`, so the batched
runner of :mod:`repro.core.batched` aggregates the records of every
frog population into one physical flush per barrier.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from ..errors import EngineError

__all__ = ["count_marks_by_key", "mirror_matrix", "sync_coins"]


def count_marks_by_key(
    keys: np.ndarray, marks: np.ndarray, num_keys: int
) -> np.ndarray:
    """Count ``marks[r, c]`` grouped by ``(keys[r], c)``.

    ``marks`` is a boolean (rows x columns) matrix and ``keys[r]`` in
    ``[0, num_keys)`` the group of row r; entry ``[k, c]`` of the int64
    (num_keys x columns) result is the number of rows with key k whose
    column c is marked.  One product of the rows' one-hot key matrix
    with the mask — the mask is streamed once, in place, and never
    listed as (row, column) pairs.  The product accumulates in int32
    (an int64 one-hot makes scipy widen the whole mask) and only the
    small result is widened, which is exact while there are fewer than
    2**31 rows: no count can exceed the rows.
    """
    rows = keys.size
    if rows and not 0 <= keys.min() <= keys.max() < num_keys:
        raise EngineError(f"keys must lie in [0, {num_keys})")
    onehot = sparse.csc_matrix(
        (np.ones(rows, dtype=np.int32), keys, np.arange(rows + 1)),
        shape=(num_keys, rows),
    )
    return (onehot @ marks.view(np.int8)).astype(np.int64)


def mirror_matrix(replication) -> np.ndarray:
    """Mirror bitmap of one replication table: replicas minus masters.

    Entry ``[v, p]`` marks machine ``p`` holding a *mirror* (non-master
    replica) of vertex ``v``.  Built once per ingress (the
    ``"mirror_matrix"`` ingress-cache entry) and read-shared by every
    run on it, so callers copy before writing.
    """
    matrix = replication.replica_matrix.copy()
    matrix[np.arange(replication.masters.size), replication.masters] = False
    return matrix


def sync_coins(
    mirrors: np.ndarray, ps: float, rng: np.random.Generator
) -> np.ndarray:
    """The mirrors of ``mirrors`` (a boolean rows x machines block of
    the bitmap) that synchronize this barrier, each with probability
    ``ps``: all of them at ``ps >= 1``, none at ``ps <= 0``, and
    otherwise one ``rng.random(mirrors.shape)`` call of coins."""
    if ps >= 1.0:
        return mirrors.copy()
    if ps <= 0.0:
        return np.zeros_like(mirrors)
    return mirrors & (rng.random(mirrors.shape) < ps)
