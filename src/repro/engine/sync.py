"""Randomized mirror synchronization — the paper's GraphLab patch.

Stock PowerGraph synchronizes *every* mirror of a changed vertex at each
barrier.  The paper's key system modification (Section 1, third
innovation; Section 3.3) exposes a scalar ``ps``: each mirror is
synchronized independently with probability ``ps``, and mirrors left
un-synchronized stay idle for the following scatter phase.  Setting
``ps = 1`` reproduces stock behaviour exactly.

:class:`MirrorSynchronizer` flips the patch's coins
(:meth:`~MirrorSynchronizer.draw_fresh`).  The returned fresh-replica
matrix tells the caller (the FrogWild runner) which replicas may
participate in scatter — the coupling that turns partial
synchronization into the edge-erasure model of Definition 8.  Billing
is the caller's: one sync record per synchronized mirror, counted per
machine pair by :func:`sync_pair_records` and sent with
:meth:`~repro.engine.ClusterState.send_pair_matrix`, so the batched
runner of :mod:`repro.core.batched` aggregates the records of every
frog population into one physical flush per barrier.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from ..errors import EngineError
from .state import ClusterState

__all__ = ["MirrorSynchronizer", "count_marks_by_key", "sync_pair_records"]


def count_marks_by_key(
    keys: np.ndarray, marks: np.ndarray, num_keys: int
) -> np.ndarray:
    """Count ``marks[r, c]`` grouped by ``(keys[r], c)``.

    ``marks`` is a boolean (rows x columns) matrix and ``keys[r]`` in
    ``[0, num_keys)`` the group of row r; entry ``[k, c]`` of the int64
    (num_keys x columns) result is the number of rows with key k whose
    column c is marked.  One product of the rows' one-hot key matrix
    with the mask — the mask is streamed once, in place, and never
    listed as (row, column) pairs.
    """
    rows = keys.size
    if rows and not 0 <= keys.min() <= keys.max() < num_keys:
        raise EngineError(f"keys must lie in [0, {num_keys})")
    onehot = sparse.csc_matrix(
        (np.ones(rows, dtype=np.int64), keys, np.arange(rows + 1)),
        shape=(num_keys, rows),
    )
    return onehot @ marks.view(np.int8)


def sync_pair_records(
    masters: np.ndarray, synced: np.ndarray, num_machines: int
) -> np.ndarray:
    """Master-to-mirror record counts as a machine-pair matrix.

    ``masters[i]`` is the master machine of the i-th vertex and
    ``synced[i, p]`` marks machine ``p`` receiving a sync record for it;
    the result's ``[s, d]`` entry counts records sent from ``s`` to ``d``.
    """
    return count_marks_by_key(masters, synced, num_machines)


class MirrorSynchronizer:
    """Per-barrier randomized master-to-mirror synchronization.

    Parameters
    ----------
    state:
        The simulated cluster.
    ps:
        Probability of synchronizing each mirror (paper's ``ps``).
    rng:
        Source of the per-mirror coins.
    mirror_matrix:
        Optional prebuilt mirror bitmap (from :meth:`build_mirror_matrix`
        or the per-ingress cache of :meth:`shared_mirror_matrix`) shared
        across synchronizers running on the same cluster — the bitmap is
        the only per-instance O(n·machines) state.  Sharers of a plain
        (non-``copy_on_disable``) matrix observe each other's
        :meth:`disable_machine` calls; with ``copy_on_disable`` each
        synchronizer forks privately on its first disable, so machine
        crashes are per-run state (the faulty runner of
        :mod:`repro.faults` forks the batched runner's bitmap by the
        same rule before its first crash).
    copy_on_disable:
        Mark ``mirror_matrix`` as a read-shared structure (the
        per-ingress cache of :meth:`shared_mirror_matrix`): the first
        :meth:`disable_machine` call forks a private copy instead of
        mutating the shared bitmap, so fault injection in one run can
        never leak crashed machines into later runs on the same
        ingress.  Sharers of a *batch-local* matrix (the coupling
        described above) should leave this False.
    """

    def __init__(
        self,
        state: ClusterState,
        ps: float,
        rng: np.random.Generator,
        mirror_matrix: np.ndarray | None = None,
        copy_on_disable: bool = False,
    ) -> None:
        if not 0.0 <= ps <= 1.0:
            raise EngineError(f"ps must lie in [0, 1], got {ps}")
        self.ps = ps
        self.rng = rng
        repl = state.replication
        self._masters = repl.masters
        self._replicas = repl.replica_matrix
        num_machines = state.num_machines
        if mirror_matrix is None:
            mirror_matrix = self.build_mirror_matrix(state)
        elif mirror_matrix.shape != repl.replica_matrix.shape:
            raise EngineError(
                "mirror_matrix shape does not match the cluster's "
                f"replica table: {mirror_matrix.shape} vs "
                f"{repl.replica_matrix.shape}"
            )
        # mirror_matrix[v, p]: machine p holds a *mirror* (non-master
        # replica) of vertex v.
        self._mirror_matrix = mirror_matrix
        self._copy_on_disable = copy_on_disable
        self._num_machines = num_machines

    @staticmethod
    def mirror_matrix_for(replication) -> np.ndarray:
        """Mirror bitmap of one replication table: replicas minus masters.

        The single definition of "mirror" shared by the lazy per-state
        build below and the live refresh pipeline's off-query-path cache
        pre-seeding (:func:`repro.core.frogwild.prime_ingress_caches`).
        """
        matrix = replication.replica_matrix.copy()
        matrix[np.arange(replication.masters.size), replication.masters] = False
        return matrix

    @classmethod
    def build_mirror_matrix(cls, state: ClusterState) -> np.ndarray:
        """Mirror bitmap of the cluster: replicas minus masters."""
        return cls.mirror_matrix_for(state.replication)

    @classmethod
    def shared_mirror_matrix(cls, state: ClusterState) -> np.ndarray:
        """The per-ingress cached mirror bitmap (built once, reused).

        Pass the result as ``mirror_matrix`` together with
        ``copy_on_disable=True``: reads share the cached array across
        every run on the same ingress, while :meth:`disable_machine`
        forks a private copy before writing.
        """
        return state.ingress_cache(
            "mirror_matrix", lambda: cls.build_mirror_matrix(state)
        )

    def draw_fresh(
        self, vertices: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Flip the sync coins for ``vertices`` without any accounting.

        Returns ``(fresh, synced_mirrors)``: ``fresh`` marks machines
        whose replica is fresh after the barrier (master always, each
        mirror with probability ``ps``); ``synced_mirrors`` is the
        mirror-only subset that a caller must bill (one sync record
        each, :func:`sync_pair_records`).
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        k = vertices.size
        mirrors = self._mirror_matrix[vertices]
        if self.ps >= 1.0:
            synced_mirrors = mirrors.copy()
        elif self.ps <= 0.0:
            synced_mirrors = np.zeros_like(mirrors)
        else:
            coins = self.rng.random((k, self._num_machines)) < self.ps
            synced_mirrors = mirrors & coins

        fresh = synced_mirrors.copy()
        if k:
            fresh[np.arange(k), self._masters[vertices]] = True
        return fresh, synced_mirrors

    def disable_machine(self, machine: int) -> None:
        """Permanently exclude a machine's mirrors from synchronization.

        Used by fault injection (:mod:`repro.faults`): a crashed machine
        stops receiving master updates, so its replicas can never be
        fresh again and the scatter phase routes around it.
        """
        if not 0 <= machine < self._num_machines:
            raise EngineError(
                f"machine {machine} out of range [0, {self._num_machines})"
            )
        if self._copy_on_disable:
            self._mirror_matrix = self._mirror_matrix.copy()
            self._copy_on_disable = False
        self._mirror_matrix[:, machine] = False
