"""Worker respawn for the fail-soft process pool.

The :class:`~repro.serving.ProcessPoolBackend` owns shard *processes*;
this module replaces the ones it loses.  Every pool holds one
:class:`WorkerSupervisor`, and the pool's batch and attach paths are
its only callers: a worker found dead at dispatch, or lost while their
gather waits on it, is handed to :meth:`WorkerSupervisor.revive_locked`,
which

* **respawns** it — kills whatever is left of the old process, closes
  its pipes, starts a fresh process with fresh pipes and re-attaches it
  to every epoch the pool currently serves (the worker protocol's
  normal ``attach`` handshake against the *existing* shared arenas —
  nothing is recomputed or copied);
* **sweeps** the pool's shared-memory namespace afterwards
  (:meth:`~repro.cluster.SharedArena.sweep_orphans`), so a worker
  killed mid-attach can't leak ``/dev/shm`` segments.

The supervisor holds no reference to the pool: the pool passes itself
to every call, so the pool's edge to its supervisor is the only one and
a dropped pool is freed at once, without the cyclic collector.
Methods suffixed ``_locked`` assume the caller holds the pool's
``_lock``, which serializes batches, attaches, retirements and respawns.

Respawn uses exponential backoff per shard
(``RESPAWN_BACKOFF_S * 2**(consecutive_crashes - 1)``, capped at
``MAX_BACKOFF_S``): a shard that dies the moment it is revived — a
poisoned core, a cgroup OOM loop — slows down instead of burning CPU
in a fork storm.  A healthy batch result resets the shard's streak.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..cluster import SharedArena
from ..errors import EngineError, WorkerCrashError

__all__ = ["SupervisorStats", "WorkerSupervisor"]

#: Backoff before the second consecutive respawn of one shard; doubles
#: with every further crash in the streak.
RESPAWN_BACKOFF_S = 0.05
#: Cap of the per-shard respawn backoff.
MAX_BACKOFF_S = 2.0


@dataclass
class SupervisorStats:
    """Lifetime counters of one supervisor."""

    crashes_detected: int = 0
    respawns: int = 0
    respawn_failures: int = 0
    segments_swept: int = 0


class WorkerSupervisor:
    """Respawn and shm hygiene for one process pool's workers."""

    def __init__(self) -> None:
        self.stats = SupervisorStats()
        #: ``(monotonic_stamp, shard, cause)`` per detected crash, so the
        #: moment a death was noticed can be checked against the kill.
        self.crash_log: list[tuple[float, int, str]] = []
        self._consecutive: dict[int, int] = {}

    def note_healthy_locked(self, shard: int) -> None:
        """Reset a shard's crash streak after a healthy interaction."""
        self._consecutive[shard] = 0

    def revive_locked(self, pool, shard: int, cause: str = "died") -> None:
        """Replace one of ``pool``'s workers and re-attach it to the
        live epochs.

        Raises :class:`~repro.errors.WorkerCrashError` (``cause=
        "respawn"``) if the replacement itself fails to come up; the
        dead handle stays in the slot so a later attempt can try again.
        """
        self.stats.crashes_detected += 1
        self.crash_log.append((time.monotonic(), shard, cause))
        old = pool._workers[shard]
        if old.process.is_alive():
            old.process.kill()
        old.process.join(timeout=5.0)
        for endpoint in (old.control, old.channel):
            try:
                endpoint.close()
            except OSError:
                pass
        streak = self._consecutive.get(shard, 0)
        if streak > 0:
            time.sleep(
                min(RESPAWN_BACKOFF_S * (2.0 ** (streak - 1)), MAX_BACKOFF_S)
            )
        self._consecutive[shard] = streak + 1
        try:
            worker = pool._spawn_worker(shard)
            pool._workers[shard] = worker
            for epoch in sorted(pool._arenas):
                pool._attach(epoch, [worker])
        except EngineError as error:
            self.stats.respawn_failures += 1
            raise WorkerCrashError(
                f"shard {shard} respawn failed: {error}",
                shard=shard,
                epoch=pool._epoch,
                cause="respawn",
            ) from error
        # The crash may have interrupted an attach or left the old
        # worker's segments behind on exotic paths; sweeping here keeps
        # /dev/shm clean without waiting for close().
        self.stats.segments_swept += len(
            SharedArena.sweep_orphans(
                pool.arena_prefix, live=pool._live_segment_names()
            )
        )
        self.stats.respawns += 1
