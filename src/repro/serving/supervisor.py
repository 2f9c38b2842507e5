"""Worker supervision for the fail-soft process pool.

The :class:`~repro.serving.ProcessPoolBackend` owns shard *processes*;
this module owns their *lifecycle*.  A :class:`WorkerSupervisor` is
attached to every pool at construction and does three jobs:

* **liveness** — ``check()`` pings every worker over its control pipe
  (``ping``/``pong`` with a nonce, so stale replies can't satisfy a
  fresh probe) and treats a dead process or a silent pipe as a crash;
  with ``heartbeat_s`` set on the backend, a daemon thread runs the
  check periodically so crashes between batches are healed off the
  batch critical path;
* **respawn** — ``revive_locked()`` replaces one worker: kill whatever
  is left of the old process, close its pipes, start a fresh process
  with fresh pipes and re-attach it to every epoch the pool currently
  serves (the worker protocol's normal ``attach`` handshake against
  the *existing* shared arenas — nothing is recomputed or copied);
* **hygiene** — after every respawn the pool's shared-memory namespace
  is swept (:meth:`~repro.cluster.SharedArena.sweep_orphans`), so a
  worker killed mid-attach can't leak ``/dev/shm`` segments.

Locking contract: the backend's ``_lock`` serializes batches,
refreshes and supervision.  Methods suffixed ``_locked`` assume the
caller already holds it (``run_batch`` revives crashed shards inline);
the public ``check()``/``start()``/``stop()`` entry points acquire it
themselves.  The supervisor never touches a control pipe outside the
lock — a heartbeat racing a batch's gather would steal its replies.

Respawn uses exponential backoff per shard (``respawn_backoff_s *
2**(consecutive_crashes - 1)``, capped at ``max_backoff_s``): a shard
that dies the moment it is revived — a poisoned core, a cgroup OOM
loop — slows down instead of burning CPU in a fork storm.  A healthy
batch result resets the shard's streak.
"""

from __future__ import annotations

import itertools
import threading
import time
import weakref
from dataclasses import dataclass

from ..cluster import SharedArena
from ..errors import ConfigError, EngineError, WorkerCrashError

__all__ = ["SupervisorStats", "WorkerSupervisor"]


@dataclass
class SupervisorStats:
    """Lifetime counters of one supervisor."""

    crashes_detected: int = 0
    respawns: int = 0
    respawn_failures: int = 0
    heartbeats: int = 0
    heartbeat_failures: int = 0
    segments_swept: int = 0


class WorkerSupervisor:
    """Liveness, respawn and shm hygiene for one process pool's workers.

    Parameters
    ----------
    backend:
        The owning :class:`~repro.serving.ProcessPoolBackend`.  The
        supervisor reaches into its worker table and spawn/attach
        machinery; the two objects are one component split across two
        files, not an abstraction boundary.  Held weakly — the pool
        owns its supervisor, so a strong back-reference would be a
        cycle and a closed pool would keep its tables until the cyclic
        collector ran; a running heartbeat thread pins the pool itself
        (see :meth:`start`).
    heartbeat_s:
        Period of the background liveness thread; ``None`` disables
        the thread (``check()`` can still be called explicitly, and
        in-batch revival always works).
    heartbeat_timeout_s:
        How long one ping may take before the worker is declared
        silently hung.  Deliberately much shorter than the backend's
        batch ``timeout_s`` — a ping costs the worker microseconds.
    respawn_backoff_s / max_backoff_s:
        Exponential-backoff base and cap for consecutive crashes of
        the same shard.
    """

    def __init__(
        self,
        backend,
        heartbeat_s: float | None = None,
        heartbeat_timeout_s: float = 5.0,
        respawn_backoff_s: float = 0.05,
        max_backoff_s: float = 2.0,
    ) -> None:
        if heartbeat_s is not None and heartbeat_s <= 0:
            raise ConfigError("heartbeat_s must be positive (or None)")
        if heartbeat_timeout_s <= 0:
            raise ConfigError("heartbeat_timeout_s must be positive")
        if respawn_backoff_s < 0:
            raise ConfigError("respawn_backoff_s must be non-negative")
        if max_backoff_s < respawn_backoff_s:
            raise ConfigError(
                "max_backoff_s must be >= respawn_backoff_s"
            )
        self._backend = weakref.ref(backend)
        self.heartbeat_s = heartbeat_s
        self.heartbeat_timeout_s = float(heartbeat_timeout_s)
        self.respawn_backoff_s = float(respawn_backoff_s)
        self.max_backoff_s = float(max_backoff_s)
        self.stats = SupervisorStats()
        #: ``(monotonic_stamp, shard, cause)`` per detected crash, so the
        #: moment a death was noticed can be checked against the kill.
        self.crash_log: list[tuple[float, int, str]] = []
        #: Last exception a background heartbeat swallowed (the thread
        #: must survive anything), for post-mortems.
        self.last_error: BaseException | None = None
        self._consecutive: dict[int, int] = {}
        self._nonce = itertools.count(1)
        self._thread: threading.Thread | None = None
        self._stop_event = threading.Event()

    @property
    def backend(self):
        return self._backend()

    # ------------------------------------------------------------------
    # Lock-held primitives (callers hold ``backend._lock``)
    # ------------------------------------------------------------------
    def note_healthy_locked(self, shard: int) -> None:
        """Reset a shard's crash streak after a healthy interaction."""
        self._consecutive[shard] = 0

    def revive_locked(self, shard: int, cause: str = "died") -> None:
        """Replace one shard's worker and re-attach it to the live epochs.

        Raises :class:`~repro.errors.WorkerCrashError` (``cause=
        "respawn"``) if the replacement itself fails to come up; the
        dead handle stays in the slot so a later attempt can try again.
        """
        backend = self.backend
        self.stats.crashes_detected += 1
        self.crash_log.append((time.monotonic(), shard, cause))
        old = backend._workers[shard]
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
                min(
                    self.respawn_backoff_s * (2.0 ** (streak - 1)),
                    self.max_backoff_s,
                )
            )
        self._consecutive[shard] = streak + 1
        try:
            worker = backend._spawn_worker(shard)
            backend._workers[shard] = worker
            for epoch in sorted(backend._arenas):
                backend._attach(epoch, [worker])
        except EngineError as error:
            self.stats.respawn_failures += 1
            raise WorkerCrashError(
                f"shard {shard} respawn failed: {error}",
                shard=shard,
                epoch=backend._epoch,
                cause="respawn",
            ) from error
        # The crash may have interrupted an attach or left the old
        # worker's segments behind on exotic paths; sweeping here keeps
        # /dev/shm clean without waiting for close().
        self.stats.segments_swept += len(
            SharedArena.sweep_orphans(
                backend.arena_prefix, live=backend._live_segment_names()
            )
        )
        self.stats.respawns += 1

    def ping_locked(self, shard: int) -> bool:
        """One liveness probe: does this worker answer a fresh ping?

        The nonce is the wait's token, so a stale pong (from a probe
        that timed out earlier) cannot vouch for the worker now.
        """
        backend = self.backend
        self.stats.heartbeats += 1
        try:
            backend._gather(
                [
                    backend._request(
                        backend._workers[shard], ("ping", next(self._nonce))
                    )
                ],
                timeout_s=self.heartbeat_timeout_s,
            )
        except EngineError:
            self.stats.heartbeat_failures += 1
            return False
        return True

    # ------------------------------------------------------------------
    # Public entry points (acquire ``backend._lock``)
    # ------------------------------------------------------------------
    def check(self) -> int:
        """Probe every worker, revive the dead; returns revivals done.

        Safe to call at any time from any thread; skips silently when
        the pool is closed (or not yet populated).  A respawn that
        itself fails is recorded and retried on the next check rather
        than propagated — background supervision must not kill its own
        thread.
        """
        revived = 0
        backend = self.backend
        with backend._lock:
            if backend._closed or not backend._workers:
                return 0
            for shard in range(len(backend._workers)):
                worker = backend._workers[shard]
                if worker.process.is_alive() and self.ping_locked(shard):
                    self.note_healthy_locked(shard)
                    continue
                cause = (
                    "timeout" if worker.process.is_alive() else "died"
                )
                try:
                    self.revive_locked(shard, cause=cause)
                except EngineError as error:
                    self.last_error = error
                    continue
                revived += 1
        return revived

    def start(self) -> None:
        """Run :meth:`check` every ``heartbeat_s`` on a daemon thread.

        The thread keeps the pool alive until :meth:`stop`.
        """
        if self.heartbeat_s is None:
            raise ConfigError(
                "start() needs heartbeat_s; pass it to the backend (or "
                "call check() explicitly)"
            )
        if self._thread is not None and self._thread.is_alive():
            return
        self._stop_event.clear()

        def _loop(pin: object) -> None:
            while not self._stop_event.wait(self.heartbeat_s):
                try:
                    self.check()
                except BaseException as error:  # pragma: no cover
                    self.last_error = error

        self._thread = threading.Thread(
            target=_loop,
            args=(self.backend,),
            name="repro-supervisor",
            daemon=True,
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop the heartbeat thread (idempotent; respawns stay usable)."""
        self._stop_event.set()
        thread = self._thread
        if thread is not None and thread.is_alive():
            thread.join(timeout=10.0)
        self._thread = None
