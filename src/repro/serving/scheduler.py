"""Batch scheduling: one dispatch rule on every clock.

Synchronously draining the coalescer only batches what arrives
together.  :class:`BatchScheduler` implements the policy the
:class:`~repro.serving.batching.QueryCoalescer` was designed for: it
holds queries that arrive while the server is busy and sends them as
one batch, and it never holds a query back from a free server.  Every
decision is one function of the queue, the clock reading and whether
the server is busy (:meth:`QueryCoalescer.pop_batch
<repro.serving.batching.QueryCoalescer.pop_batch>`), so a started
service and a virtual-clock test form the same batches:

* **free server** — it takes one batch per decision: a full
  ``max_batch_size`` slice of any config group first (*fill*), else the
  oldest group's first ``max_batch_size`` entries (*idle*).  The next
  decision comes when that batch returns, so whatever arrived while it
  ran leaves together then.  At trickle rates (misses further apart
  than one batch's run time) each miss leaves alone, trading a little
  amortization for latency: on the ``serve-zipf-open`` service with
  all-miss traffic at 100-400 queries/s, shared network bytes per
  executed query rose 1.5-3.5% while the miss latency median fell by
  about half, against a loop that held every partial batch
  ``max_delay_s`` (``benchmarks/records/pr49-compare.txt``);
* **busy server** — a group leaves only once its *oldest* entry has
  waited ``max_delay_s`` (*deadline*).  The started loop sees a busy
  server only behind another thread's dispatch, such as a synchronous
  ``query_batch`` flush, so ``max_delay_s`` is the longest a partial
  batch waits behind one;
* **flush** — everything pending, or one caller's entries, leaves at
  once (service shutdown, or the synchronous ``query_batch`` path,
  which is submit-then-flush).

``max_delay_s=None`` sends a free server full slices only: partial
batches leave on a flush.

:meth:`~BatchScheduler.enqueue` only enqueues; no batch runs in a
submitter's thread.  A live service calls :meth:`BatchScheduler.start`
for a background loop that decides whenever a submission arrives or a
dispatch returns and sleeps until the next deadline in between; its
server is busy while a dispatch is in the callback.  Tests, the traffic
harness and benchmarks drive a :class:`VirtualClock` and call
:meth:`BatchScheduler.pump` after advancing it; there the callback
returns its batch's service time and the server is busy until that has
elapsed on the clock.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass
from typing import Callable

from ..core import FrogWildConfig
from ..errors import ConfigError
from .batching import PendingQuery, QueryCoalescer, RankingQuery

__all__ = ["VirtualClock", "SchedulerStats", "BatchScheduler"]


class VirtualClock:
    """A manually advanced clock for deterministic scheduling tests."""

    def __init__(self, start: float = 0.0) -> None:
        self.now = float(start)

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> float:
        if dt < 0:
            raise ConfigError("clocks only move forward")
        self.now += dt
        return self.now


@dataclass
class SchedulerStats:
    """Why batches left the queue, over a scheduler's lifetime."""

    fill_dispatches: int = 0
    deadline_dispatches: int = 0
    #: Partial batches a free server took.
    idle_dispatches: int = 0
    flush_dispatches: int = 0
    queries_dispatched: int = 0




class BatchScheduler:
    """Sends coalesced batches by the one dispatch rule, on a started
    loop or on :meth:`pump`, and on a caller's flush.

    Parameters
    ----------
    dispatch:
        Callback ``(config, entries, start)`` executing one config-pure
        batch; entries are :class:`PendingQuery` rows carrying the
        submitter's payload, and ``start`` is the clock instant the
        batch starts on the server: the dispatch instant, or the end of
        the service time still running (a flush's later batches queue
        behind its earlier ones).  It returns the batch's service time
        in clock seconds (the server stays busy that long on the clock)
        or ``None`` when the call itself took that time, as on a real
        clock.  Called without internal locks held, so it may submit
        further queries or take its own locks freely.
    coalescer:
        The config-pure queue; shared with the owning service.
    max_delay_s:
        The longest the oldest entry of a partial batch waits behind a
        busy server.  ``None`` sends a free server full batches only:
        partial batches leave via :meth:`flush` (the synchronous path).
    clock:
        Injectable time source; defaults to :func:`time.monotonic`.
    """

    def __init__(
        self,
        dispatch: Callable[
            [FrogWildConfig, list[PendingQuery], float], float | None
        ],
        coalescer: QueryCoalescer,
        max_delay_s: float | None = None,
        clock: Callable[[], float] | None = None,
    ) -> None:
        if max_delay_s is not None and max_delay_s < 0:
            raise ConfigError("max_delay_s must be non-negative (or None)")
        self._dispatch = dispatch
        self.coalescer = coalescer
        self.max_delay_s = max_delay_s
        self._clock = clock or time.monotonic
        self._cond = threading.Condition()
        self._thread: threading.Thread | None = None
        # Each loop thread watches its *own* stop event: a start()
        # racing a stop() must not resurrect the old thread's stop
        # signal (a shared flag would leave stop() joining forever).
        self._stop_event: threading.Event | None = None
        self.stats = SchedulerStats()
        self._active_dispatches = 0
        # When the server frees on the clock: the end of the last batch
        # whose dispatch returned a service time.
        self._busy_until = -math.inf
        #: Last exception a background-thread dispatch raised.  The
        #: failing batch's futures already carry it; this surfaces it
        #: to operators polling the scheduler.
        self.last_error: BaseException | None = None

    @property
    def active_dispatches(self) -> int:
        """Batches currently inside the dispatch callback.

        A live-refresh layer swapping backend epochs reads this gauge to
        know whether any batch is mid-execution: in-flight batches keep
        the epoch they pinned at dispatch, so a swap concurrent with a
        non-zero gauge is safe but worth recording.
        """
        with self._cond:
            return self._active_dispatches

    # ------------------------------------------------------------------
    # Submission and dispatch
    # ------------------------------------------------------------------
    def enqueue(
        self,
        query: RankingQuery,
        default: FrogWildConfig,
        payload: object = None,
    ) -> None:
        """Add one query to the queue; nothing is dispatched here.

        The started loop, :meth:`pump` or a flush sends it.  The service
        enqueues under its own lock, making "registered in-flight" and
        "visible to a flush" one atomic step.
        """
        with self._cond:
            self.coalescer.add(
                query, default, arrival=self._clock(), payload=payload
            )
            self._cond.notify_all()

    def pending_count(self) -> int:
        with self._cond:
            return self.coalescer.pending_count()

    def _decide_locked(self, now: float):
        """The dispatch decision: pop the batch the rule sends at
        ``now``, or ``None``.  The server is busy while a dispatch is in
        the callback or a returned service time has not elapsed."""
        busy = self._active_dispatches > 0 or now < self._busy_until
        return self.coalescer.pop_batch(now, self.max_delay_s, busy)

    def pump(self) -> float | None:
        """Run the dispatch rule now, one batch per decision.

        The virtual-clock driver: call it after advancing the clock.  It
        dispatches nothing while the server is busy, and returns when to
        call it again: the instant the server frees while a batch runs,
        else ``None`` (nothing queued, or with ``max_delay_s=None`` only
        partial batches, which wait for a flush).
        """
        while True:
            with self._cond:
                now = self._clock()
                if now < self._busy_until:
                    return self._busy_until
                popped = self._decide_locked(now)
                if popped is None:
                    return None
            config, entries, kind = popped
            self._run_batches([(config, entries)], kind)

    def flush(self) -> int:
        """Dispatch everything pending, deadlines notwithstanding."""
        with self._cond:
            batches = self.coalescer.drain_entries()
        return self._run_batches(batches, "flush")

    def discard_payloads(self, payloads) -> list[PendingQuery]:
        """Remove entries carrying these payloads *without* dispatching.

        The service's error paths use this to abandon a failed call's
        still-queued lanes so they never execute as ghost work on an
        unrelated caller's flush.
        """
        with self._cond:
            batches = self.coalescer.pop_payload_entries(set(payloads))
        return [entry for _, entries in batches for entry in entries]

    def flush_payloads(self, payloads) -> int:
        """Dispatch only the entries carrying these payloads.

        The synchronous service path uses this so a ``query_batch``
        call dispatches exactly what it is waiting on, without
        force-dispatching other callers' queued partial batches.
        """
        with self._cond:
            batches = self.coalescer.pop_payload_entries(set(payloads))
        return self._run_batches(batches, "flush")

    def _run_batches(self, batches, kind: str) -> int:
        """Dispatch every batch, even if an earlier one raises.

        Batches were already popped from the coalescer: skipping the
        rest on a failure would strand their submitters' futures
        forever.  Each batch dispatches (the service fails its own
        futures on error); the first error re-raises afterwards.
        """
        first_error: BaseException | None = None
        for config, entries in batches:
            with self._cond:
                self._active_dispatches += 1
                start = max(self._busy_until, self._clock())
            service_time = None
            try:
                service_time = self._dispatch(config, entries, start)
            except BaseException as error:
                if first_error is None:
                    first_error = error
            finally:
                with self._cond:
                    self._active_dispatches -= 1
                    if service_time:
                        self._busy_until = (
                            max(self._busy_until, start) + service_time
                        )
                    setattr(
                        self.stats,
                        f"{kind}_dispatches",
                        getattr(self.stats, f"{kind}_dispatches") + 1,
                    )
                    self.stats.queries_dispatched += len(entries)
                    # Wakes the loop the moment the server frees, not at
                    # the next deadline.
                    self._cond.notify_all()
        if first_error is not None:
            raise first_error
        return len(batches)

    # ------------------------------------------------------------------
    # Background-thread lifecycle
    # ------------------------------------------------------------------
    def start(self, pin: object = None) -> "BatchScheduler":
        """Run the dispatch loop in a daemon thread (idempotent).

        ``pin`` is referenced by the thread for as long as it runs: an
        owner whose ``dispatch`` reaches it only weakly passes itself.

        Requires a real-time clock: ``Condition.wait`` elapses in real
        seconds, so deadlines anchored on a manually advanced clock
        would never fire and futures would hang.
        """
        if isinstance(self._clock, VirtualClock):
            raise ConfigError(
                "the background dispatch loop needs a real-time clock; "
                "with a VirtualClock, drive dispatch explicitly via "
                "pump() after advancing time"
            )
        with self._cond:
            if self._thread is not None:
                return self
            stop_event = threading.Event()
            self._stop_event = stop_event
            self._thread = threading.Thread(
                target=self._loop,
                args=(stop_event, pin),
                name="ranking-batch-scheduler",
                daemon=True,
            )
            self._thread.start()
        return self

    def stop(self, flush: bool = True) -> None:
        """Stop the loop; by default flush whatever is still queued.

        Shutdown is serialized: the loop thread is signalled, *joined*,
        and only then unregistered — so :attr:`running` never reports
        ``False`` while the loop may still be dispatching, and the
        final flush cannot interleave with a loop dispatch (the loop
        has provably exited before it runs).
        """
        with self._cond:
            thread = self._thread
            stop_event = self._stop_event
            if stop_event is not None:
                stop_event.set()
            self._cond.notify_all()
        if thread is not None:
            thread.join()
            with self._cond:
                # Guarded identity check: a concurrent start() may have
                # installed a fresh thread already; only clear our own.
                if self._thread is thread:
                    self._thread = None
                    self._stop_event = None
        if flush:
            self.flush()

    @property
    def running(self) -> bool:
        return self._thread is not None

    def _loop(self, stop_event: threading.Event, pin: object) -> None:
        while True:
            with self._cond:
                popped = None
                while popped is None:
                    if stop_event.is_set():
                        return
                    now = self._clock()
                    popped = self._decide_locked(now)
                    if popped is None:
                        # Nothing to send yet: wake on a submission, a
                        # returning dispatch or the next deadline.
                        deadline = (
                            None
                            if self.max_delay_s is None
                            else self.coalescer.next_deadline(
                                self.max_delay_s
                            )
                        )
                        self._cond.wait(
                            None if deadline is None else deadline - now
                        )
            config, entries, kind = popped
            # One failing batch must not kill the loop: its futures
            # already carry the error, and every other submitter still
            # needs its dispatch to happen.
            try:
                self._run_batches([(config, entries)], kind)
            except BaseException as error:
                with self._cond:
                    self.last_error = error
