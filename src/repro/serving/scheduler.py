"""Batch scheduling: idle, fill, deadline and flush dispatch.

Synchronously draining the coalescer only batches what arrives
together.  :class:`BatchScheduler` implements the policy the
:class:`~repro.serving.batching.QueryCoalescer` was designed for: it
holds queries that arrive while the server is busy and sends them as
one batch.  It does not hold a query back from an idle server, so at
trickle rates (misses further apart than one batch's run time) each
miss leaves alone.  That trades a little amortization for latency: on
the ``serve-zipf-open`` service with all-miss traffic at 100-400
queries/s, shared network bytes per executed query rose 1.5-3.5% while
the miss latency median fell by about half, against a deadline-only
loop that held every partial batch ``max_delay_s``
(``benchmarks/records/pr49-compare.txt``).  A batch leaves the queue
for one of four reasons:

* **idle** — the background loop finds queries pending and no batch in
  the dispatch callback: the server is free, so every pending group
  leaves at once (in ``max_batch_size`` slices) instead of waiting out
  the deadline for company that may not come.  Batches still form under
  load: whatever arrives while a batch runs leaves together the moment
  that batch returns;
* **fill** — the moment a config group reaches ``max_batch_size`` it
  dispatches (inline, in the submitting thread: no latency is saved by
  waiting once the batch cannot grow);
* **deadline** — a partial group dispatches when its *oldest* entry has
  waited ``max_delay_s``.  On the background loop this only happens
  while another thread's dispatch keeps the server busy, so
  ``max_delay_s`` is the longest a partial batch waits behind one;
* **flush** — everything pending dispatches immediately (service
  shutdown, or the synchronous ``query_batch`` path, which is just a
  zero-delay schedule).

``max_delay_s=None`` turns both idle and deadline dispatch off: partial
batches leave only on a fill or a flush.

The clock is injectable: tests and benchmarks drive a
:class:`VirtualClock` and call :meth:`BatchScheduler.poll` explicitly
(deterministic, no sleeps), while a live service calls
:meth:`BatchScheduler.start` to run a background thread that sleeps
until the next deadline and wakes early when submissions arrive or a
dispatch returns.  Only that loop does idle dispatch.  The explicit
drivers (:meth:`~BatchScheduler.poll`,
:meth:`~BatchScheduler.dispatch_next`, :meth:`~BatchScheduler.next_ready`,
the service's ``pump()`` and
:meth:`~repro.traffic.TrafficHarness.run_virtual`) model deadline-only
dispatch: a partial batch waits out ``max_delay_s`` even when their
modelled server is free, so their queue waits and latencies overstate
a started service's by up to ``max_delay_s``.
"""

from __future__ import annotations

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
    #: Batches the background loop sent to an idle server.
    idle_dispatches: int = 0
    flush_dispatches: int = 0
    queries_dispatched: int = 0


class BatchScheduler:
    """Dispatches coalesced batches when the server idles, they fill,
    their deadline hits or a caller flushes.

    Parameters
    ----------
    dispatch:
        Callback ``(config, entries)`` executing one config-pure batch;
        entries are :class:`PendingQuery` rows carrying the submitter's
        payload.  Called without internal locks held, so it may submit
        further queries or take its own locks freely.
    coalescer:
        The config-pure queue; shared with the owning service.
    max_delay_s:
        Deadline for the oldest entry of a partial batch; the started
        loop dispatches sooner, as soon as no dispatch is active.
        ``None`` disables idle and deadline dispatch: partial batches
        leave only via :meth:`flush` (the synchronous path) or a fill.
    clock:
        Injectable time source; defaults to :func:`time.monotonic`.
    hold_filled:
        When True, :meth:`enqueue` keeps full batches queued instead
        of returning them for inline dispatch.  The traffic harness
        sets this: under its single-server queue model a full batch
        must still wait for the server to free up, and dispatches one
        at a time via :meth:`dispatch_next`.
    """

    def __init__(
        self,
        dispatch: Callable[[FrogWildConfig, list[PendingQuery]], None],
        coalescer: QueryCoalescer,
        max_delay_s: float | None = None,
        clock: Callable[[], float] | None = None,
        hold_filled: bool = False,
    ) -> None:
        if max_delay_s is not None and max_delay_s < 0:
            raise ConfigError("max_delay_s must be non-negative (or None)")
        self._dispatch = dispatch
        self.coalescer = coalescer
        self.max_delay_s = max_delay_s
        self.hold_filled = hold_filled
        self._clock = clock or time.monotonic
        self._cond = threading.Condition()
        self._thread: threading.Thread | None = None
        # Each loop thread watches its *own* stop event: a start()
        # racing a stop() must not resurrect the old thread's stop
        # signal (a shared flag would leave stop() joining forever).
        self._stop_event: threading.Event | None = None
        self.stats = SchedulerStats()
        self._active_dispatches = 0
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
    def submit(
        self,
        query: RankingQuery,
        default: FrogWildConfig,
        payload: object = None,
    ) -> None:
        """Enqueue one query; dispatches inline if its batch fills."""
        self.dispatch_filled(self.enqueue(query, default, payload))

    def enqueue(self, query, default, payload: object = None):
        """Add one query *without* dispatching; returns filled batches.

        Split from :meth:`submit` so the service can enqueue under its
        own lock (making "registered in-flight" and "visible to a
        flush" one atomic step) and run the returned filled batches
        after releasing it via :meth:`dispatch_filled`.
        """
        with self._cond:
            self.coalescer.add(
                query, default, arrival=self._clock(), payload=payload
            )
            full = (
                [] if self.hold_filled else self.coalescer.pop_full_entries()
            )
            self._cond.notify_all()
        return full

    def dispatch_filled(self, batches) -> int:
        """Dispatch batches returned by :meth:`enqueue`."""
        return self._run_batches(batches, "fill")

    def pending_count(self) -> int:
        with self._cond:
            return self.coalescer.pending_count()

    def next_ready(self, now: float | None = None) -> float | None:
        """Earliest instant *any* batch is dispatchable, or ``None``.

        A full batch is dispatchable immediately (returns ``now``);
        otherwise the oldest pending group's deadline, if a deadline
        policy exists.  The traffic harness uses this to interleave
        dispatch events with arrivals in strict virtual-time order.
        """
        with self._cond:
            if self.coalescer.has_full():
                return self._clock() if now is None else now
            if self.max_delay_s is None:
                return None
            return self.coalescer.next_deadline(self.max_delay_s)

    def dispatch_next(self, now: float | None = None) -> int:
        """Dispatch at most **one** ready batch; returns its size.

        Full batches first, then the earliest-due partial group's
        oldest slice; 0 when nothing is dispatchable at ``now``.  This
        is the serialized companion of :meth:`poll` for callers
        modelling a single busy server (the traffic harness).
        """
        now = self._clock() if now is None else now
        with self._cond:
            popped = self.coalescer.pop_next_entries(now, self.max_delay_s)
        if popped is None:
            return 0
        config, entries, kind = popped
        self._run_batches([(config, entries)], kind)
        return len(entries)

    def poll(self, now: float | None = None) -> int:
        """Dispatch every group whose deadline has expired.

        Returns the number of batches dispatched.  Virtual-clock users
        call this after advancing time; the background thread calls it
        on every wake-up that finds another dispatch active (an idle
        server gets everything pending at once instead).
        """
        if self.max_delay_s is None:
            return 0
        with self._cond:
            due = self.coalescer.pop_due_entries(
                self._clock() if now is None else now, self.max_delay_s
            )
        return self._run_batches(due, "deadline")

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
        force-dispatching other callers' deadline-scheduled partial
        batches.
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
            try:
                self._dispatch(config, entries)
            except BaseException as error:
                if first_error is None:
                    first_error = error
            finally:
                with self._cond:
                    self._active_dispatches -= 1
                    # Wakes the loop the moment the server frees, not at
                    # the next deadline.
                    self._cond.notify_all()
            with self._cond:
                setattr(
                    self.stats,
                    f"{kind}_dispatches",
                    getattr(self.stats, f"{kind}_dispatches") + 1,
                )
                self.stats.queries_dispatched += len(entries)
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
                "poll()/pump() after advancing time"
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
        final flush cannot interleave with an in-flight ``poll()``
        dispatch (the loop has provably exited before it runs).
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

    def _idle_locked(self) -> bool:
        """Queries wait and no batch is in the dispatch callback."""
        return (
            self.max_delay_s is not None
            and self._active_dispatches == 0
            and self.coalescer.pending_count() > 0
        )

    def _loop(self, stop_event: threading.Event, pin: object) -> None:
        while True:
            with self._cond:
                if stop_event.is_set():
                    return
                deadline = (
                    None
                    if self.max_delay_s is None
                    else self.coalescer.next_deadline(self.max_delay_s)
                )
                timeout = (
                    None
                    if deadline is None
                    else max(0.0, deadline - self._clock())
                )
                if not self._idle_locked() and (timeout is None or timeout > 0):
                    self._cond.wait(timeout)
                if stop_event.is_set():
                    return
                idle = (
                    self.coalescer.drain_entries()
                    if self._idle_locked()
                    else None
                )
            # One failing batch must not kill the loop: its futures
            # already carry the error, and every other submitter still
            # needs its dispatch to happen.
            try:
                if idle is None:
                    self.poll()
                else:
                    self._run_batches(idle, "idle")
            except BaseException as error:
                with self._cond:
                    self.last_error = error
