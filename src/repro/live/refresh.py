"""Background refresh: build epochs off the query path.

A synchronous :meth:`~repro.live.LiveRankingService.refresh` runs the
whole pipeline — apply deltas, reconcile placements, snapshot, rebuild
replication tables, build the backend, publish — on the caller's thread.
That is fine for a driver loop, but in a serving deployment the caller
is the ingest path, and every millisecond it spends building the next
epoch is a millisecond of queries racing a busy CPU.  The paper's
low-latency story (cheap approximate answers under constant change)
wants the opposite split: *queries* pay only the atomic epoch swap;
*builds* happen elsewhere.

:class:`BackgroundRefresher` is that elsewhere.  Deltas are submitted
(each returning a :class:`RefreshTicket`), a worker thread drains the
queue, and each drain runs one build covering everything queued —
**coalescing**: when deltas arrive faster than builds complete, several
deltas share one epoch rather than queueing one epoch each, so the
refresher's lag is bounded by one build time instead of growing without
bound.  The built epoch is double-buffered: the current epoch serves
every query untouched until the one moment
:meth:`~repro.live.EpochManager.publish` swaps the reference — the only
step that ever happens on the path queries contend on.

Determinism for tests: the worker thread is optional.  Construct the
refresher (or :meth:`LiveRankingService.start_refresher` with
``thread=False``), submit deltas, and call :meth:`run_pending` to
execute exactly one build inline — same pipeline, no races.  The
``on_built`` hook fires after the next epoch is fully built but before
it is published, which is exactly where a tear test wants to dispatch
queries (they must run, and be stamped, wholly on the old epoch).
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from ..dynamic import GraphDelta
from ..errors import ConfigError
from ..obs import Histogram

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .service import LiveRankingService, RefreshUpdate

__all__ = ["RefreshTicket", "RefresherStats", "BackgroundRefresher"]


class RefreshTicket:
    """Handle to one submitted delta's eventual refresh outcome.

    Resolves to the :class:`~repro.live.RefreshUpdate` of the epoch
    build that covered the delta; coalesced deltas share one update
    (its ``coalesced_deltas`` field says how many).
    """

    def __init__(self, delta: GraphDelta | None) -> None:
        self.delta = delta
        self._event = threading.Event()
        self._update: "RefreshUpdate | None" = None
        self._error: BaseException | None = None

    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: float | None = None) -> "RefreshUpdate":
        """Block until the covering epoch is published (or timeout)."""
        if not self._event.wait(timeout):
            raise TimeoutError("refresh not published yet")
        if self._error is not None:
            raise self._error
        return self._update  # type: ignore[return-value]

    def _resolve(self, update: "RefreshUpdate") -> None:
        self._update = update
        self._event.set()

    def _fail(self, error: BaseException) -> None:
        self._error = error
        self._event.set()


@dataclass
class RefresherStats:
    """Lifetime counters of one :class:`BackgroundRefresher`."""

    deltas_submitted: int = 0
    deltas_coalesced: int = 0
    max_coalesced: int = 0
    #: Seconds per build, and per publish: the swap, the only part the
    #: query path is exposed to.
    build_s: Histogram = field(default_factory=Histogram)
    publish_s: Histogram = field(default_factory=Histogram)

    @property
    def builds(self) -> int:
        return self.build_s.count


class BackgroundRefresher:
    """Runs the refresh pipeline off the query path, coalescing deltas.

    Parameters
    ----------
    service:
        The :class:`~repro.live.LiveRankingService` whose source graph,
        ingresses, replication tables and epoch manager the builds
        drive.  The service's ``refresh_policy`` governs coalescing and
        queue backpressure.  Held weakly — the service owns its
        refresher, so a strong back-reference would be a cycle and a
        closed service would keep its graph and tables until the cyclic
        collector ran; a started worker thread pins the service itself
        (see :meth:`start`).
    on_built:
        Optional hook called (with the service) after an epoch is fully
        built but *before* it is published — the seam tear tests use to
        dispatch queries mid-refresh.
    """

    def __init__(
        self,
        service: "LiveRankingService",
        on_built: Callable[["LiveRankingService"], None] | None = None,
    ) -> None:
        self._service = weakref.ref(service)
        self.on_built = on_built
        self.stats = RefresherStats()
        #: Last exception a worker-thread build raised; the failing
        #: build's tickets already carry it.
        self.last_error: BaseException | None = None
        self._cond = threading.Condition()
        self._pending: list[RefreshTicket] = []
        self._thread: threading.Thread | None = None
        self._stop_event: threading.Event | None = None
        self._stopped = False

    @property
    def service(self) -> "LiveRankingService":
        return self._service()

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(self, delta: GraphDelta | None = None) -> RefreshTicket:
        """Queue one delta (or a bare republish) for the next build."""
        ticket = RefreshTicket(delta)
        max_pending = self.service.refresh_policy.max_pending
        with self._cond:
            if self._stopped:
                # Fail fast: after stop() no worker will ever drain the
                # queue, so enqueueing would hang the ticket forever and
                # silently drop the delta.
                raise ConfigError(
                    "refresher is stopped; start() it again before "
                    "submitting refreshes"
                )
            if max_pending is not None:
                while len(self._pending) >= max_pending:
                    if self._thread is None:
                        raise ConfigError(
                            f"refresh queue is full ({max_pending} pending) "
                            "and no worker thread is draining it; start() "
                            "the refresher or run_pending() manually"
                        )
                    self._cond.wait()
            self._pending.append(ticket)
            self.stats.deltas_submitted += 1
            self._cond.notify_all()
        return ticket

    def pending_count(self) -> int:
        with self._cond:
            return len(self._pending)

    # ------------------------------------------------------------------
    # Building
    # ------------------------------------------------------------------
    def run_pending(self) -> "RefreshUpdate | None":
        """Execute one build covering the queued deltas, inline.

        Returns the published :class:`~repro.live.RefreshUpdate`, or
        ``None`` when nothing was queued.  This is the deterministic
        drive for tests and the worker loop's body; with coalescing
        disabled it covers exactly one queued delta per call.
        """
        with self._cond:
            if not self._pending:
                return None
            if self.service.refresh_policy.coalesce:
                batch, self._pending = self._pending, []
            else:
                batch = [self._pending.pop(0)]
            self._cond.notify_all()
        return self._build(batch)

    def _build(self, batch: list[RefreshTicket]) -> "RefreshUpdate":
        deltas = [ticket.delta for ticket in batch if ticket.delta is not None]
        try:
            update = self.service._refresh_pipeline(
                deltas,
                background=True,
                coalesced=len(batch),
                on_built=self.on_built,
            )
        except BaseException as error:
            for ticket in batch:
                ticket._fail(error)
            raise
        with self._cond:
            if len(batch) > 1:
                self.stats.deltas_coalesced += len(batch) - 1
            self.stats.max_coalesced = max(self.stats.max_coalesced, len(batch))
            self.stats.build_s.add(update.build_time_s)
            self.stats.publish_s.add(update.publish_s)
        for ticket in batch:
            ticket._resolve(update)
        return update

    # ------------------------------------------------------------------
    # Worker-thread lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "BackgroundRefresher":
        """Run the build loop in a daemon thread (idempotent).

        The thread keeps the service alive until :meth:`stop`: tickets
        already handed out resolve even if the caller drops the service.
        """
        with self._cond:
            self._stopped = False
            if self._thread is not None:
                return self
            stop_event = threading.Event()
            self._stop_event = stop_event
            self._thread = threading.Thread(
                target=self._loop,
                args=(stop_event, self.service),
                name="live-background-refresher",
                daemon=True,
            )
            self._thread.start()
        return self

    def stop(self, flush: bool = True) -> None:
        """Stop the worker; drain (default) or abandon queued deltas.

        With ``flush=False`` still-queued tickets fail with
        :class:`~repro.errors.ConfigError` — their deltas were never
        applied, so the source graph is exactly as if they were never
        submitted.
        """
        with self._cond:
            self._stopped = True
            thread = self._thread
            stop_event = self._stop_event
            self._thread = None
            self._stop_event = None
            if stop_event is not None:
                stop_event.set()
            self._cond.notify_all()
        if thread is not None:
            thread.join()
        if flush:
            while self.run_pending() is not None:
                pass
        else:
            with self._cond:
                abandoned, self._pending = self._pending, []
                self._cond.notify_all()
            for ticket in abandoned:
                ticket._fail(ConfigError("refresher stopped before build"))

    @property
    def running(self) -> bool:
        return self._thread is not None

    def _loop(self, stop_event: threading.Event, pin: object) -> None:
        while True:
            with self._cond:
                while not self._pending and not stop_event.is_set():
                    self._cond.wait()
                if stop_event.is_set():
                    # stop() drains or abandons what is left.
                    return
            # A failing build must not kill the loop: its tickets
            # already carry the error, and later submissions still
            # deserve builds.
            try:
                self.run_pending()
            except BaseException as error:
                self.last_error = error

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BackgroundRefresher(builds={self.stats.builds}, "
            f"pending={self.pending_count()}, running={self.running})"
        )
