"""True multi-process execution: one OS process per shard sub-cluster.

:class:`ProcessPoolBackend` gives the :class:`ShardedBackend` fan-out a
real execution substrate: every shard runs in its own OS process (its
own interpreter, its own GIL), so "16 machines" can finally use 16
cores.  The parent builds the same per-shard ingress, budget split and
seeds, and each worker runs and bills its slice with the in-process
fan-out's own :func:`~repro.serving.backend._run_slice` and
:func:`~repro.serving.backend._shard_cost`, so answers and bills are
bit for bit the in-process backend's; only *where* the traversals
execute changes.

Three mechanisms make that cheap and honest:

* **Shared-memory graph state** — the graph CSR arrays and every
  shard's :class:`~repro.cluster.ReplicationTable` components (the
  scatter grouping only) live in :class:`~repro.cluster.SharedArena`
  segments.  Workers attach the picklable
  :class:`~repro.cluster.ArenaSpec` manifests and map the arrays
  zero-copy (``DiGraph.from_csr_arrays``, ``ReplicationTable.
  from_shared_components``); nothing edge-proportional is ever pickled.
* **A real transport** — per-lane ``(vertex, count)`` results return on
  a :class:`~repro.cluster.RecordChannel` whose frame layout is priced
  by the same :class:`~repro.cluster.MessageSizeModel` the simulator
  uses, and whose measured byte tallies must reconcile with that model
  (:meth:`transport_summary`).  Small control metadata (configs,
  queries, reports, ledgers, shard costs) travels on a separate
  pickled control pipe.
* **Epoch-tagged remapping** — a live refresh
  (:meth:`~repro.live.LiveRankingService.refresh`) calls
  :meth:`attach_epoch` with the new snapshot's tables: fresh arenas are
  created under the next epoch tag and every worker attaches them.  The
  returned :class:`PoolEpoch` runs batches on that tag's arenas, and an
  older epoch stays attached until it is retired, so a batch runs on
  the epoch its caller pinned even when a newer one was attached in
  between; batches are serialized with attaches and retirements on one
  lock and run wholly against a single epoch's arrays (no mid-batch
  tearing).

Worker protocol (control pipe, pickled tuples):

==============  =====================================================
parent sends    ``("attach", epoch, graph_spec, table_spec)``,
                ``("detach", epoch)``, ``("run", task, epoch, config,
                share, shard_seed, queries)``, ``("chaos", kind,
                seconds)``, ``("stop",)``
worker replies  ``("attached", epoch)``, ``("detached", epoch)``,
                ``("result", task, payload)``, ``("error", task,
                repr, traceback)``, ``("stopped",)``
==============  =====================================================

Every parent-side wait is one event-driven gather
(:meth:`ProcessPoolBackend._gather`).  Each request in flight is a
:class:`_Wait`, and a single loop blocks in
``multiprocessing.connection.wait`` on, for every shard still in
flight, its control connection (until the matching reply lands), its
data channel (until all of the task's lane frames land) and its
``process.sentinel``.  Whichever is ready is handled at once: a lane
frame is decoded the moment it lands (a worker blocked on a full data
pipe unblocks immediately), no shard queues behind another, and a
death is an event, not something noticed on a polling tick.  Each
wait has an *inactivity* deadline of ``timeout_s`` that only its own
progress resets — a ``result`` frame tagged with its task, or the
reply of its kind echoing its token (epoch or task id).
Anything stale is discarded without counting, so a stale-task flood
stalls the parent for at most ``timeout_s``.  A fired sentinel is
ruled a death only once the worker's pipes have drained to EOF: a
worker that died *after* flushing its reply still answers.

``chaos`` is the fault-injection hook
(:mod:`repro.traffic.chaos`): ``("chaos", "hang", s)`` parks the
worker's control loop for ``s`` seconds and
``("chaos", "delay", s)`` stalls its *next* batch reply — both
fire-and-forget, so the parent observes exactly what a silent or
mid-batch-dead worker looks like.

**Fail-soft execution.**  The paper's robustness claim — frogs are
anonymous and uniformly born, so losing a machine's walkers costs
~1/M accuracy, not a restart — holds on this real substrate too: a
shard's slice of a batch is just an independent sample of the frog
population.  When a worker dies (or times out) mid-batch,
``on_shard_failure`` picks the policy:

* ``"fail"`` (default) — the batch raises a typed
  :class:`~repro.errors.ShardFailure`, but only *after* the pool is
  restored (dead worker respawned and re-attached), so the next batch
  runs healthy;
* ``"partial"`` — the surviving shards' lanes merge through the
  normal exact path; the estimator automatically rescales to the
  surviving frog count (the record merge,
  :meth:`~repro.core.PageRankEstimate.merge`, sums ``num_frogs`` with
  the counts), and the outcome carries ``degraded_shards`` /
  ``lost_frogs`` so the service can attach the widened Theorem-1
  bound.

The pool heals on the paths that talk to every worker: a batch and an
epoch attach.  A worker found dead at *dispatch* (before its slice
started) is respawned and re-sent once for free under both policies —
no frogs were lost yet; a worker lost mid-flight is respawned the
moment the gather sees it, while the other shards still compute.  An
attach respawns a worker it finds dead the same way, and gathers every
attach it sent before it gives up on an epoch.  All of these go through
the :class:`~repro.serving.WorkerSupervisor` (respawn with backoff,
re-attach to the live epochs, orphaned-segment sweep).  Nothing
watches the workers between batches: a death there is found by the
next batch's or attach's dispatch.
"""

from __future__ import annotations

import multiprocessing as mp
import secrets
import threading
import time
import traceback
from multiprocessing.connection import wait as wait_ready
from typing import Callable, Sequence

import numpy as np

from ..cluster import (
    MessageSizeModel,
    RecordChannel,
    ReplicationTable,
    SharedArena,
    TransportTally,
)
from ..core import FrogWildConfig, PageRankEstimate

# The merge runs in .backend (``_merged_outcome``); bench/ still wraps
# this module's name for its trace, so it stays bound here.
from ..core import merge_shard_results  # noqa: F401
from ..core.frogwild import FrogWildResult, prime_ingress_caches
from ..engine import build_cluster
from ..errors import ConfigError, EngineError, ShardFailure, WorkerCrashError
from ..graph import DiGraph
from ..obs import flatten
from .backend import (
    BatchOutcome,
    ShardCost,
    ShardedBackend,
    _checked_tables,
    _merged_outcome,
    _run_slice,
    _shard_cost,
    _shard_seed,
)
from .batching import RankingQuery
from .config import SHARD_FAILURE_POLICIES
from .supervisor import WorkerSupervisor

__all__ = ["PoolEpoch", "ProcessPoolBackend"]


def _worker_main(
    control,
    data,
    shard: int,
    machines_per_shard: int,
    cost_model,
    size_model,
    seed,
) -> None:
    """One shard worker: attach epochs, run batch slices, ship records."""
    channel = RecordChannel(data, size_model)
    epochs: dict[int, tuple[DiGraph, ReplicationTable, tuple]] = {}
    # One-shot chaos injection: stall the next batch reply this long.
    reply_delay_s = 0.0
    while True:
        try:
            message = control.recv()
        except (EOFError, OSError):
            return
        op = message[0]
        try:
            if op == "attach":
                _, epoch, graph_spec, table_spec = message
                graph_arena = SharedArena.attach(graph_spec)
                table_arena = SharedArena.attach(table_spec)
                graph = DiGraph.from_csr_arrays(graph_arena.arrays)
                table = ReplicationTable.from_shared_components(
                    graph, table_arena.arrays
                )
                # Warm the kernel tables once per epoch, off the batch
                # path — exactly what a live refresh does for the
                # in-process backends.
                prime_ingress_caches(table, graph)
                epochs[epoch] = (graph, table, (graph_arena, table_arena))
                control.send(("attached", epoch))
            elif op == "detach":
                _, epoch = message
                entry = epochs.pop(epoch, None)
                if entry is not None:
                    for arena in entry[2]:
                        arena.close()
                control.send(("detached", epoch))
            elif op == "run":
                _, task, epoch, config, share, shard_seed, queries = message
                graph, table, _ = epochs[epoch]
                state = build_cluster(
                    graph,
                    machines_per_shard,
                    cost_model=cost_model,
                    size_model=size_model,
                    seed=seed,
                    replication=table,
                )
                result = _run_slice(
                    graph, state, config, queries, share, shard_seed
                )
                if reply_delay_s > 0.0:
                    # Injected chaos: the slice is computed but nothing
                    # ships yet — from the parent's view this worker is
                    # mid-batch and silent, the deterministic window
                    # for landing a SIGKILL mid-flight.
                    time.sleep(reply_delay_s)
                    reply_delay_s = 0.0
                lanes = []
                for lane in result.results:
                    channel.send_records(
                        "result", *lane.estimate.records, tag=task
                    )
                    lanes.append(
                        (lane.estimate.num_frogs, lane.report, lane.ledger)
                    )
                control.send(
                    (
                        "result",
                        task,
                        {
                            "lanes": lanes,
                            "cost": _shard_cost(
                                shard, machines_per_shard, result
                            ),
                            "sent": channel.sent,
                        },
                    )
                )
                # The payload carried this batch's tally (pickled at
                # send time); start the next batch's delta fresh so the
                # parent's merge never double-counts.
                channel.sent = TransportTally()
            elif op == "chaos":
                # Fault injection (fire-and-forget, test/bench only).
                _, kind, seconds = message
                if kind == "hang":
                    time.sleep(float(seconds))
                elif kind == "delay":
                    reply_delay_s = float(seconds)
            elif op == "stop":
                for _, _, arenas in epochs.values():
                    for arena in arenas:
                        arena.close()
                control.send(("stopped",))
                return
            else:
                control.send(("error", None, f"unknown op {op!r}", ""))
        except (EOFError, ConnectionError, KeyboardInterrupt):
            # The pipe to the parent is gone.
            return
        except BaseException as error:  # surfaced to the parent
            task = message[1] if len(message) > 1 else None
            try:
                control.send(
                    ("error", task, repr(error), traceback.format_exc())
                )
            except (OSError, ValueError):
                return


class _Worker:
    """Parent-side handle of one shard process."""

    __slots__ = ("shard", "process", "control", "channel")

    def __init__(self, shard, process, control, channel) -> None:
        self.shard = shard
        self.process = process
        self.control = control
        self.channel = channel


#: Control op -> the reply kind that answers it.
_REPLY_KINDS = {
    "attach": "attached",
    "detach": "detached",
    "run": "result",
}


class _Wait:
    """One request in flight on one worker: what the gather awaits.

    Complete once the control ``reply`` of ``kind`` echoing ``token``
    (epoch or task id) has landed together with ``lanes`` data frames
    tagged with the same token.
    """

    def __init__(self, worker: _Worker, message: tuple, lanes: int) -> None:
        self.worker = worker
        self.kind = _REPLY_KINDS[message[0]]
        self.token = message[1]
        self.lanes = lanes
        # One ``(stops, stop_counts)`` record pair per lane, id-ordered.
        self.frames: list[tuple[np.ndarray, np.ndarray]] = []
        self.reply: tuple | None = None
        #: The worker's error reply, once one has been raised.
        self.error: EngineError | None = None
        #: Inactivity deadline; set by the first gather that awaits it.
        self.deadline: float | None = None
        # A dead worker's pipes read ready at EOF; each is retired on
        # its own, so replies buffered on the *other* still drain.
        self.control_open = True
        self.channel_open = True

    @property
    def complete(self) -> bool:
        return self.reply is not None and len(self.frames) == self.lanes

    def sources(self) -> list:
        """What can still bring news: the sentinel, and each open pipe
        this wait still needs something from."""
        worker = self.worker
        found = [worker.process.sentinel]
        if self.reply is None and self.control_open:
            found.append(worker.control)
        if len(self.frames) < self.lanes and self.channel_open:
            found.append(worker.channel)
        return found


class ProcessPoolBackend(ShardedBackend):
    """Shard fan-out on OS processes over shared-memory graph state.

    Construction is :class:`ShardedBackend`'s (same layout, seeds and
    tables, built once in the parent), then exports the graph and each
    shard's table into shared memory and spawns one worker per shard.
    Each worker runs the in-process fan-out's shard slice and ships its
    lanes and :class:`~repro.serving.backend.ShardCost` back, and the
    parent merges them as :class:`ShardedBackend` does — answers and
    bills are identical (a one-shard pool is :class:`LocalBackend`'s),
    only wall-clock parallelism differs.  ``kernel=`` has a single
    value, ``"fused"``; any other name is a
    :class:`~repro.errors.ConfigError` before a worker starts.

    Workers start with ``fork`` where the platform has it (instant
    start, Linux) and with the platform's default start method
    elsewhere; the worker entry point is spawn-safe either way.

    Every :class:`ShardedBackend` keyword is accepted and means the
    same.  Extra parameters:

    ``timeout_s``
        How long a worker may stay silent on a request (each frame or
        reply of that request restarts it); a silent worker is treated
        like a dead one (:class:`~repro.errors.WorkerCrashError`
        internally, policy below externally).
    ``on_shard_failure``
        What a batch does when a worker dies or times out mid-flight:
        ``"fail"`` (default) raises a typed
        :class:`~repro.errors.ShardFailure` *after* restoring the
        pool; ``"partial"`` merges the surviving shards and annotates
        the outcome (``degraded_shards``/``lost_frogs``) so answers
        carry a widened Theorem-1 bound.  Either way the lost worker
        is respawned within the batch (the
        :class:`~repro.serving.WorkerSupervisor` on ``supervisor``
        does it and counts it); a worker that died between batches is
        respawned by the next batch or attach.

    Use :meth:`close` (or a ``with`` block) to tear down workers and
    unlink the shared segments.  All of this pool's segments live
    under a random per-instance name prefix (``arena_prefix``), so
    ``close`` — and every respawn — can sweep segments
    orphaned by crashed workers without touching other pools
    (:meth:`~repro.cluster.SharedArena.sweep_orphans`).
    """

    def __init__(
        self,
        graph: DiGraph | None = None,
        timeout_s: float = 120.0,
        on_shard_failure: str = "fail",
        **layout,
    ) -> None:
        # The pool's own options are checked before the layout is
        # partitioned and every shard's table is built.
        if on_shard_failure not in SHARD_FAILURE_POLICIES:
            raise ConfigError(
                f"unknown on_shard_failure {on_shard_failure!r}: "
                f"expected one of {SHARD_FAILURE_POLICIES}"
            )
        if timeout_s <= 0:
            raise ConfigError("timeout_s must be positive")
        # ``store=`` rides the ShardedBackend seam: results stay
        # bitwise identical, but publishing an epoch *copies* the
        # (possibly mapped) tables into shared memory, so the RSS-bound
        # guarantee of the out-of-core tier is the in-process backends'
        # — this backend trades residency back for process parallelism.
        super().__init__(graph, **layout)
        self.timeout_s = timeout_s
        self.on_shard_failure = on_shard_failure
        start_method = (
            "fork"
            if "fork" in mp.get_all_start_methods()
            else mp.get_start_method()
        )
        self._context = mp.get_context(start_method)
        # One lock serializes batches, attaches and retirements: a batch
        # runs wholly against one epoch's arenas, and no epoch is
        # attached or detached under a batch in flight.
        self._lock = threading.Lock()
        self._epoch = 0
        self._task_counter = 0
        #: Per-instance segment namespace: every arena this pool ever
        #: creates is named under it, which is what makes the orphan
        #: sweep (close / respawn) safe to scope.
        self.arena_prefix = f"repro-arena-{secrets.token_hex(4)}"
        self._arenas: dict[int, list[SharedArena]] = {}
        self._workers: list[_Worker] = []
        #: Parent-side receive tallies plus worker-side send tallies of
        #: everything this backend moved over its record channels.
        self.transport_received = TransportTally()
        self.transport_sent = TransportTally()
        self._closed = False
        #: Respawns the workers a batch loses, and counts them.
        self.supervisor = WorkerSupervisor()
        try:
            self._publish_epoch(self._epoch, self.graph, self.replications)
            self._spawn_workers()
            self._attach(self._epoch, self._workers)
        except BaseException:
            self.close()
            raise

    # ------------------------------------------------------------------
    # Worker/arena lifecycle
    # ------------------------------------------------------------------
    def _publish_epoch(
        self,
        epoch: int,
        graph: DiGraph,
        replications: Sequence[ReplicationTable],
    ) -> None:
        """Materialize one epoch's shared arenas (graph + per-shard)."""
        arenas = [
            SharedArena.create(
                graph.csr_components(), epoch=epoch, prefix=self.arena_prefix
            )
        ]
        for table in replications:
            arenas.append(
                SharedArena.create(
                    table.shared_components(),
                    epoch=epoch,
                    prefix=self.arena_prefix,
                )
            )
        self._arenas[epoch] = arenas

    def _live_segment_names(self) -> frozenset[str]:
        """Names of every segment this pool still owns (sweep keep-set)."""
        return frozenset(
            arena.spec.name
            for arenas in self._arenas.values()
            for arena in arenas
        )

    def _spawn_worker(self, shard: int) -> _Worker:
        """Start one shard's worker process with fresh pipes."""
        control_parent, control_child = self._context.Pipe(duplex=True)
        data_parent, data_child = self._context.Pipe(duplex=False)
        process = self._context.Process(
            target=_worker_main,
            args=(
                control_child,
                data_child,
                shard,
                self.machines_per_shard,
                self.cost_model,
                self.size_model,
                self.seed,
            ),
            name=f"repro-shard-{shard}",
            daemon=True,
        )
        process.start()
        control_child.close()
        data_child.close()
        return _Worker(
            shard,
            process,
            control_parent,
            RecordChannel(data_parent, self.size_model),
        )

    def _spawn_workers(self) -> None:
        for shard in range(self.num_shards):
            self._workers.append(self._spawn_worker(shard))

    def _request(
        self, worker: _Worker, message: tuple, lanes: int = 0
    ) -> _Wait:
        """Send one control op; returns the wait for its answer.

        A pipe that cannot take the message is a typed
        :class:`~repro.errors.WorkerCrashError` (``cause="pipe"``).
        """
        try:
            worker.control.send(message)
        except (OSError, ValueError) as error:
            raise WorkerCrashError(
                f"shard {worker.shard} worker unreachable for "
                f"{message[0]}: {error}",
                shard=worker.shard,
                epoch=self._epoch,
                cause="pipe",
            ) from error
        return _Wait(worker, message, lanes)

    def _take_reply(self, wait: _Wait) -> bool:
        """Read one control message; True if it is this wait's reply."""
        try:
            message = wait.worker.control.recv()
        except (EOFError, OSError):
            wait.control_open = False
            return False
        if message[0] == "error":
            _, _, error, trace = message
            wait.error = EngineError(
                f"shard {wait.worker.shard} worker failed: {error}\n{trace}"
            )
            raise wait.error
        if message[:2] != (wait.kind, wait.token):
            return False  # older task's result, junk
        wait.reply = message
        return True

    def _take_frame(self, wait: _Wait) -> bool:
        """Read one data frame; True if it is one of this wait's lanes."""
        try:
            kind, tag, stops, stop_counts = wait.worker.channel.recv_records()
        except (EOFError, OSError):
            wait.channel_open = False
            return False
        if kind != "result" or tag != wait.token:
            return False  # an older (failed) task's frame
        wait.frames.append((stops, stop_counts))
        return True

    def _gather(
        self,
        waits: Sequence[_Wait],
        recover: Callable[[_Wait, WorkerCrashError], None] | None = None,
    ) -> list[_Wait]:
        """Run every wait to completion in one event loop.

        Blocks on the control connection, data channel and process
        sentinel of every wait still in flight and handles whichever
        is ready (deadline and death rules: module docstring).  A wait
        that fails — ``died`` or ``timeout`` — raises its
        :class:`~repro.errors.WorkerCrashError` unless ``recover`` is
        given: that is called at once with the wait and the error, and
        the other waits go on.  Returns the completed waits.
        """
        live = list(waits)
        done: list[_Wait] = []
        started = time.monotonic()
        for wait in live:
            if wait.deadline is None:
                wait.deadline = started + self.timeout_s
        while live:
            horizon = min(wait.deadline for wait in live) - time.monotonic()
            ready = set(
                wait_ready(
                    [source for wait in live for source in wait.sources()],
                    max(horizon, 0.0),
                )
            )
            for wait in list(live):
                worker = wait.worker
                # Only sources this wait asked for can be in ``ready``.
                readable = progressed = False
                if worker.control in ready:
                    readable = True
                    progressed |= self._take_reply(wait)
                if worker.channel in ready:
                    readable = True
                    progressed |= self._take_frame(wait)
                if wait.complete:
                    live.remove(wait)
                    done.append(wait)
                    continue
                now = time.monotonic()
                if progressed:
                    wait.deadline = now + self.timeout_s
                    continue
                if worker.process.sentinel in ready and not readable:
                    # Dead, and nothing it flushed is left to drain.
                    cause = "died"
                elif now > wait.deadline:
                    cause = "timeout"
                else:
                    continue
                live.remove(wait)
                error = WorkerCrashError(
                    f"shard {worker.shard} worker lost ({cause}) "
                    f"awaiting {wait.kind}",
                    shard=worker.shard,
                    epoch=self._epoch,
                    cause=cause,
                )
                if recover is None:
                    raise error
                recover(wait, error)
        return done

    def _attach(
        self,
        epoch: int,
        workers: Sequence[_Worker],
        revive: Callable[[int, str], bool] | None = None,
    ) -> None:
        """The attach handshake of ``workers`` for ``epoch``.

        Every attach sent is gathered before anything raises, so no
        caller destroys the epoch's arenas under a worker still mapping
        them; the first failure is raised after that.  A worker found
        dead at the send or lost while attaching is handed to
        ``revive(shard, cause)`` (:meth:`_recover_shard` on an attach,
        whose respawn attaches every published epoch, this one
        included); a ``False`` from it, or no ``revive``, is a failure.
        """
        graph, *tables = (arena.spec for arena in self._arenas[epoch])
        errors: list[EngineError] = []
        lost: list[_Wait] = []

        def fail(shard: int, error: WorkerCrashError) -> None:
            if revive is None or not revive(shard, error.cause):
                errors.append(error)

        def recover(wait: _Wait, error: WorkerCrashError) -> None:
            lost.append(wait)
            fail(wait.worker.shard, error)

        waits: list[_Wait] = []
        for worker in workers:
            message = ("attach", epoch, graph, tables[worker.shard])
            try:
                waits.append(self._request(worker, message))
            except WorkerCrashError as error:
                fail(worker.shard, error)
        while waits:
            try:
                self._gather(waits, recover=recover)
            except EngineError as error:
                # One worker's error reply ends the gather; the others
                # are gathered on, against their own deadlines.
                errors.append(error)
            waits = [
                wait
                for wait in waits
                if not (wait.complete or wait.error is not None or wait in lost)
            ]
        if errors:
            raise errors[0]

    def attach_epoch(
        self,
        graph: DiGraph,
        replications: Sequence[ReplicationTable],
    ) -> "PoolEpoch":
        """Attach every worker to a refreshed snapshot's tables.

        New arenas are created under the next epoch tag and all workers
        attach them; it becomes the epoch :meth:`run_batch` runs on, and
        the returned :class:`PoolEpoch` keeps running on it.  Earlier
        epochs stay attached until :meth:`retire`, so a remap is an
        attach followed by retiring the epoch it replaced.  A worker
        that died since the last batch is respawned here, as a batch
        would.
        """
        replications = _checked_tables(
            replications, self.num_shards, self.machines_per_shard, graph
        )
        with self._lock:
            self._attach_epoch_locked(graph, replications)
            return PoolEpoch(self)

    def retire(self, epoch: int) -> None:
        """Detach and unlink one epoch's arenas (no-op once gone).

        Every worker detaches it before its segments are unlinked; a
        worker lost meanwhile is left for the next batch to respawn (its
        mappings died with it).  Retire no epoch a batch may still run
        on: that batch fails with an :class:`~repro.errors.EngineError`.
        """
        with self._lock:
            self._retire_locked(epoch)

    def _attach_epoch_locked(
        self,
        graph: DiGraph,
        replications: Sequence[ReplicationTable],
    ) -> None:
        new_epoch = self._epoch + 1
        self._publish_epoch(new_epoch, graph, replications)
        try:
            self._attach(new_epoch, self._workers, self._recover_shard)
        except BaseException:
            for arena in self._arenas.pop(new_epoch, []):
                arena.destroy()
            raise
        self._epoch = new_epoch
        self.graph = graph
        self.replications = replications

    def _retire_locked(self, epoch: int) -> None:
        if self._closed or epoch not in self._arenas:
            return
        waits: list[_Wait] = []
        for worker in self._workers:
            try:
                waits.append(self._request(worker, ("detach", epoch)))
            except WorkerCrashError:
                pass
        self._gather(waits, recover=lambda wait, error: None)
        for arena in self._arenas.pop(epoch):
            arena.destroy()

    def close(self) -> None:
        """Stop workers, close pipes and unlink every shared segment.

        Hardened against crashed and hung workers: a worker that
        ignores ``stop`` is terminated, pipe teardown failures are
        swallowed, every arena is destroyed regardless, and the pool's
        name prefix is swept afterwards — a worker kill can no longer
        leak ``/dev/shm`` segments past close.
        """
        if self._closed:
            return
        self._closed = True
        for worker in self._workers:
            try:
                worker.control.send(("stop",))
            except (OSError, ValueError):
                pass
        for worker in self._workers:
            worker.process.join(timeout=5.0)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=5.0)
            try:
                worker.control.close()
            except OSError:
                pass
            try:
                worker.channel.close()
            except OSError:
                pass
        self._workers = []
        for arenas in self._arenas.values():
            for arena in arenas:
                try:
                    arena.destroy()
                except OSError:
                    pass
        self._arenas = {}
        SharedArena.sweep_orphans(self.arena_prefix)

    def __enter__(self) -> "ProcessPoolBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter teardown
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _recover_shard(self, shard: int, cause: str) -> bool:
        """Respawn one worker via the supervisor (lock held); False on
        a failed respawn — the shard is then lost for this batch and
        the slot keeps its dead handle for the next attempt."""
        try:
            self.supervisor.revive_locked(self, shard, cause=cause)
        except EngineError:
            return False
        return True

    def run_batch(
        self, config: FrogWildConfig, queries: Sequence[RankingQuery]
    ) -> BatchOutcome:
        """Run one batch on the most recently attached epoch."""
        return self._run_batch(config, queries, None)

    def _run_batch(
        self,
        config: FrogWildConfig,
        queries: Sequence[RankingQuery],
        epoch: int | None,
    ) -> BatchOutcome:
        if self._closed:
            raise EngineError("backend is closed")
        if not queries:
            return BatchOutcome(
                lanes=(), shared_network_bytes=0, simulated_time_s=0.0
            )
        with self._lock:
            if epoch is None:
                epoch = self._epoch
            elif epoch not in self._arenas:
                raise EngineError(f"epoch {epoch} is retired")
            self._task_counter += 1
            task = self._task_counter
            shares = self._shares(config.num_frogs)
            failures: dict[int, WorkerCrashError] = {}

            def send(shard: int) -> _Wait:
                return self._request(
                    self._workers[shard],
                    (
                        "run",
                        task,
                        epoch,
                        config,
                        shares[shard],
                        _shard_seed(config.seed, shard, self.num_shards),
                        queries,
                    ),
                    lanes=len(queries),
                )

            def recover(wait: _Wait, error: WorkerCrashError) -> None:
                # A shard lost mid-flight is revived the moment the
                # gather sees it (the pool never stays wedged); its
                # slice is lost, and the failure policy decides what
                # the batch does without it.
                shard = wait.worker.shard
                self._recover_shard(shard, error.cause)
                failures[shard] = error

            # Dispatch.  A worker found dead *here* lost no work:
            # respawn and re-send once for free under both policies.
            waits: list[_Wait] = []
            for shard, share in enumerate(shares):
                if share == 0:
                    continue
                try:
                    waits.append(send(shard))
                except WorkerCrashError as error:
                    if not self._recover_shard(shard, error.cause):
                        failures[shard] = error
                        continue
                    try:
                        waits.append(send(shard))
                    except WorkerCrashError as again:
                        failures[shard] = again
            results = {
                wait.worker.shard: wait
                for wait in self._gather(waits, recover=recover)
            }
            for shard in results:
                self.supervisor.note_healthy_locked(shard)
            lost_frogs = sum(shares[shard] for shard in failures)
            if failures:
                first_shard = min(failures)
                first = failures[first_shard]
                detail = "; ".join(
                    f"shard {shard}: {error.cause}"
                    for shard, error in sorted(failures.items())
                )
                if self.on_shard_failure == "fail" or not results:
                    raise ShardFailure(
                        f"batch lost {lost_frogs} of {config.num_frogs} "
                        f"frogs ({detail}); pool restored",
                        shard=first_shard,
                        epoch=epoch,
                        cause=first.cause,
                        lost_frogs=lost_frogs,
                    ) from first
            per_query_lanes: list[list[FrogWildResult]] = [
                [] for _ in queries
            ]
            shard_costs: list[ShardCost] = []
            for shard in sorted(results):
                wait = results[shard]
                worker, payload = wait.worker, wait.reply[2]
                for lanes, (stops, stop_counts), (
                    num_frogs, report, ledger
                ) in zip(per_query_lanes, wait.frames, payload["lanes"]):
                    try:
                        # Merged as they arrived: no n-vector per frame.
                        estimate = PageRankEstimate.from_records(
                            stops,
                            stop_counts,
                            num_frogs,
                            self.graph.num_vertices,
                        )
                    except ConfigError as error:
                        raise EngineError(
                            f"shard {shard} sent a malformed result "
                            f"frame: {error}"
                        ) from error
                    lanes.append(
                        FrogWildResult(estimate, report, None, ledger)
                    )
                self.transport_sent.merge(payload["sent"])
                self.transport_received.merge(worker.channel.received)
                worker.channel.received = TransportTally()
                shard_costs.append(payload["cost"])
        # Partial merging is the paper's claim made operational: the
        # surviving shards' counters merge through the normal exact
        # path, and the merged estimate's num_frogs automatically
        # drops to the surviving population — the estimator rescales
        # itself, the batch just carries a wider sampling bound.
        return _merged_outcome(
            per_query_lanes,
            shard_costs,
            self.num_shards,
            degraded_shards=tuple(sorted(failures)),
            lost_frogs=lost_frogs,
        )

    # ------------------------------------------------------------------
    # Fault injection (repro.traffic.chaos)
    # ------------------------------------------------------------------
    def _chaos_worker(self, shard: int) -> _Worker:
        """One shard's worker; a shard the pool lacks is a ConfigError,
        a closed pool an EngineError."""
        if not 0 <= shard < self.num_shards:
            raise ConfigError(
                f"no shard {shard} in a {self.num_shards}-shard pool"
            )
        # ``close`` sets ``_closed`` before it empties the worker list,
        # so a list read before an open pool's check is the full one.
        workers = self._workers
        if self._closed:
            raise EngineError("backend is closed")
        return workers[shard]

    def worker_pid(self, shard: int) -> int:
        """OS pid of one shard's *current* worker (for chaos kills).

        Takes no lock: a chaos kill must land while a batch holds it.
        """
        return self._chaos_worker(shard).process.pid

    def inject_chaos(
        self, shard: int, kind: str, duration_s: float = 0.0
    ) -> None:
        """Deliver one fault-injection op to a worker (fire-and-forget).

        ``"hang"`` parks the worker's control loop for ``duration_s``
        (the parent sees a silent worker — the timeout path);
        ``"delay"`` stalls the worker's *next* batch reply by
        ``duration_s`` (the parent sees a worker mid-batch and quiet —
        the deterministic window for landing a SIGKILL mid-flight).
        Killing the process itself is an OS matter, not a protocol op:
        ``os.kill(backend.worker_pid(shard), SIGKILL)`` — which is
        what :class:`repro.traffic.ChaosInjector` does.  Serialized
        with batches on the backend lock, so the op lands between
        batches, never interleaved into one.
        """
        if kind not in ("hang", "delay"):
            raise ConfigError(
                f"unknown chaos op {kind!r}: expected 'hang' or 'delay'"
            )
        if duration_s < 0:
            raise ConfigError("duration_s must be non-negative")
        with self._lock:
            self._chaos_worker(shard).control.send(
                ("chaos", kind, float(duration_s))
            )

    # ------------------------------------------------------------------
    # Transport accounting
    # ------------------------------------------------------------------
    def transport_summary(self) -> dict[str, float]:
        """Measured-vs-model byte accounting of the record transport.

        The ``sent_*``/``received_*`` counters of the two tallies, and
        ``reconciles``: 1.0 when both directions' measured bytes equal
        the :class:`MessageSizeModel` pricing of the same record
        traffic (plus the real header of any empty frame) *and* the
        parent received byte-for-byte what workers sent.
        """
        size_model = self.size_model or MessageSizeModel()
        sent, received = self.transport_sent, self.transport_received
        reconciles = (
            sent.reconciles(size_model)
            and received.reconciles(size_model)
            and sent.measured_bytes == received.measured_bytes
            and sent.records == received.records
        )
        return flatten(
            {"sent": sent, "received": received, "reconciles": reconciles}
        )

    def stats_parts(self) -> dict[str, object]:
        """The pool's parts of the owning service's snapshot."""
        return {
            "transport": self.transport_summary(),
            "supervisor": self.supervisor.stats,
        }


class PoolEpoch:
    """One attached epoch of a :class:`ProcessPoolBackend`, as a backend.

    Runs every batch on the arenas of the epoch that was the pool's
    current one when it was made, whatever the pool attached since,
    until :meth:`retire` detaches and unlinks them.  A live service's
    epoch manager holds one per published epoch and retires it once no
    batch is pinned to it.  ``backend`` is the shared pool (closing one
    epoch closes it); ``replications`` are the epoch's tables.
    """

    def __init__(self, backend: ProcessPoolBackend) -> None:
        self.backend = backend
        self.epoch = backend._epoch
        self.replications = backend.replications

    @property
    def num_shards(self) -> int:
        return self.backend.num_shards

    def run_batch(
        self, config: FrogWildConfig, queries: Sequence[RankingQuery]
    ) -> BatchOutcome:
        return self.backend._run_batch(config, queries, self.epoch)

    def retire(self) -> None:
        self.backend.retire(self.epoch)

    def close(self) -> None:
        self.backend.close()
