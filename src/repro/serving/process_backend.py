"""True multi-process execution: one OS process per shard sub-cluster.

:class:`ProcessPoolBackend` gives the :class:`ShardedBackend` fan-out a
real execution substrate: every shard runs in its own OS process (its
own interpreter, its own GIL), so "16 machines" can finally use 16
cores.  The layout, seeding and merge semantics are *inherited* from
:class:`ShardedBackend` — the parent builds the identical per-shard
ingress, splits frog budgets with the identical :meth:`_shares`, and
derives the identical per-shard seeds — so the merged counters are
bit-for-bit what the in-process sharded backend produces; only *where*
the traversals execute changes.

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
  reports, ledgers) travels on a separate pickled control pipe.
* **Epoch-tagged remapping** — a live refresh
  (:class:`~repro.live.BackgroundRefresher` publishes) calls
  :meth:`refresh` with the new snapshot's tables: fresh arenas are
  created under the next epoch tag, every worker attaches them *before*
  the old epoch is retired, and batches — serialized with refreshes on
  one lock — run wholly against a single epoch's arrays (no mid-batch
  tearing).

Worker protocol (control pipe, pickled tuples):

==============  =====================================================
parent sends    ``("attach", epoch, graph_spec, table_spec)``,
                ``("detach", epoch)``, ``("run", task, epoch, config,
                share, shard_seed, queries)``, ``("ping", nonce)``,
                ``("chaos", kind, seconds)``, ``("stop",)``
worker replies  ``("attached", epoch)``, ``("detached", epoch)``,
                ``("result", task, payload)``, ``("error", task,
                repr, traceback)``, ``("pong", nonce)``,
                ``("stopped",)``
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
reply of its kind echoing its token (epoch, task id, ping nonce).
Anything stale is discarded without counting, so a stale-task flood
stalls the parent for at most ``timeout_s``.  A fired sentinel is
ruled a death only once the worker's pipes have drained to EOF: a
worker that died *after* flushing its reply still answers.

``ping``/``pong`` is the :class:`~repro.serving.WorkerSupervisor`
heartbeat; ``chaos`` is the fault-injection hook
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
  surviving frog count (:meth:`~repro.core.PageRankEstimate.merge`
  sums ``num_frogs``), and the outcome carries ``degraded_shards`` /
  ``lost_frogs`` so the service can attach the widened Theorem-1
  bound;
* ``"retry"`` — the respawned worker re-runs the lost slice (same
  share, same per-shard seed, so a successful retry is bitwise
  identical to a never-crashed batch), with exponential backoff and a
  per-batch ``retry_budget``; exhausted budgets fall back to partial
  merging when survivors exist.

A worker found dead at *dispatch* (before its slice started) is
respawned and re-sent once for free under every policy — no frogs
were lost yet.  Liveness between batches is the
:class:`~repro.serving.WorkerSupervisor`'s job (``ping`` heartbeats,
respawn with backoff, orphaned-segment sweeps).
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
from ..core import (
    BatchQuery,
    FrogWildConfig,
    PageRankEstimate,
    run_frogwild_batch,
    seed_distribution,
)

# The merge runs in .backend (``_merged_outcome``); bench/ still wraps
# this module's name for its trace, so it stays bound here.
from ..core import merge_shard_results  # noqa: F401
from ..core.frogwild import FrogWildResult, prime_ingress_caches
from ..engine import build_cluster
from ..errors import ConfigError, EngineError, ShardFailure, WorkerCrashError
from ..graph import DiGraph
from .backend import (
    BatchOutcome,
    ShardCost,
    ShardedBackend,
    _checked_tables,
    _merged_outcome,
    _shard_seed,
)
from .batching import RankingQuery
from .config import SHARD_FAILURE_POLICIES
from .supervisor import WorkerSupervisor

__all__ = ["ProcessPoolBackend"]


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
                # path — exactly what the live refresher does for the
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
                distributions = [
                    seed_distribution(
                        graph.num_vertices,
                        np.asarray(seeds, dtype=np.int64),
                        None
                        if weights is None
                        else np.asarray(weights, dtype=np.float64),
                    )
                    for seeds, weights in queries
                ]
                state = build_cluster(
                    graph,
                    machines_per_shard,
                    cost_model=cost_model,
                    size_model=size_model,
                    seed=seed,
                    replication=table,
                )
                result = run_frogwild_batch(
                    graph,
                    [
                        BatchQuery(
                            num_frogs=share,
                            start_distribution=distribution,
                            seed=shard_seed,
                        )
                        for distribution in distributions
                    ],
                    config,
                    state=state,
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
                    counts = lane.estimate.counts
                    stops = np.flatnonzero(counts)
                    channel.send_records(
                        "result", stops, counts[stops], tag=task
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
                            "shared_network_bytes": (
                                result.report.network_bytes
                            ),
                            "attributed_network_bytes": (
                                result.attributed_network_bytes()
                            ),
                            "cpu_seconds": sum(
                                lane.report.cpu_seconds
                                for lane in result.results
                            ),
                            "simulated_time_s": result.report.total_time_s,
                            "sent": channel.sent,
                        },
                    )
                )
                # The payload carried this batch's tally (pickled at
                # send time); start the next batch's delta fresh so the
                # parent's merge never double-counts.
                channel.sent = TransportTally()
            elif op == "ping":
                # Supervisor heartbeat: echo the nonce so the parent
                # can tell a live loop from a buffered stale reply.
                control.send(("pong",) + tuple(message[1:]))
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
        except (EOFError, OSError, KeyboardInterrupt):
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
    "ping": "pong",
}


class _Wait:
    """One request in flight on one worker: what the gather awaits.

    Complete once the control ``reply`` of ``kind`` echoing ``token``
    (epoch, task id or ping nonce) has landed together with ``lanes``
    data frames tagged with the same token.
    """

    def __init__(self, worker: _Worker, message: tuple, lanes: int) -> None:
        self.worker = worker
        self.kind = _REPLY_KINDS[message[0]]
        self.token = message[1]
        self.lanes = lanes
        self.frames: list[np.ndarray] = []
        self.reply: tuple | None = None
        self.deadline = 0.0
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

    Construction mirrors :class:`ShardedBackend` (same layout, same
    per-shard seeds, same tables — built once in the parent), then
    exports the graph and each shard's table into shared memory and
    spawns one worker process per shard.  ``run_batch`` fans each
    query's frog budget out exactly as the in-process backend does and
    merges the returned lanes through the same
    :func:`~repro.core.batched.merge_shard_results` /
    ``CostLedger.merge`` machinery, so results and cost attribution are
    identical — only wall-clock parallelism differs.  ``kernel=``
    stays for caller compatibility and has a single value,
    ``"fused"``: any other name is a :class:`~repro.errors.ConfigError`
    before a worker starts, and it is not forwarded to the workers.

    Every :class:`ShardedBackend` keyword is accepted and means the
    same.  Extra parameters:

    ``start_method``
        ``multiprocessing`` start method; default prefers ``fork``
        (instant start, Linux) and falls back to the platform default.
        The worker entry point is spawn-safe either way.
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
        carry a widened Theorem-1 bound; ``"retry"`` re-runs the lost
        slice on the respawned worker (bitwise identical on success —
        same share, same per-shard seed).
    ``retry_budget`` / ``retry_backoff_s``
        Retry policy: at most ``retry_budget`` re-runs per shard per
        batch, sleeping ``retry_backoff_s * 2**attempt`` between
        them; an exhausted budget falls back to partial merging when
        survivors exist.
    ``heartbeat_s``
        When set, the attached :class:`~repro.serving.WorkerSupervisor`
        runs background liveness checks every ``heartbeat_s`` seconds
        (ping/pong on the control pipes), respawning dead workers
        *between* batches instead of on the next batch's critical
        path.  ``None`` (default) leaves the supervisor passive — it
        still handles in-batch revivals and explicit
        ``supervisor.check()`` calls.

    Use :meth:`close` (or a ``with`` block) to tear down workers and
    unlink the shared segments.  All of this pool's segments live
    under a random per-instance name prefix (``arena_prefix``), so
    ``close`` — and every supervisor respawn — can sweep segments
    orphaned by crashed workers without touching other pools
    (:meth:`~repro.cluster.SharedArena.sweep_orphans`).
    """

    def __init__(
        self,
        graph: DiGraph | None = None,
        start_method: str | None = None,
        timeout_s: float = 120.0,
        on_shard_failure: str = "fail",
        retry_budget: int = 2,
        retry_backoff_s: float = 0.05,
        heartbeat_s: float | None = None,
        **layout,
    ) -> None:
        # ``store=`` rides the ShardedBackend seam: results stay
        # bitwise identical, but publishing an epoch *copies* the
        # (possibly mapped) tables into shared memory, so the RSS-bound
        # guarantee of the out-of-core tier is the in-process backends'
        # — this backend trades residency back for process parallelism.
        super().__init__(graph, **layout)
        if on_shard_failure not in SHARD_FAILURE_POLICIES:
            raise ConfigError(
                f"unknown on_shard_failure {on_shard_failure!r}: "
                f"expected one of {SHARD_FAILURE_POLICIES}"
            )
        if timeout_s <= 0:
            raise ConfigError("timeout_s must be positive")
        if retry_budget < 0:
            raise ConfigError("retry_budget must be non-negative")
        if retry_backoff_s < 0:
            raise ConfigError("retry_backoff_s must be non-negative")
        self.timeout_s = timeout_s
        self.on_shard_failure = on_shard_failure
        self.retry_budget = retry_budget
        self.retry_backoff_s = retry_backoff_s
        if start_method is None:
            start_method = (
                "fork"
                if "fork" in mp.get_all_start_methods()
                else mp.get_start_method()
            )
        self._context = mp.get_context(start_method)
        # One lock serializes batches and refreshes: a batch runs
        # wholly against one epoch's arenas, and a refresh never remaps
        # under a batch in flight.
        self._lock = threading.Lock()
        self._epoch = 0
        self._task_counter = 0
        #: Per-instance segment namespace: every arena this pool ever
        #: creates is named under it, which is what makes the orphan
        #: sweep (close / supervisor respawn) safe to scope.
        self.arena_prefix = f"repro-arena-{secrets.token_hex(4)}"
        self._arenas: dict[int, list[SharedArena]] = {}
        self._workers: list[_Worker] = []
        #: Parent-side receive tallies plus worker-side send tallies of
        #: everything this backend moved over its record channels.
        self.transport_received = TransportTally()
        self.transport_sent = TransportTally()
        self._closed = False
        #: Worker lifecycle guardian: in-batch revivals always go
        #: through it; ``heartbeat_s`` additionally runs its periodic
        #: between-batch liveness checks on a daemon thread.
        self.supervisor = WorkerSupervisor(self, heartbeat_s=heartbeat_s)
        try:
            self._publish_epoch(self._epoch, self.graph, self.replications)
            self._spawn_workers()
            self._attach(self._epoch, self._workers)
            if heartbeat_s is not None:
                self.supervisor.start()
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
            raise EngineError(
                f"shard {wait.worker.shard} worker failed: {error}\n{trace}"
            )
        if message[:2] != (wait.kind, wait.token):
            return False  # stale pong, older task's result, junk
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
        counts = np.zeros(self.graph.num_vertices, dtype=np.int64)
        counts[stops] = stop_counts
        wait.frames.append(counts)
        return True

    def _gather(
        self,
        waits: Sequence[_Wait],
        timeout_s: float | None = None,
        recover: Callable[[_Wait, WorkerCrashError], _Wait | None]
        | None = None,
    ) -> list[_Wait]:
        """Run every wait to completion in one event loop.

        Blocks on the control connection, data channel and process
        sentinel of every wait still in flight and handles whichever
        is ready (deadline and death rules: module docstring).  A wait
        that fails — ``died`` or ``timeout`` — raises its
        :class:`~repro.errors.WorkerCrashError` unless ``recover`` is
        given: that is called at once with the wait and the error and
        may return a replacement (a re-sent request) that joins the
        loop.  Returns the completed waits, replacements included.
        """
        budget = self.timeout_s if timeout_s is None else timeout_s
        live = list(waits)
        done: list[_Wait] = []
        started = time.monotonic()
        for wait in live:
            wait.deadline = started + budget
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
                    wait.deadline = now + budget
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
                replacement = recover(wait, error)
                if replacement is not None:
                    replacement.deadline = time.monotonic() + budget
                    live.append(replacement)
        return done

    def _attach(self, epoch: int, workers: Sequence[_Worker]) -> None:
        """The attach handshake of ``workers`` for ``epoch``."""
        graph, *tables = (arena.spec for arena in self._arenas[epoch])
        self._gather(
            [
                self._request(
                    worker, ("attach", epoch, graph, tables[worker.shard])
                )
                for worker in workers
            ]
        )

    def refresh(
        self,
        graph: DiGraph,
        replications: Sequence[ReplicationTable],
        epoch: int | None = None,
    ) -> "ProcessPoolBackend":
        """Remap every worker onto a refreshed snapshot's tables.

        The epoch-tagged handshake of a live publish: new arenas are
        created under the next epoch tag, all workers attach them, and
        only then is the previous epoch detached and unlinked.  Batches
        serialize with this on the backend lock, so every batch runs
        against exactly one epoch's arrays.
        """
        replications = _checked_tables(
            replications, self.num_shards, self.machines_per_shard, graph
        )
        with self._lock:
            old_epoch = self._epoch
            new_epoch = epoch if epoch is not None else old_epoch + 1
            if new_epoch <= old_epoch:
                raise ConfigError(
                    f"refresh epoch must advance: {new_epoch} <= "
                    f"{old_epoch}"
                )
            self._publish_epoch(new_epoch, graph, replications)
            try:
                self._attach(new_epoch, self._workers)
            except BaseException:
                for arena in self._arenas.pop(new_epoch, []):
                    arena.destroy()
                raise
            self._epoch = new_epoch
            self.graph = graph
            self.replications = replications
            self._gather(
                [
                    self._request(worker, ("detach", old_epoch))
                    for worker in self._workers
                ]
            )
            for arena in self._arenas.pop(old_epoch, []):
                arena.destroy()
        return self

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
        self.supervisor.stop()
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
            self.supervisor.revive_locked(shard, cause=cause)
        except EngineError:
            return False
        return True

    def run_batch(
        self, config: FrogWildConfig, queries: Sequence[RankingQuery]
    ) -> BatchOutcome:
        if self._closed:
            raise EngineError("backend is closed")
        if not queries:
            return BatchOutcome(
                lanes=(), shared_network_bytes=0, simulated_time_s=0.0
            )
        query_specs = [
            (
                tuple(query.seeds),
                None if query.weights is None else tuple(query.weights),
            )
            for query in queries
        ]
        with self._lock:
            self._task_counter += 1
            task = self._task_counter
            shares = self._shares(config.num_frogs)
            failures: dict[int, WorkerCrashError] = {}
            retries: dict[int, int] = {}

            def send(shard: int) -> _Wait:
                return self._request(
                    self._workers[shard],
                    (
                        "run",
                        task,
                        self._epoch,
                        config,
                        shares[shard],
                        _shard_seed(config.seed, shard),
                        query_specs,
                    ),
                    lanes=len(queries),
                )

            def recover(
                wait: _Wait, error: WorkerCrashError
            ) -> _Wait | None:
                # A shard lost mid-flight is revived the moment the
                # gather sees it (the pool never stays wedged); its
                # slice is the failure policy's call, and a retry
                # re-runs while the other shards still compute.
                shard = wait.worker.shard
                revived = self._recover_shard(shard, error.cause)
                attempt = retries.get(shard, 0)
                if (
                    revived
                    and self.on_shard_failure == "retry"
                    and attempt < self.retry_budget
                ):
                    retries[shard] = attempt + 1
                    time.sleep(self.retry_backoff_s * (2.0**attempt))
                    try:
                        return send(shard)
                    except WorkerCrashError as again:
                        error = again
                failures[shard] = error
                return None

            # Dispatch.  A worker found dead *here* lost no work:
            # respawn and re-send once for free under every policy.
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
                        epoch=self._epoch,
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
                for lanes, counts, (num_frogs, report, ledger) in zip(
                    per_query_lanes, wait.frames, payload["lanes"]
                ):
                    lanes.append(
                        FrogWildResult(
                            estimate=PageRankEstimate(counts, num_frogs),
                            report=report,
                            state=None,
                            ledger=ledger,
                        )
                    )
                self.transport_sent.merge(payload["sent"])
                self.transport_received.merge(worker.channel.received)
                worker.channel.received = TransportTally()
                shard_costs.append(
                    ShardCost(
                        shard=shard,
                        num_machines=self.machines_per_shard,
                        shared_network_bytes=payload[
                            "shared_network_bytes"
                        ],
                        attributed_network_bytes=payload[
                            "attributed_network_bytes"
                        ],
                        cpu_seconds=payload["cpu_seconds"],
                        simulated_time_s=payload["simulated_time_s"],
                    )
                )
        # Partial merging is the paper's claim made operational: the
        # surviving shards' counters merge through the normal exact
        # path, and the merged estimate's num_frogs automatically
        # drops to the surviving population — the estimator rescales
        # itself, the batch just carries a wider sampling bound.
        return _merged_outcome(
            per_query_lanes,
            shard_costs,
            degraded_shards=tuple(sorted(failures)),
            lost_frogs=lost_frogs,
        )

    # ------------------------------------------------------------------
    # Fault injection (repro.traffic.chaos)
    # ------------------------------------------------------------------
    def worker_pid(self, shard: int) -> int:
        """OS pid of one shard's *current* worker (for chaos kills)."""
        return self._workers[shard].process.pid

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
        if self._closed:
            raise EngineError("backend is closed")
        with self._lock:
            self._workers[shard].control.send(
                ("chaos", kind, float(duration_s))
            )

    # ------------------------------------------------------------------
    # Transport accounting
    # ------------------------------------------------------------------
    def transport_summary(self) -> dict[str, float]:
        """Measured-vs-model byte accounting of the record transport.

        ``reconciles`` is 1.0 when both directions' measured bytes
        equal the :class:`MessageSizeModel` pricing of the same record
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
        summary = {f"sent_{k}": v for k, v in sent.as_dict().items()}
        summary.update(
            {f"received_{k}": v for k, v in received.as_dict().items()}
        )
        summary["reconciles"] = float(reconciles)
        return summary
