"""The ranking service: cached, coalesced, scheduled, backend-executed.

:class:`RankingService` is the façade production callers talk to.  One
instance owns an :class:`~repro.serving.backend.ExecutionBackend`
(which owns the graph's partitioned ingress — paid once, as the paper
excludes ingress from measurements); each request flows through four
stages:

1. **cache** — estimates are immutable, so identical queries (same
   seeds, weights, config and graph generation) are served from the
   TTL/LRU cache without touching the cluster;
2. **coalescing** — cache misses are grouped into config-pure batches
   of at most ``max_batch_size`` queries, duplicates collapsing onto
   one in-flight lane;
3. **scheduling** — :class:`~repro.serving.scheduler.BatchScheduler`
   applies one dispatch rule, on the started loop and on a
   virtual-clock :meth:`pump` alike: a free server takes one batch per
   decision, a full one first (*fill*), else the oldest group's
   (*idle*); behind a busy server a batch leaves once its oldest query
   has waited ``max_delay_s`` (*deadline*); a *flush* sends everything
   (the synchronous :meth:`RankingService.query_batch` is just a
   zero-delay schedule: submit, then flush).  Submitting only
   enqueues;
4. **backend execution** — the batch runs as a shard fan-out with
   exact counter/ledger merging (:class:`~repro.serving.ShardedBackend`;
   a single cluster, :class:`~repro.serving.LocalBackend`, is one shard).

Answers carry their per-query *attributed* costs (what the query alone
caused inside its batch, standalone-priced, summed exactly across
shards) so callers can meter users honestly even though the wire cost
was amortized.
"""

from __future__ import annotations

import threading
import time
import weakref
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Hashable, Sequence

import numpy as np

from ..core import FrogWildConfig, PageRankEstimate
from ..engine import RunReport
from ..errors import ConfigError, EngineError, OverloadError
from ..graph import DiGraph
from ..obs import Histogram, flatten
from ..theory.bounds import config_error_bound
from .backend import BatchOutcome, _checked_store, build_backend
from .batching import PendingQuery, QueryCoalescer, RankingQuery
from .cache import TTLCache
from .config import ServiceConfig
from .scheduler import BatchScheduler, VirtualClock

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a cycle
    from ..traffic.trace import QueryTrace

__all__ = [
    "RankingAnswer",
    "RankingFuture",
    "ServiceStats",
    "RankingService",
]


@dataclass(frozen=True)
class RankingAnswer:
    """One served top-k answer plus its provenance and attributed cost.

    ``degrade_level`` is 0 for a full-fidelity answer; a positive
    level means admission control shrank this query's frog budget /
    iteration cut-off under backlog, and ``error_bound`` carries the
    Theorem-1 epsilon the degraded config still guarantees — accuracy
    given up under load is reported, never silently lost.

    ``degraded_shards`` is non-empty for a *partial* answer: the
    fail-soft process backend lost those shards' frog slices to a
    worker crash mid-batch and merged the survivors
    (``on_shard_failure="partial"``).  The estimate is an exact merge
    of the surviving population, and ``error_bound`` is recomputed for
    that smaller population — the same Theorem-1 widening that load
    shedding reports, triggered by a crash instead of a queue.
    """

    query: RankingQuery
    vertices: np.ndarray
    scores: np.ndarray
    cached: bool
    batch_size: int
    report: RunReport
    degrade_level: int = 0
    error_bound: float | None = None
    degraded_shards: tuple[int, ...] = ()

    @property
    def degraded(self) -> bool:
        return self.degrade_level > 0

    @property
    def partial(self) -> bool:
        """True when this answer was merged without every shard."""
        return bool(self.degraded_shards)

    @property
    def network_bytes(self) -> int:
        """Bytes attributed to this query (standalone-priced)."""
        return self.report.network_bytes

    @property
    def cpu_seconds(self) -> float:
        return self.report.cpu_seconds

    @property
    def simulated_time_s(self) -> float:
        return self.report.total_time_s


class RankingFuture:
    """Handle to a scheduled query's eventual answer.

    A future resolves exactly once.  A cache hit's future is born
    resolved: it holds its answer and no wait primitive, so ``done()``
    is True and ``result()`` returns at once (a shed query's is born
    failed the same way).  Only a future that must wait — a miss, or a
    join onto an in-flight duplicate — allocates a ``threading.Event``,
    at construction and never later, so ``done()`` and ``result()``
    stay thread-safe against the scheduler thread that resolves it.
    """

    def __init__(
        self,
        query: RankingQuery,
        *,
        answer: RankingAnswer | None = None,
        error: BaseException | None = None,
        trace: "QueryTrace | None" = None,
    ) -> None:
        self.query = query
        self._answer = answer
        self._error = error
        self._event = (
            threading.Event() if answer is None and error is None else None
        )
        #: The per-query trace following this future through the
        #: service (set when the owning service has a tracer attached).
        self.trace = trace

    def done(self) -> bool:
        return self._event is None or self._event.is_set()

    def result(self, timeout: float | None = None) -> RankingAnswer:
        """Block until the answer is ready (or ``timeout`` elapses)."""
        if self._event is not None and not self._event.wait(timeout):
            raise TimeoutError("ranking answer not ready yet")
        if self._error is not None:
            raise self._error
        return self._answer  # type: ignore[return-value]

    def _resolve(self, answer: RankingAnswer) -> None:
        self._answer = answer
        self._event.set()

    def _fail(self, error: BaseException) -> None:
        self._error = error
        self._event.set()


@dataclass
class ServiceStats:
    """Lifetime counters of one :class:`RankingService`.

    Every submitted query ends as exactly one of: served, failed, shed
    (counted by the admission controller) or still in flight.  Executed
    batch sizes live in one bounded :class:`~repro.obs.Histogram`: a
    service under sustained load runs millions of batches.
    """

    queries_submitted: int = 0
    queries_served: int = 0
    queries_failed: int = 0
    queries_coalesced: int = 0
    queries_degraded: int = 0
    queries_partial: int = 0
    batch_size: Histogram = field(default_factory=Histogram)
    frogs_launched: int = 0
    attributed_network_bytes: int = 0
    shared_network_bytes: int = 0
    simulated_time_s: float = 0.0
    # Per-shard cost partition, keyed by shard id (empty when the
    # backend is unsharded).
    shard_shared_bytes: dict[int, int] = field(default_factory=dict)
    shard_attributed_bytes: dict[int, int] = field(default_factory=dict)
    shard_cpu_seconds: dict[int, float] = field(default_factory=dict)

    @property
    def batches_run(self) -> int:
        return self.batch_size.count

    @property
    def queries_executed(self) -> int:
        """Lanes executed: the sum of every executed batch's size."""
        return self.batch_size.total

    # ``bench/`` reads the two aggregates under these names.
    batch_size_count = batches_run
    batch_size_sum = queries_executed

    def amortization_ratio(self) -> float:
        """Actual wire bytes over standalone-priced bytes (<= 1).

        Guarded for the zero-traversal case: a service that has served
        only cache hits (or nothing at all) has amortized nothing, and
        reports the neutral ratio 1.0 rather than dividing by zero.
        """
        if self.attributed_network_bytes == 0:
            return 1.0
        return self.shared_network_bytes / self.attributed_network_bytes

    def shard_breakdown(self) -> dict[int, dict[str, float]]:
        """Per-shard cost partition (empty when unsharded).

        Iterates the union of all three per-shard maps: a shard that
        accrued attributed bytes or cpu-seconds but no shared bytes
        (possible when its sub-cluster moved no wire traffic) still
        appears instead of being silently dropped.
        """
        shards = (
            set(self.shard_shared_bytes)
            | set(self.shard_attributed_bytes)
            | set(self.shard_cpu_seconds)
        )
        return {
            shard: {
                "shared_network_bytes": float(
                    self.shard_shared_bytes.get(shard, 0)
                ),
                "attributed_network_bytes": float(
                    self.shard_attributed_bytes.get(shard, 0)
                ),
                "cpu_seconds": self.shard_cpu_seconds.get(shard, 0.0),
            }
            for shard in sorted(shards)
        }


@dataclass(frozen=True)
class _CacheEntry:
    """Cached outcome of one executed query (estimate + its report).

    ``estimate`` is the lane's ``(id, count)`` records — O(num_frogs)
    bytes, never an n-vector — ranked when its batch resolves, before
    the entry is shared, and keeping that rank order, so a hit of any
    ``k`` is a prefix gather of it.  ``top_vertices``/``top_scores`` are
    that prefix for the ``k`` the lane was executed for: a hit asking
    the same ``k`` copies these two k-length arrays and ranks nothing;
    any other ``k`` gathers a prefix of the kept order.
    ``degrade_level``/``error_bound`` record whether the estimate was
    computed under an admission-degraded config, so cache re-serves of
    a degraded answer keep reporting the accuracy they actually
    guarantee.  ``degraded_shards`` marks a partial merge (shards lost
    to a crash); partial entries resolve their waiting futures but are
    never *stored* in the cache — the next ask re-executes against the
    healed pool instead of re-serving the crash.
    """

    estimate: PageRankEstimate
    report: RunReport
    batch_size: int
    k: int
    top_vertices: np.ndarray
    top_scores: np.ndarray
    degrade_level: int = 0
    error_bound: float | None = None
    degraded_shards: tuple[int, ...] = ()


class RankingService:
    """Serves personalized top-k PageRank queries over one graph.

    Parameters
    ----------
    graph:
        The served graph; ingress (partitioning + replication tables)
        is paid once inside the backend.  A
        :class:`~repro.dynamic.DynamicDiGraph` is also accepted: the
        service snapshots it for the backend and defaults the
        ``generation`` provider to the live graph's version counter, so
        churn invalidation is on by default (the served snapshot itself
        stays frozen — :class:`~repro.live.LiveRankingService` is the
        variant that refreshes the backend too).  ``None`` serves
        ``config.store``.
    config:
        The :class:`~repro.serving.ServiceConfig` holding every other
        setting (its docstring says what each one means); ``None``
        means all defaults.  Anything else — a ``FrogWildConfig``
        included — is a ``ConfigError``: the per-query default goes in
        as ``ServiceConfig(config=...)``.
    """

    def __init__(
        self,
        graph: DiGraph | None = None,
        config: ServiceConfig | None = None,
    ) -> None:
        from ..dynamic import DynamicDiGraph

        if config is None:
            config = ServiceConfig()
        if not isinstance(config, ServiceConfig):
            raise ConfigError(
                "RankingService takes a ServiceConfig (got "
                f"{type(config).__name__}); pass a FrogWildConfig as "
                "ServiceConfig(config=...)"
            )
        #: The construction settings this service was built from.
        self.service_config = config
        self.store = _checked_store(config.store)
        if graph is None and self.store is None:
            raise ConfigError("RankingService needs a graph or a store")
        if (
            graph is None
            and self.store is not None
            and not getattr(self.store, "out_of_core", False)
        ):
            # A RAM store is its own graph source; the out-of-core tier
            # resolves through the backend (which maps the spilled
            # snapshot instead of materializing one here).
            graph = self.store
        generation = config.generation
        if isinstance(graph, DynamicDiGraph):
            # Serve a snapshot of the live graph, and default churn
            # invalidation to its version counter so callers no longer
            # have to plumb generation= by hand.
            source = graph
            graph = source.snapshot()
            if generation is None:
                generation = lambda: source.version  # noqa: E731
        if graph is not None and graph.num_vertices == 0:
            raise ConfigError("cannot serve an empty graph")
        if generation is None and self.store is not None:
            # Any store carries a monotone version counter; mixing it
            # into cache keys gives churn invalidation for free.
            live_store = self.store
            generation = lambda: live_store.version  # noqa: E731
        self.default_config = config.frog_config
        backend = build_backend(config, graph)
        if graph is None:
            # Out-of-core store: adopt the backend's mapped snapshot.
            graph = getattr(backend, "graph", None)
            if graph is None:
                raise ConfigError(
                    "an explicit backend without a graph attribute "
                    "requires graph= (or a RAM store)"
                )
        self.graph = graph
        if generation is None:
            # A backend that knows its graph generation (the epoch-swap
            # proxy in repro.live) keys the cache by default.
            generation = getattr(backend, "generation", None)
        self.generation = generation
        self.backend = backend
        self._clock = config.clock or time.monotonic
        self.cache: TTLCache | None = (
            TTLCache(config.cache_capacity, config.cache_ttl_s, self._clock)
            if config.cache_capacity > 0
            else None
        )
        self.coalescer = QueryCoalescer(config.max_batch_size)
        # The scheduler calls back into the service that owns it.  Held
        # weakly, service -> scheduler -> service is no reference cycle,
        # so a dropped service releases its graph and tables at once
        # instead of whenever the cyclic collector next runs a full pass
        # (five closed services waited on it: 230 MB or 270 MB of peak
        # RSS from one run to the next).  A started loop thread pins the
        # service itself: see start().
        execute = weakref.WeakMethod(self._execute_batch)
        self.scheduler = BatchScheduler(
            lambda config, entries, start: execute()(config, entries, start),
            self.coalescer,
            max_delay_s=config.max_delay_s,
            clock=self._clock,
        )
        self.stats = ServiceStats()
        self.admission = config.admission
        self.tracer = config.tracer
        #: Calibration factor from a batch's simulated makespan to its
        #: virtual-clock service time: answers resolve that much later
        #: and the scheduler's server stays busy that long.  The cost
        #: model's absolute seconds are arbitrary units; the traffic
        #: harness sets this to place offered load relative to modeled
        #: capacity.  Leave at 1.0 outside harness runs.
        self.service_time_scale = 1.0
        # Guards the cache, the stats and the in-flight dedup table
        # against the scheduler thread; reentrant because snapshot()
        # reads stats_parts() under it.
        self._lock = threading.RLock()
        self._inflight: dict[
            Hashable, list[tuple[RankingQuery, RankingFuture]]
        ] = {}
        # Degrade provenance of still-in-flight keys: level and
        # Theorem-1 bound, threaded into the cache entry at execution
        # so re-serves keep reporting their accuracy.
        self._degrade_info: dict[Hashable, tuple[int, float]] = {}

    @classmethod
    def from_config(
        cls, graph: DiGraph | None = None, config: ServiceConfig | None = None
    ) -> "RankingService":
        """Alias of the constructor: ``cls(graph, config)``."""
        return cls(graph, config)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "RankingService":
        """Run the scheduler's dispatch loop in a background thread.

        The thread keeps the service alive until :meth:`stop`: futures
        already handed out resolve even if the caller drops the service.
        """
        self.scheduler.start(pin=self)
        return self

    def stop(self) -> None:
        """Stop the scheduler thread, flushing pending queries.

        The backend stays usable (callers may keep issuing synchronous
        queries or restart the scheduler); :meth:`close` is the full
        teardown.
        """
        self.scheduler.stop(flush=True)

    def close(self) -> None:
        """Stop the scheduler and release the backend's resources.

        For a :class:`~repro.serving.ProcessPoolBackend` (or an epoch
        proxy wrapping one) this terminates the worker processes and
        unlinks their shared-memory segments; backends without a
        ``close`` are unaffected.
        """
        self.stop()
        closer = getattr(self.backend, "close", None)
        if callable(closer):
            closer()

    def __enter__(self) -> "RankingService":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    def pump(self) -> float | None:
        """Run the dispatch rule now (virtual-clock mode); returns when
        to pump again (:meth:`BatchScheduler.pump`)."""
        return self.scheduler.pump()

    def flush(self) -> int:
        """Dispatch everything pending, deadlines notwithstanding."""
        return self.scheduler.flush()

    @property
    def clock(self) -> Callable[[], float]:
        """The injectable time source this service runs on."""
        return self._clock

    @property
    def replication(self):
        """The backend's replication tables (None when sharded)."""
        return getattr(self.backend, "replication", None)

    @property
    def num_shards(self) -> int:
        return self.backend.num_shards

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def query(
        self,
        seeds: Sequence[int] | np.ndarray | None,
        k: int = 10,
        weights: Sequence[float] | np.ndarray | None = None,
        config: FrogWildConfig | None = None,
    ) -> RankingAnswer:
        """Synchronous single-query API (a batch of one)."""
        return self.query_batch([RankingQuery(seeds, k, weights, config)])[0]

    def query_batch(
        self, queries: Sequence[RankingQuery]
    ) -> list[RankingAnswer]:
        """Serve many queries at once; answers come back in query order.

        Cache hits are answered immediately; misses are coalesced into
        config-pure batches (duplicates within the call collapse into
        one population) and executed through the backend right away —
        the synchronous path is a zero-delay schedule: submit all, then
        flush.
        """
        if not queries:
            return []
        # Validate the whole batch before touching cache or coalescer:
        # one malformed query must fail the call atomically, not abort
        # mid-drain with its batchmates' work half done.
        self._validate(queries)
        submitted: list[tuple[RankingFuture, Hashable]] = []
        try:
            for query in queries:
                submitted.append(self._submit_validated(query))
            # Flush only this call's own lanes: other callers' queued
            # partial batches keep accumulating.
            self.scheduler.flush_payloads(key for _, key in submitted)
        except BaseException as error:
            # Restore the old drain's atomic failure semantics: lanes
            # of this call still queued (e.g. after one of its batches
            # raised mid-flush) are abandoned, never left behind to
            # execute as ghost work on someone else's flush.
            abandoned = self.scheduler.discard_payloads(
                [key for _, key in submitted]
            )
            with self._lock:
                waiters = [
                    waiter
                    for entry in abandoned
                    for waiter in self._inflight.pop(entry.payload, [])
                ]
                self._fail_futures([future for _, future in waiters], error)
            raise
        return [future.result() for future, _ in submitted]

    def submit(
        self,
        seeds: Sequence[int] | np.ndarray | None,
        k: int = 10,
        weights: Sequence[float] | np.ndarray | None = None,
        config: FrogWildConfig | None = None,
    ) -> RankingFuture:
        """Schedule one query; returns a future resolved on dispatch."""
        return self.submit_query(RankingQuery(seeds, k, weights, config))

    def submit_query(self, query: RankingQuery) -> RankingFuture:
        """Schedule one normalized query through the batch scheduler.

        Cache hits resolve immediately; a miss is only enqueued, and
        leaves by the dispatch rule (a started scheduler or an explicit
        :meth:`pump` applies it) or when the service is flushed.
        """
        self._validate([query])
        future, _ = self._submit_validated(query)
        return future

    def stats_parts(self) -> dict[str, object]:
        """The named stats objects :meth:`snapshot` flattens.

        Always ``service`` and ``scheduler`` plus the ``queries_in_flight``
        gauge; ``cache``, ``admission``, the tracer's ``latency`` and
        ``queue_delay`` histograms, and a process pool's ``transport`` and
        ``supervisor`` when the service has them.
        """
        with self._lock:
            in_flight = sum(len(waiters) for waiters in self._inflight.values())
        parts: dict[str, object] = {
            "service": self.stats,
            "scheduler": self.scheduler.stats,
            "queries_in_flight": in_flight,
        }
        if self.cache is not None:
            parts["cache"] = self.cache.stats
        if self.admission is not None:
            parts["admission"] = self.admission.stats
        if self.tracer is not None:
            parts["latency"] = self.tracer.latency
            parts["queue_delay"] = self.tracer.queue_delay
        pool_parts = getattr(self.backend, "stats_parts", None)
        if pool_parts is not None:
            parts.update(pool_parts())
        return parts

    def snapshot(self) -> dict[str, float]:
        """What the service is doing right now, as one flat row.

        :func:`repro.obs.flatten` of :meth:`stats_parts`: every counter
        the service and the parts it owns keep, read in one place.
        """
        with self._lock:
            return flatten(self.stats_parts())

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _validate(self, queries: Sequence[RankingQuery]) -> None:
        num_vertices = self.graph.num_vertices
        for query in queries:
            if query.seeds is not None and max(query.seeds) >= num_vertices:
                raise ConfigError(
                    f"seed ids out of range for a {num_vertices}-vertex "
                    f"graph: {query.seeds}"
                )

    def _cache_key(self, query: RankingQuery) -> Hashable:
        """Cache identity: the query's key plus the graph generation.

        With an injected generation counter, a churned graph bumps the
        counter and every previously cached ranking silently misses —
        invalidation is exact instead of a TTL guess.
        """
        base = query.cache_key(self.default_config)
        if self.generation is None:
            return base
        return (int(self.generation()), base)

    def _attach(
        self,
        key: Hashable,
        query: RankingQuery,
        trace: "QueryTrace | None",
        now: float,
    ) -> RankingFuture | None:
        """Serve ``query`` from cache or join ``key``'s in-flight lane.

        One cache lookup.  A hit returns a future born resolved; a join
        returns a waiting future riding the lane.  Returns None when a
        new execution lane is needed.  Caller holds the service lock.
        """
        entry = None if self.cache is None else self.cache.get(key)
        if entry is not None:
            # queries_served counts *answered* queries (a failed
            # execution never inflates it), so it ticks at resolve
            # time here and in _execute_batch.
            self.stats.queries_served += 1
            if trace is not None:
                trace.status = "served"
                trace.cached = True
                trace.dispatch_s = now
                trace.resolve_s = now
                trace.batch_size = entry.batch_size
                trace.supersteps = entry.report.supersteps
                trace.frogs = entry.estimate.num_frogs
                if entry.degrade_level and not trace.degrade_level:
                    trace.degrade_level = entry.degrade_level
                    trace.error_bound = entry.error_bound
                self.tracer.complete(trace)
            return RankingFuture(
                query,
                answer=self._answer(query, entry, cached=True),
                trace=trace,
            )
        waiters = self._inflight.get(key)
        if waiters is None:
            return None
        # A duplicate of an already queued query: ride its lane.
        self.stats.queries_coalesced += 1
        if trace is not None:
            trace.coalesced = True
        future = RankingFuture(query, trace=trace)
        waiters.append((query, future))
        return future

    def _submit_validated(
        self, query: RankingQuery
    ) -> tuple[RankingFuture, Hashable]:
        """Submit one validated query; returns (future, cache key)."""
        with self._lock:
            now = self._clock()
            self.stats.queries_submitted += 1
            trace = (
                None
                if self.tracer is None
                else self.tracer.begin(query.seeds, query.k, now)
            )
            key = self._cache_key(query)
            future = self._attach(key, query, trace, now)
            if future is not None:
                return future, key
            # A new execution lane is needed — the only point admission
            # control rules on: cache hits and coalesced duplicates add
            # no cluster load and are always served.
            if self.admission is not None:
                decision = self.admission.decide(
                    self.scheduler.pending_count()
                )
                if decision.action == "shed":
                    if trace is not None:
                        trace.status = "shed"
                        trace.shed_depth = decision.depth
                        trace.resolve_s = now
                        self.tracer.complete(trace)
                    error = OverloadError(
                        f"query shed: {decision.depth} pending >= "
                        f"bound {decision.limit}",
                        depth=decision.depth,
                        limit=decision.limit,
                    )
                    return RankingFuture(query, error=error, trace=trace), key
                if decision.action == "degrade":
                    base = query.effective_config(self.default_config)
                    degraded = self.admission.degraded_config(
                        base, decision.level
                    )
                    if degraded is not base:
                        bound = self.admission.error_bound(
                            degraded, query.k, self.graph.num_vertices
                        )
                        query = replace(query, config=degraded)
                        key = self._cache_key(query)
                        self.stats.queries_degraded += 1
                        if trace is not None:
                            trace.degrade_level = decision.level
                            trace.error_bound = bound
                        # The degraded variant may itself be cached or
                        # already in flight under its own key.
                        future = self._attach(key, query, trace, now)
                        if future is not None:
                            return future, key
                        self._degrade_info[key] = (decision.level, bound)
            future = RankingFuture(query, trace=trace)
            self._inflight[key] = [(query, future)]
            # Enqueue under the same lock that registered the in-flight
            # entry: a concurrent duplicate's flush must find either
            # the queued entry or a dispatch already in progress, never
            # a gap it would block on forever.
            self.scheduler.enqueue(query, self.default_config, payload=key)
        return future, key

    def _execute_batch(
        self,
        config: FrogWildConfig,
        entries: list[PendingQuery],
        start: float,
    ) -> float | None:
        """Scheduler dispatch target: run one config-pure batch.

        ``start`` is the instant the batch starts on the scheduler's
        server; its traces are dispatched then.  Returns the batch's
        virtual service time under a :class:`VirtualClock` (its traces
        resolve at ``start`` plus that), else ``None`` (the call took
        it)."""
        queries = [entry.query for entry in entries]
        resolved: list[tuple[RankingQuery, RankingFuture, _CacheEntry]] = []
        try:
            outcome = self.backend.run_batch(config, queries)
            if len(outcome.lanes) != len(queries):
                raise EngineError(
                    f"backend answered {len(outcome.lanes)} lanes for "
                    f"{len(queries)} queries; the ExecutionBackend "
                    "contract requires lanes[i] to answer queries[i]"
                )
            # Under a virtual clock the batch's simulated makespan IS
            # its service time: answers resolve that much later, so
            # traced latencies are simulated-cluster latencies.
            service_time = (
                outcome.simulated_time_s * self.service_time_scale
                if isinstance(self._clock, VirtualClock)
                else None
            )
            degraded_shards = tuple(
                getattr(outcome, "degraded_shards", ()) or ()
            )
            # Each lane is ranked once, for the k it was executed for,
            # outside the lock and before its cache entry is shared: the
            # estimate keeps the rank order, the entry that answer.
            tops = [
                lane.estimate.top_k_with_scores(query.k)
                for query, lane in zip(queries, outcome.lanes)
            ]
            with self._lock:
                self._record_outcome(outcome, len(entries))
                for entry, lane, (top_vertices, top_scores) in zip(
                    entries, outcome.lanes, tops
                ):
                    info = self._degrade_info.pop(entry.payload, None)
                    top_vertices.flags.writeable = False
                    top_scores.flags.writeable = False
                    cached = _CacheEntry(
                        estimate=lane.estimate,
                        report=lane.report,
                        batch_size=len(entries),
                        k=entry.query.k,
                        top_vertices=top_vertices,
                        top_scores=top_scores,
                        degrade_level=0 if info is None else info[0],
                        error_bound=None if info is None else info[1],
                        degraded_shards=degraded_shards,
                    )
                    self.stats.frogs_launched += lane.estimate.num_frogs
                    self.stats.attributed_network_bytes += (
                        lane.report.network_bytes
                    )
                    if self.cache is not None and not degraded_shards:
                        # Partial answers resolve their waiters but are
                        # never cached: the next ask of the same key
                        # re-executes against the healed pool.
                        self.cache.put(entry.payload, cached)
                    for query, future in self._inflight.pop(
                        entry.payload, []
                    ):
                        resolved.append((query, future, cached))
                if degraded_shards:
                    self.stats.queries_partial += len(entries)
                # Counted as they leave the in-flight table, so a
                # snapshot never sees a query in neither place.
                self.stats.queries_served += len(resolved)
        except BaseException as error:
            # Fail every future this batch owes an answer to — both
            # the keys not yet popped from the in-flight table and any
            # popped-but-unresolved waiters — so nothing ever hangs on
            # a dead lane and the dedup table never poisons.
            with self._lock:
                waiters = [
                    (query, future)
                    for entry in entries
                    for query, future in self._inflight.pop(
                        entry.payload, []
                    )
                ]
                for entry in entries:
                    self._degrade_info.pop(entry.payload, None)
                self._fail_futures(
                    [future for _, future, _ in resolved]
                    + [future for _, future in waiters],
                    error,
                )
            raise
        for query, future, cached in resolved:
            trace = future.trace
            if self.tracer is not None and trace is not None:
                trace.status = "served"
                trace.dispatch_s = start
                trace.resolve_s = (
                    self._clock()
                    if service_time is None
                    else start + service_time
                )
                trace.batch_size = cached.batch_size
                trace.supersteps = cached.report.supersteps
                trace.frogs = cached.estimate.num_frogs
                if cached.degrade_level and not trace.degrade_level:
                    trace.degrade_level = cached.degrade_level
                    trace.error_bound = cached.error_bound
                self.tracer.complete(trace)
            future._resolve(self._answer(query, cached, cached=False))
        return service_time

    def _fail_futures(
        self, futures: list[RankingFuture], error: BaseException
    ) -> None:
        """Fail futures this service owed an answer; counts each once.

        Caller holds the service lock, under which it took the futures
        out of the in-flight table.
        """
        now = self._clock()
        self.stats.queries_failed += len(futures)
        for future in futures:
            trace = future.trace
            if self.tracer is not None and trace is not None:
                trace.status = "failed"
                trace.resolve_s = now
                self.tracer.complete(trace)
            future._fail(error)

    def _record_outcome(self, outcome: BatchOutcome, batch_size: int) -> None:
        stats = self.stats
        stats.batch_size.add(batch_size)
        stats.shared_network_bytes += outcome.shared_network_bytes
        stats.simulated_time_s += outcome.simulated_time_s
        for cost in outcome.shards:
            stats.shard_shared_bytes[cost.shard] = (
                stats.shard_shared_bytes.get(cost.shard, 0)
                + cost.shared_network_bytes
            )
            stats.shard_attributed_bytes[cost.shard] = (
                stats.shard_attributed_bytes.get(cost.shard, 0)
                + cost.attributed_network_bytes
            )
            stats.shard_cpu_seconds[cost.shard] = (
                stats.shard_cpu_seconds.get(cost.shard, 0.0)
                + cost.cpu_seconds
            )

    def _answer(
        self, query: RankingQuery, entry: _CacheEntry, cached: bool
    ) -> RankingAnswer:
        if query.k == entry.k:
            vertices = entry.top_vertices.copy()
            scores = entry.top_scores.copy()
        else:
            vertices, scores = entry.estimate.top_k_with_scores(query.k)
        error_bound = entry.error_bound
        if entry.degrade_level and self.admission is not None:
            # Recompute for *this* query's k: the cached bound was
            # computed for the executing query's k, and the sampling
            # term of Theorem 1 scales with sqrt(k).
            error_bound = self.admission.error_bound(
                query.effective_config(self.default_config),
                query.k,
                self.graph.num_vertices,
            )
        if entry.degraded_shards:
            # Partial merge: the bound must describe the population
            # that actually ran, which the merged estimate's num_frogs
            # records exactly.  Same machinery as admission's degraded
            # bound — only the frog count differs.
            delta = self.admission.delta if self.admission else 0.1
            pi_max = self.admission.pi_max if self.admission else 0.01
            error_bound = config_error_bound(
                query.effective_config(self.default_config),
                query.k,
                self.graph.num_vertices,
                delta=delta,
                pi_max=pi_max,
                num_frogs=max(1, entry.estimate.num_frogs),
            )
        return RankingAnswer(
            query=query,
            vertices=vertices,
            scores=scores,
            cached=cached,
            batch_size=entry.batch_size,
            report=entry.report,
            degrade_level=entry.degrade_level,
            error_bound=error_bound,
            degraded_shards=entry.degraded_shards,
        )
