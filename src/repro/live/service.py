"""The live ranking service: serve a churning graph, refresh in place.

:class:`LiveRankingService` is a :class:`~repro.serving.RankingService`
whose backend follows the graph.  It owns three live-layer pieces:

* a :class:`~repro.dynamic.DynamicDiGraph` **source** — the mutable
  edge set churn is applied to;
* one :class:`~repro.live.IncrementalIngress` per (sub-)cluster —
  stable-hash placements, so an edge that survives churn keeps its
  machine and a refresh ships only the edges that changed;
* an :class:`~repro.live.EpochManager` — the atomically swappable
  backend proxy, whose current epoch id doubles as the service's cache
  generation so stale top-k entries invalidate exactly on refresh.

:meth:`LiveRankingService.refresh` is the whole lifecycle: apply the
delta (if given), reconcile placements, snapshot, rebuild the
replication tables, build the backend on them, publish the next
epoch.  In-flight batches finish on the epoch they pinned; queries
queued in the scheduler dispatch on whichever epoch is current when
their batch leaves.  It is the only way an epoch is built: several
deltas share one build when they are applied to ``source`` before a
bare ``refresh()``, and a caller that wants the build off its ingest
thread calls ``refresh`` from a thread of its own (concurrent callers
serialize on one lock).

A refresh has two costs.  The *placement* — the machine assignment
whose (re)shipment is the ingress wire cost a real deployment pays per
refresh — is reported as ``new_placements`` by
:class:`~repro.live.IncrementalIngress`.  Each machine's local index —
the grouped-adjacency :class:`~repro.cluster.ReplicationTable` — is
rebuilt from the snapshot by :class:`~repro.live.IncrementalReplication`
on every refresh: the table is a function of the snapshot, so there is
no per-shard state for a failed or skipped refresh to leave behind.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Iterable

from ..core import FrogWildConfig
from ..dynamic import ChurnGenerator, DynamicDiGraph, GraphDelta
from ..errors import ConfigError
from ..graph import DiGraph
from ..obs import Histogram
from ..serving import (
    ExecutionBackend,
    PoolEpoch,
    RankingService,
    ServiceConfig,
)
from ..serving.backend import build_backend, shard_layout
from .epoch import Epoch, EpochManager, retire_backend
from .ingress import IncrementalIngress, IncrementalReplication, IngressUpdate

__all__ = ["RefreshUpdate", "RefreshTotals", "LiveRankingService"]


@dataclass(frozen=True)
class RefreshUpdate:
    """Record of one refresh: churn applied, ingress reused, epoch out.

    ``vertices_patched``/``edges_regrouped``/``table_rebuilds`` are the
    replication-table cost (summed over shards): how many vertices had
    their replica/master/grouping structures built, how many edges
    were grouped to do it, and how many shard tables were built from
    scratch — every refresh rebuilds every shard's scatter grouping
    (never the gather one), so they read ``n``, ``m`` and 1 per shard.
    ``build_time_s`` covers apply → reconcile → snapshot → table build →
    backend build; ``publish_s`` is the atomic swap — the only part
    the query path ever waits on — plus, under process execution,
    retiring the superseded epoch when no batch is pinned to it.
    """

    epoch: int
    sequence: int
    num_edges: int
    edges_added: int
    edges_removed: int
    new_placements: int
    reused_placements: int
    reuse_ratio: float
    load_imbalance: float
    full_repartitions: int
    in_flight_batches: int
    refresh_time_s: float
    vertices_patched: int = 0
    edges_regrouped: int = 0
    table_rebuilds: int = 0
    build_time_s: float = 0.0
    publish_s: float = 0.0


@dataclass
class RefreshTotals:
    """Running sums over every :class:`RefreshUpdate` a service made.

    Each refresh publishes one epoch, so ``epochs_published - 1`` in the
    service's snapshot counts them, as does ``build_s.count``.
    """

    edges_added: int = 0
    edges_removed: int = 0
    vertices_patched: int = 0
    edges_regrouped: int = 0
    table_rebuilds: int = 0
    #: Seconds per build, and per publish: the swap, the only part the
    #: query path is exposed to.
    build_s: Histogram = field(default_factory=Histogram)
    publish_s: Histogram = field(default_factory=Histogram)

    def add(self, update: RefreshUpdate) -> None:
        self.edges_added += update.edges_added
        self.edges_removed += update.edges_removed
        self.vertices_patched += update.vertices_patched
        self.edges_regrouped += update.edges_regrouped
        self.table_rebuilds += update.table_rebuilds
        self.build_s.add(update.build_time_s)
        self.publish_s.add(update.publish_s)


#: ServiceConfig fields the live service does not forward: it sets its
#: layout, store and generation itself, and offers no traffic hooks.
_NOT_FORWARDED = frozenset(
    {"backend", "partitioner", "store", "generation", "admission", "tracer"}
)


class LiveRankingService(RankingService):
    """Serves personalized top-k over a graph that keeps changing.

    ``config`` is the default :class:`~repro.core.FrogWildConfig`, and
    every keyword not listed below is a
    :class:`~repro.serving.ServiceConfig` field with its meaning and
    default there.  ``backend``, ``partitioner``, ``store`` and
    ``generation`` are set here — stable-hash ingress, one
    :class:`IncrementalIngress` per shard (the layout
    :func:`~repro.serving.backend.shard_layout` gives), the current
    epoch id as the cache generation — and ``admission``/``tracer``
    are not offered; passing any of them is a ``ConfigError``.  The
    live-specific parameters:

    graph:
        A :class:`~repro.dynamic.DynamicDiGraph` (or a static
        :class:`~repro.graph.DiGraph`, which is wrapped).  The service
        applies deltas to it through :meth:`refresh` / :meth:`attach`.
    store:
        Mutually exclusive with ``graph``: serve a live
        :class:`~repro.store.GraphStore` as the churn source instead.
        With a :class:`~repro.store.SegmentStore` the base edge set
        stays on disk, deltas land in its in-RAM delta layer, every
        ingress reconciles through the store's key reads, and the
        refresh folds the delta layer back into segment files whenever
        it reaches ``compact_threshold`` keys — periodic compaction on
        the refresh path, never on a query path.  Scope note: the
        *served* epoch structures (snapshot + replication tables) stay
        in RAM — the live tier trades residency for refreshability;
        fully out-of-core serving is the static
        ``RankingService(None, ServiceConfig(store=...))`` path.
    compact_threshold:
        Delta-layer size (in keys) at which a refresh compacts the
        store; only meaningful with a compactable ``store``.
    rebalance_threshold:
        Per-ingress load-imbalance bound beyond which a refresh falls
        back to a full re-salted repartition (``None`` disables).
    execution:
        ``"simulated"`` (default) builds a fresh in-process
        Local/Sharded backend per epoch; ``"process"`` builds one
        :class:`~repro.serving.ProcessPoolBackend` at construction and
        *remaps* it on every refresh — each publish exports the rebuilt
        tables into fresh epoch-tagged shared-memory arenas and every
        worker process attaches them; the previous epoch's arenas are
        retired once the last batch pinned to it has finished, so a
        batch runs on the epoch it pinned.  Use :meth:`close` to tear
        the workers down.  Under ``on_shard_failure="partial"`` a batch
        that loses a worker mid-flight still answers from the surviving
        shards, and the supervisor respawns the worker against every
        attached epoch's arenas.
    """

    def __init__(
        self,
        graph: DynamicDiGraph | DiGraph | None = None,
        config: FrogWildConfig | None = None,
        store=None,
        compact_threshold: int = 4096,
        rebalance_threshold: float | None = 2.0,
        execution: str = "simulated",
        **settings,
    ) -> None:
        if execution not in ("simulated", "process"):
            raise ConfigError(
                f"unknown execution mode {execution!r}: expected "
                "'simulated' or 'process'"
            )
        refused = sorted(_NOT_FORWARDED & set(settings))
        if refused:
            raise ConfigError(
                f"LiveRankingService does not take {', '.join(refused)}"
            )
        # What every epoch's backend is built from.
        self._epoch_config = ServiceConfig(
            config=config,
            partitioner="stable-hash",
            backend="process" if execution == "process" else None,
            **settings,
        )
        self.compact_threshold = compact_threshold
        self.compactions = 0
        if store is not None:
            from ..store import as_graph_store

            if graph is not None:
                raise ConfigError(
                    "pass either graph= or store=, not both: the live "
                    "source must be a single mutable edge set"
                )
            # The store IS the churn source: deltas apply to it, every
            # ingress reconciles through its key reads, snapshots
            # freeze its merged view.
            graph = as_graph_store(store)
        elif graph is None:
            raise ConfigError("LiveRankingService needs a graph or a store")
        self.live_store = store
        if isinstance(graph, DiGraph):
            graph = DynamicDiGraph.from_digraph(graph)
        self.source = graph
        self.execution = execution
        self._process_backend = None
        self.rebalance_threshold = rebalance_threshold
        #: Running totals over every refresh, and the latest record
        #: (each refresh returns its own; none is kept).
        self.refreshes = RefreshTotals()
        self.last_refresh: RefreshUpdate | None = None
        # Serializes the whole refresh (graph mutation, ingress
        # reconcile, snapshot, table build, publish) between concurrent
        # refresh() callers.  The query path never takes it.
        self._refresh_lock = threading.Lock()
        self.replicators: list[IncrementalReplication] | None = None
        machines, ingress_seeds = shard_layout(self._epoch_config)
        self.ingresses = [
            IncrementalIngress(
                graph,
                machines,
                seed=ingress_seed,
                rebalance_threshold=rebalance_threshold,
            )
            for ingress_seed in ingress_seeds
        ]

        snapshot = graph.snapshot()
        self.epochs = EpochManager(
            Epoch(
                epoch_id=graph.version,
                sequence=0,
                graph=snapshot,
                backend=self._build_backend(snapshot),
            )
        )
        # generation defaults to self.epochs.generation (the current
        # epoch id) via the backend hook, so cached rankings invalidate
        # exactly when refresh() publishes.
        super().__init__(
            snapshot, replace(self._epoch_config, backend=self.epochs)
        )

    # ------------------------------------------------------------------
    @property
    def current_epoch(self) -> Epoch:
        return self.epochs.current

    def _build_backend(self, snapshot: DiGraph) -> ExecutionBackend:
        """One epoch's execution backend over ``snapshot``'s tables.

        Every call builds the per-shard replication tables from
        ``snapshot`` (:class:`IncrementalReplication`).  Simulated
        execution builds a backend on them; process execution builds
        its pool once and then attaches every later epoch to it: the
        pool exports the tables to its workers under the next epoch tag
        (graph versions may repeat on a no-op refresh, so the pool
        counts its own epochs).  Each epoch's backend is then a
        :class:`~repro.serving.PoolEpoch`, which runs batches on that
        epoch's arenas until the epoch manager retires it.
        """
        if self.replicators is None:
            self.replicators = [
                IncrementalReplication(
                    ingress, snapshot, seed=self._epoch_config.seed
                )
                for ingress in self.ingresses
            ]
        else:
            for replicator in self.replicators:
                replicator.refresh(snapshot)
        tables = [replicator.table for replicator in self.replicators]
        if self._process_backend is not None:
            return self._process_backend.attach_epoch(snapshot, tables)
        backend = build_backend(self._epoch_config, snapshot, tables)
        if self.execution == "process":
            self._process_backend = backend
            return PoolEpoch(backend)
        return backend

    # ------------------------------------------------------------------
    def refresh(self, delta: GraphDelta | None = None) -> RefreshUpdate:
        """Apply churn (optional), reconcile ingress, publish an epoch.

        With ``delta=None`` the source graph is assumed to have been
        churned externally (e.g. by
        :meth:`~repro.dynamic.ChurnGenerator.stream` with ``apply=True``,
        or several deltas applied to :attr:`source` so that one build
        covers them all) and the refresh just reconciles and
        republishes.  Everything up to and including the backend build
        happens before the current epoch is touched — the next epoch is
        double-buffered — and the publish at the end is the atomic swap
        (plus the previous epoch's retirement when no batch is pinned to
        it).  Synchronous: the epoch is published when this returns;
        concurrent callers serialize.
        """
        with self._refresh_lock:
            start = time.perf_counter()
            edges_added = edges_removed = 0
            if delta is not None:
                edges_added, edges_removed = self.source.apply(delta)
            updates = [ingress.sync() for ingress in self.ingresses]
            snapshot = self.source.snapshot()
            backend = self._build_backend(snapshot)
            try:
                maybe_compact = getattr(self.source, "maybe_compact", None)
                if maybe_compact is not None:
                    # Fold the store's delta layer back into segment
                    # files here, on the refresh path — never on a query
                    # path.  The snapshot above already froze the merged
                    # view, so compaction is invisible to the epoch
                    # being published.
                    if maybe_compact(self.compact_threshold) is not None:
                        self.compactions += 1
                build_time = time.perf_counter() - start
                previous = self.epochs.current
                in_flight = self.scheduler.active_dispatches
                publish_start = time.perf_counter()
                self.epochs.publish(
                    Epoch(
                        epoch_id=self.source.version,
                        sequence=previous.sequence + 1,
                        graph=snapshot,
                        backend=backend,
                    )
                )
            except BaseException:
                # Never published, so no batch pinned it.
                retire_backend(backend)
                raise
            publish_s = time.perf_counter() - publish_start
            self.graph = snapshot
            update = self._summarize(
                updates,
                edges_added=edges_added,
                edges_removed=edges_removed,
                in_flight=in_flight,
                elapsed=time.perf_counter() - start,
                build_time_s=build_time,
                publish_s=publish_s,
            )
            self.refreshes.add(update)
            self.last_refresh = update
            return update

    def _summarize(
        self,
        updates: list[IngressUpdate],
        edges_added: int,
        edges_removed: int,
        in_flight: int,
        elapsed: float,
        build_time_s: float,
        publish_s: float,
    ) -> RefreshUpdate:
        placed = sum(
            u.reused_placements + u.new_placements for u in updates
        )
        reused = sum(u.reused_placements for u in updates)
        shards = len(self.replicators)
        epoch = self.epochs.current
        return RefreshUpdate(
            epoch=epoch.epoch_id,
            sequence=epoch.sequence,
            num_edges=self.source.num_edges,
            edges_added=edges_added,
            edges_removed=edges_removed,
            new_placements=sum(u.new_placements for u in updates),
            reused_placements=reused,
            reuse_ratio=reused / placed if placed else 1.0,
            load_imbalance=max(u.load_imbalance for u in updates),
            full_repartitions=sum(u.full_repartition for u in updates),
            in_flight_batches=in_flight,
            refresh_time_s=elapsed,
            vertices_patched=shards * epoch.graph.num_vertices,
            edges_regrouped=shards * epoch.graph.num_edges,
            table_rebuilds=shards,
            build_time_s=build_time_s,
            publish_s=publish_s,
        )

    def attach(
        self,
        churn: ChurnGenerator | Iterable[GraphDelta],
        ticks: int | None = None,
    ) -> list[RefreshUpdate]:
        """Drive churn through the service: one refresh per delta.

        ``churn`` is either a :class:`~repro.dynamic.ChurnGenerator`
        (requires ``ticks``) or any iterable of deltas (``ticks``
        optionally truncates it).
        """
        if isinstance(churn, ChurnGenerator):
            if ticks is None:
                raise ConfigError(
                    "attach(ChurnGenerator) needs an explicit tick count"
                )
            deltas: Iterable[GraphDelta] = (
                churn.step(self.source) for _ in range(ticks)
            )
        else:
            deltas = churn
        if ticks is not None:
            # islice never over-pulls: a generator with apply-on-step
            # side effects must not produce a delta that is then
            # silently dropped unrefreshed.
            deltas = itertools.islice(deltas, ticks)
        return [self.refresh(delta) for delta in deltas]

    # ------------------------------------------------------------------
    def stats_parts(self) -> dict[str, object]:
        """The static service's parts plus the live layer's.

        ``epochs`` (the current epoch and publish counts),
        ``source_edges``, ``refresh`` (:class:`RefreshTotals`, with
        the build and publish histograms),
        ``ingress`` (placement totals over every shard's ingress); with
        a ``store``, its scan counters (``store``),
        ``store_compactions`` and ``store_pending_delta``; under
        ``execution="process"``, the pool's ``transport`` and
        ``supervisor``.
        """
        parts = super().stats_parts()
        epoch = self.epochs.current
        parts["epochs"] = {
            "current": epoch.epoch_id,
            "published": self.epochs.epochs_published,
            "publishes_mid_flight": self.epochs.publishes_mid_flight,
            "served_edges": epoch.num_edges,
        }
        parts["source_edges"] = self.source.num_edges
        parts["refresh"] = self.refreshes
        parts["ingress"] = {
            "new_placements": sum(i.new_placements for i in self.ingresses),
            "reused_placements": sum(
                i.reused_placements for i in self.ingresses
            ),
            "full_repartitions": sum(
                i.full_repartitions for i in self.ingresses
            ),
        }
        if self.live_store is not None:
            scan_stats = getattr(self.source, "scan_stats", None)
            if scan_stats is not None:
                parts["store"] = scan_stats
            parts["store_compactions"] = self.compactions
            parts["store_pending_delta"] = getattr(
                self.source, "pending_delta", 0
            )
        if self._process_backend is not None:
            parts.update(self._process_backend.stats_parts())
        return parts
