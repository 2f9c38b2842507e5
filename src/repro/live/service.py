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
their batch leaves.

A refresh has two costs.  The *placement* — the machine assignment
whose (re)shipment is the ingress wire cost a real deployment pays per
refresh — is reported as ``new_placements`` by
:class:`~repro.live.IncrementalIngress`.  Each machine's local index —
the grouped-adjacency :class:`~repro.cluster.ReplicationTable` — is
rebuilt from the snapshot by :class:`~repro.live.IncrementalReplication`
on every refresh: the table is a function of the snapshot, so there is
no per-shard state for a failed or skipped refresh to leave behind.

The pipeline itself can leave the caller's thread entirely:
:meth:`LiveRankingService.refresh_async` hands the delta to a
:class:`~repro.live.BackgroundRefresher`, which double-buffers the next
epoch on a worker thread and coalesces deltas that arrive faster than
builds complete; the query path pays only the atomic epoch swap.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, replace
from typing import Callable, Iterable

from ..core import FrogWildConfig, RefreshPolicy
from ..dynamic import ChurnGenerator, DynamicDiGraph, GraphDelta
from ..errors import ConfigError
from ..graph import DiGraph
from ..serving import ExecutionBackend, RankingService, ServiceConfig
from ..serving.backend import build_backend, shard_layout
from .epoch import Epoch, EpochManager
from .ingress import IncrementalIngress, IncrementalReplication, IngressUpdate
from .refresh import BackgroundRefresher, RefreshTicket

__all__ = ["RefreshUpdate", "LiveRankingService"]


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
    backend build; ``publish_s`` is the atomic swap alone — the only
    part the query path ever waits on.  ``coalesced_deltas`` counts the
    submitted deltas this epoch covered (> 1 when a background build
    absorbed a backlog); ``background`` says which pipeline ran it.
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
    coalesced_deltas: int = 1
    background: bool = False


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
        refresh pipeline folds the delta layer back into segment files
        whenever it reaches ``compact_threshold`` keys — periodic
        compaction driven off the query path (the
        :class:`~repro.live.BackgroundRefresher` runs it on its worker
        thread under ``refresh_async``).  Scope note: the *served*
        epoch structures (snapshot + replication tables) stay in RAM —
        the live tier trades residency for refreshability; fully
        out-of-core serving is the static
        ``RankingService(None, ServiceConfig(store=...))`` path.
    compact_threshold:
        Delta-layer size (in keys) at which a refresh compacts the
        store; only meaningful with a compactable ``store``.
    rebalance_threshold:
        Per-ingress load-imbalance bound beyond which a refresh falls
        back to a full re-salted repartition (``None`` disables).
    refresh_policy:
        :class:`~repro.core.RefreshPolicy` governing background
        coalescing and queue backpressure.
    execution:
        ``"simulated"`` (default) builds a fresh in-process
        Local/Sharded backend per epoch; ``"process"`` builds one
        :class:`~repro.serving.ProcessPoolBackend` at construction and
        *remaps* it on every refresh — each publish exports the rebuilt
        tables into fresh epoch-tagged shared-memory arenas, every
        worker process attaches them, and only then is the previous
        epoch's memory retired.  Use :meth:`close` to tear the workers
        down.  Under ``on_shard_failure="partial"`` a batch that loses
        a worker mid-flight still answers from the surviving shards,
        and the supervisor respawns the worker against the *current*
        epoch's arenas.
    """

    def __init__(
        self,
        graph: DynamicDiGraph | DiGraph | None = None,
        config: FrogWildConfig | None = None,
        store=None,
        compact_threshold: int = 4096,
        rebalance_threshold: float | None = 2.0,
        refresh_policy: RefreshPolicy | None = None,
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
        self.refresh_policy = refresh_policy or RefreshPolicy()
        self.refresh_history: list[RefreshUpdate] = []
        # Serializes the whole build pipeline (graph mutation, ingress
        # reconcile, snapshot, table build, publish) between synchronous
        # refresh() callers and the background refresher's worker.  The
        # query path never takes it.
        self._refresh_lock = threading.Lock()
        self.refresher: BackgroundRefresher | None = None
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
        its pool once and then remaps it: the pool exports the tables
        to its workers under the next epoch tag (graph versions may
        repeat on a no-op refresh, so the pool counts its own epochs).
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
            return self._process_backend.refresh(snapshot, tables)
        backend = build_backend(self._epoch_config, snapshot, tables)
        if self.execution == "process":
            self._process_backend = backend
        return backend

    # ------------------------------------------------------------------
    def refresh(self, delta: GraphDelta | None = None) -> RefreshUpdate:
        """Apply churn (optional), reconcile ingress, publish an epoch.

        With ``delta=None`` the source graph is assumed to have been
        churned externally (e.g. by
        :meth:`~repro.dynamic.ChurnGenerator.stream` with ``apply=True``)
        and the refresh just reconciles and republishes.  Synchronous:
        the epoch is published when this returns.  See
        :meth:`refresh_async` for the off-thread variant.
        """
        return self._refresh_pipeline(
            [] if delta is None else [delta], background=False, coalesced=1
        )

    def _refresh_pipeline(
        self,
        deltas: list[GraphDelta],
        background: bool,
        coalesced: int,
        on_built: Callable[["LiveRankingService"], None] | None = None,
    ) -> RefreshUpdate:
        """The full refresh: apply → reconcile → rebuild → publish.

        One build may cover several deltas (background coalescing); the
        published epoch reflects all of them.  Everything up to and
        including the backend build happens before the current epoch is
        touched — the next epoch is double-buffered — and the publish at
        the end is nothing but the atomic swap.
        """
        with self._refresh_lock:
            start = time.perf_counter()
            edges_added = edges_removed = 0
            for delta in deltas:
                added, removed = self.source.apply(delta)
                edges_added += added
                edges_removed += removed
            updates = [ingress.sync() for ingress in self.ingresses]
            snapshot = self.source.snapshot()
            backend = self._build_backend(snapshot)
            maybe_compact = getattr(self.source, "maybe_compact", None)
            if maybe_compact is not None:
                # Fold the store's delta layer back into segment files
                # here, on the refresh path (the background worker's
                # thread under refresh_async) — never on a query path.
                # The snapshot above already froze the merged view, so
                # compaction is invisible to the epoch being published.
                if maybe_compact(self.compact_threshold) is not None:
                    self.compactions += 1
            build_time = time.perf_counter() - start
            if on_built is not None:
                on_built(self)
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
                coalesced=coalesced,
                background=background,
            )
            self.refresh_history.append(update)
            return update

    def _summarize(
        self,
        updates: list[IngressUpdate],
        edges_added: int,
        edges_removed: int,
        in_flight: int,
        elapsed: float,
        build_time_s: float = 0.0,
        publish_s: float = 0.0,
        coalesced: int = 1,
        background: bool = False,
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
            coalesced_deltas=coalesced,
            background=background,
        )

    # ------------------------------------------------------------------
    # Background refresh
    # ------------------------------------------------------------------
    def start_refresher(
        self,
        on_built: Callable[["LiveRankingService"], None] | None = None,
        thread: bool = True,
    ) -> BackgroundRefresher:
        """Create (and by default start) the background refresh worker.

        ``thread=False`` creates the refresher without a worker — the
        deterministic mode: submit via :meth:`refresh_async`, then drive
        builds explicitly with
        :meth:`~repro.live.BackgroundRefresher.run_pending`.
        """
        # Lazy init under the refresh lock: concurrent first callers
        # (multi-producer ingest) must agree on one refresher, or an
        # orphaned worker thread would escape stop()'s drain.
        with self._refresh_lock:
            if self.refresher is None:
                self.refresher = BackgroundRefresher(self, on_built=on_built)
            elif on_built is not None:
                self.refresher.on_built = on_built
            refresher = self.refresher
        if thread:
            refresher.start()
        return refresher

    def refresh_async(self, delta: GraphDelta | None = None) -> RefreshTicket:
        """Queue a delta for an off-query-path epoch build.

        Returns immediately with a :class:`~repro.live.RefreshTicket`
        that resolves to the covering :class:`RefreshUpdate` once the
        epoch is published.  Starts the worker thread on first use
        unless a refresher was already created (e.g. the deterministic
        ``start_refresher(thread=False)`` mode).  Deltas submitted
        faster than builds complete are coalesced into one epoch
        (``refresh_policy.coalesce``).
        """
        if self.refresher is None:
            self.start_refresher()
        return self.refresher.submit(delta)

    def attach(
        self,
        churn: ChurnGenerator | Iterable[GraphDelta],
        ticks: int | None = None,
        background: bool = False,
    ) -> list[RefreshUpdate] | list[RefreshTicket]:
        """Drive churn through the service: one refresh per delta.

        ``churn`` is either a :class:`~repro.dynamic.ChurnGenerator`
        (requires ``ticks``) or any iterable of deltas (``ticks``
        optionally truncates it).  With ``background=True`` every delta
        is submitted through :meth:`refresh_async` instead of built
        inline: the return value is one ticket per delta (tickets of
        coalesced deltas resolve to the same update), and the caller
        decides when to wait.
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
        if background:
            return [self.refresh_async(delta) for delta in deltas]
        return [self.refresh(delta) for delta in deltas]

    def stop(self) -> None:
        """Stop the refresher worker (draining it) and the scheduler."""
        if self.refresher is not None:
            self.refresher.stop(flush=True)
        super().stop()

    # ------------------------------------------------------------------
    def live_stats(self) -> dict[str, float]:
        """Live-layer counters alongside the base service stats."""
        stats = {
            "epoch": float(self.epochs.current.epoch_id),
            "epochs_published": float(self.epochs.epochs_published),
            "publishes_mid_flight": float(self.epochs.publishes_mid_flight),
            "refreshes": float(len(self.refresh_history)),
            "lifetime_reuse_ratio": (
                sum(i.lifetime_reuse_ratio() for i in self.ingresses)
                / len(self.ingresses)
            ),
            "full_repartitions": float(
                sum(i.full_repartitions for i in self.ingresses)
            ),
            "table_rebuilds": float(
                sum(u.table_rebuilds for u in self.refresh_history)
            ),
            "vertices_patched": float(
                sum(u.vertices_patched for u in self.refresh_history)
            ),
            "served_edges": float(self.epochs.current.num_edges),
            "source_edges": float(self.source.num_edges),
        }
        if self.live_store is not None:
            stats["store_compactions"] = float(self.compactions)
            stats["store_pending_delta"] = float(
                getattr(self.source, "pending_delta", 0)
            )
        if self.refresher is not None:
            for key, value in self.refresher.stats.as_dict().items():
                stats[f"refresher_{key}"] = value
        return stats
