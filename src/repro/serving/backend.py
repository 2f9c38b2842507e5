"""Execution backends: where a drained batch of ranking queries runs.

The serving layer is split at an :class:`ExecutionBackend` seam: the
:class:`~repro.serving.RankingService` owns caching, coalescing and
scheduling, while a backend owns *cluster layout* — how a config-pure
batch of queries turns into traversals of the partitioned graph.

One class runs every layout, :class:`ShardedBackend`: the fleet is
split into ``num_shards`` sub-clusters, each holding its own
partitioned ingress of the graph (built once).  Because frogs are
independent walkers, the shardable unit is the *population*: each
query's frog budget is split across shards, every shard runs its slice
of every population in one batched traversal (:func:`_run_slice`), and
the per-shard counters and cost ledgers merge by exact summation
(:func:`~repro.core.batched.merge_shard_results`), so the billed bytes
partition exactly across shards.  A single cluster is the one-shard
case — the whole fleet under the base seed (:func:`_shard_seed`) — so
:class:`LocalBackend` is ``ShardedBackend(num_shards=1)`` bit for bit,
and :class:`~repro.serving.ProcessPoolBackend` runs the same slice in
one OS process per shard.

Every backend has the same contract, so the service, the scheduler,
the CLI and the benchmarks are layout-agnostic; the live layer's
:class:`repro.live.EpochManager` is an atomically swappable backend
*proxy* that replaces the layout between batches.  Every backend runs
the numpy passes of :mod:`repro.core.kernels`; ``kernel=`` stays for
caller compatibility, its only value is ``"fused"``, and any other
name is a :class:`~repro.errors.ConfigError` at construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol, Sequence, runtime_checkable

from ..cluster import (
    CostModel,
    MessageSizeModel,
    ReplicationTable,
    make_partitioner,
)
from ..core import (
    BatchQuery,
    FrogWildConfig,
    PageRankEstimate,
    merge_shard_results,
    resolve_kernel,
    run_frogwild_batch,
)
from ..engine import RunReport, build_cluster
from ..errors import ConfigError
from ..graph import DiGraph
from .batching import RankingQuery

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a cycle
    from .config import ServiceConfig

__all__ = [
    "QueryOutcome",
    "ShardCost",
    "BatchOutcome",
    "ExecutionBackend",
    "LocalBackend",
    "ShardedBackend",
    "build_backend",
    "choose_num_shards",
    "shard_layout",
]


#: Full ingress replicas a deployment holds at most (one per shard).
MAX_REPLICAS = 4
#: Frogs a shard's share of one query needs to be worth a fan-out.
MIN_FROGS_PER_SHARD = 2_000
#: Machines a shard needs to be a sub-cluster with a network.
MIN_MACHINES_PER_SHARD = 2


def choose_num_shards(num_machines: int, num_frogs: int | None = None) -> int:
    """Pick a shard count from fleet size, ingress budget and frog budget.

    Three ceilings, the smallest wins (floored at one shard):

    * **fleet** — each shard needs at least ``MIN_MACHINES_PER_SHARD``
      (2) machines to be a meaningful sub-cluster (a one-machine shard
      has no network to amortize);
    * **replication** — every shard holds a *complete* partitioned
      replica of the graph (the shardable unit is the frog population,
      not the edge set), so ingress memory grows linearly in the shard
      count; ``MAX_REPLICAS`` (4) caps how many full copies the
      deployment holds;
    * **frogs** — each query's budget splits across shards
      (cf. :meth:`ShardedBackend._shares`); a shard's share should be
      at least ``MIN_FROGS_PER_SHARD`` (2 000) frogs, since shards
      whose share rounds to a trivial population sit batches out while
      still paying their ingress.  Without ``num_frogs`` this ceiling
      does not apply.
    """
    if num_machines < 1:
        raise ConfigError("num_machines must be positive")
    bound = min(num_machines // MIN_MACHINES_PER_SHARD, MAX_REPLICAS)
    if num_frogs is not None:
        bound = min(bound, num_frogs // MIN_FROGS_PER_SHARD)
    return max(1, bound)


def _shard_seed(base: int | None, shard: int, num_shards: int) -> int | None:
    """Seed of one shard's partition and frog streams: a one-shard
    layout is the whole cluster and keeps ``base``; a fan-out gives each
    shard its own stream (independent samples).  None stays None."""
    if base is None or num_shards == 1:
        return base
    return base + 7919 * (shard + 1)


def _split_fleet(fleet: int, num_shards: int) -> int:
    """Machines per shard; remainder machines (``fleet % num_shards``)
    are left idle."""
    if num_shards > fleet:
        raise ConfigError(
            f"cannot split a {fleet}-machine fleet into {num_shards} "
            "shards: each shard needs at least one machine (grow the "
            "fleet or reduce the shard count)"
        )
    return fleet // num_shards


@dataclass(frozen=True)
class QueryOutcome:
    """One query's executed estimate plus its attributed report.

    The estimate is the lane's id-ordered ``(id, count)`` records
    (:class:`~repro.core.PageRankEstimate`, at most one per frog): the
    service ranks it once when the batch resolves, caches it as is and
    answers any ``k`` from it by prefix gather.
    """

    estimate: PageRankEstimate
    report: RunReport


@dataclass(frozen=True)
class ShardCost:
    """What one shard spent executing its slice of a batch."""

    shard: int
    num_machines: int
    shared_network_bytes: int
    attributed_network_bytes: int
    cpu_seconds: float
    simulated_time_s: float


@dataclass(frozen=True)
class BatchOutcome:
    """Result of executing one config-pure batch through a backend.

    ``lanes[i]`` answers ``queries[i]``; ``shared_network_bytes`` is
    what actually crossed the wire (summed over shards when sharded);
    ``simulated_time_s`` is the batch's wall time on the simulated
    cluster (the slowest shard when sharded, since shards run
    concurrently); ``shards`` carries the per-shard cost breakdown (empty
    for a one-shard layout, whose one row would repeat the totals).

    ``degraded_shards`` names the shards whose frog slice was *lost*
    to a worker crash under a fail-soft backend's ``"partial"`` policy
    (empty for healthy batches and for backends that cannot lose
    shards); ``lost_frogs`` is the frog budget those shards would have
    run.  The lanes of a degraded batch are still exact merges of the
    surviving shards — their estimates' ``num_frogs`` already reflect
    the smaller population, which is what widens the reported
    Theorem-1 bound downstream.
    """

    lanes: tuple[QueryOutcome, ...]
    shared_network_bytes: int
    simulated_time_s: float
    shards: tuple[ShardCost, ...] = ()
    degraded_shards: tuple[int, ...] = ()
    lost_frogs: int = 0


@runtime_checkable
class ExecutionBackend(Protocol):
    """The seam between the serving layer and cluster layout.

    A backend turns one config-pure batch of queries into per-query
    estimates with honest cost attribution.  It owns its ingress
    (partitioning + replication tables, paid once at construction) and
    must answer ``queries[i]`` in ``lanes[i]``.
    """

    num_shards: int

    def run_batch(
        self, config: FrogWildConfig, queries: Sequence[RankingQuery]
    ) -> BatchOutcome:
        """Execute ``queries`` under ``config``; answers in order."""
        ...


def _checked_store(store):
    """Validate an optional ``store=`` argument against the protocol."""
    if store is None:
        return None
    from ..store import as_graph_store

    return as_graph_store(store)


def _store_snapshot(store) -> DiGraph:
    """The served CSR snapshot of a store (a DiGraph serves itself)."""
    if isinstance(store, DiGraph):
        return store
    return store.snapshot()


def _out_of_core_tables(store, tag: str, build, fresh: bool = False):
    """Serving tables of an out-of-core store, spilled once per layout.

    ``build()`` constructs the RAM ``(graph, replications)`` pair; the
    result is written to ``<store dir>/serving/<tag>-v<version>`` via
    :func:`~repro.store.spill_serving_tables` and every subsequent
    backend with the same layout tag and store version skips the build
    entirely — it maps the spilled tables back and serves from the
    mapped views (the bounded-RSS path: a fresh process never holds the
    RAM copies).  ``fresh`` forces a rebuild (caller-supplied tables
    may differ from what the tag describes).
    """
    from pathlib import Path

    from ..store.spill import load_serving_tables, spill_serving_tables

    directory = (
        Path(store.directory) / "serving" / f"{tag}-v{store.version}"
    )
    if fresh or not (directory / "meta.json").exists():
        graph, replications = build()
        spill_serving_tables(directory, graph, replications)
    return load_serving_tables(directory)


def _checked_tables(
    replications: Sequence[ReplicationTable],
    num_shards: int,
    machines_per_shard: int,
    graph: DiGraph,
) -> list[ReplicationTable]:
    """Prebuilt per-shard tables, checked against the layout they serve."""
    tables = list(replications)
    if len(tables) != num_shards:
        raise ConfigError(
            f"{len(tables)} replication tables supplied for "
            f"{num_shards} shards"
        )
    for shard, table in enumerate(tables):
        if table.num_machines != machines_per_shard:
            raise ConfigError(
                f"shard {shard} replication targets {table.num_machines} "
                f"machines, expected {machines_per_shard}"
            )
        if table.graph.num_vertices != graph.num_vertices:
            raise ConfigError(
                f"shard {shard} replication was built for a different "
                "graph"
            )
    return tables


def _run_slice(
    graph: DiGraph,
    state,
    config: FrogWildConfig,
    queries: Sequence[RankingQuery],
    share: int,
    seed,
):
    """One shard's slice of a batch, for the in-process fan-out and the
    pool worker alike: ``share`` frogs per query, born on its seed set
    under the shard's seed, in one batched traversal over ``state``."""
    return run_frogwild_batch(
        graph,
        [
            BatchQuery(
                num_frogs=share,
                seeds=query.seeds,
                weights=query.weights,
                seed=seed,
            )
            for query in queries
        ],
        config,
        state=state,
    )


def _shard_cost(shard: int, machines: int, result) -> ShardCost:
    """What one shard's slice (a :func:`_run_slice` result) spent."""
    return ShardCost(
        shard=shard,
        num_machines=machines,
        shared_network_bytes=result.report.network_bytes,
        attributed_network_bytes=result.attributed_network_bytes(),
        cpu_seconds=sum(lane.report.cpu_seconds for lane in result.results),
        simulated_time_s=result.report.total_time_s,
    )


def _merged_outcome(
    per_query_lanes: Sequence[Sequence],
    shard_costs: Sequence[ShardCost],
    num_shards: int,
    degraded_shards: tuple[int, ...] = (),
    lost_frogs: int = 0,
) -> BatchOutcome:
    """One batch's outcome from its per-shard lanes and costs.

    Counters and ledgers merge exactly
    (:func:`~repro.core.batched.merge_shard_results`); wire bytes add
    and wall time is the slowest shard's, since shards run
    concurrently; a one-shard layout drops its row after the totals.
    """
    merged = [merge_shard_results(lanes) for lanes in per_query_lanes]
    return BatchOutcome(
        lanes=tuple(
            QueryOutcome(lane.estimate, lane.report)
            for lane in merged
        ),
        shared_network_bytes=sum(
            cost.shared_network_bytes for cost in shard_costs
        ),
        simulated_time_s=max(
            (cost.simulated_time_s for cost in shard_costs), default=0.0
        ),
        shards=tuple(shard_costs) if num_shards > 1 else (),
        degraded_shards=degraded_shards,
        lost_frogs=lost_frogs,
    )


class ShardedBackend:
    """Shard fan-out execution with exact counter and ledger merging.

    The ``num_machines`` fleet is split into ``num_shards`` sub-clusters
    of ``machines_per_shard = num_machines // num_shards`` machines
    (remainder machines stay idle); each shard partitions the graph
    across its own machines at construction (its own per-partition
    masters and replication tables, seeded by :func:`_shard_seed` so
    shard layouts are independent).  ``run_batch`` splits every query's
    frog budget across the shards — remainder frogs go to the
    lowest-numbered shards, and shards whose share is zero sit the
    batch out — runs each shard's slice under its :func:`_shard_seed`
    (:func:`_run_slice`), and merges:

    * per-query counters by summation (exact — frogs are independent):
      :meth:`~repro.core.PageRankEstimate.merge` sums the shards'
      ``(id, count)`` records;
    * per-query cost attribution by summation of shard ledgers, wall
      time by max (shards run concurrently), via
      :func:`~repro.core.batched.merge_shard_results`.

    Consequently ``sum(lane.report.network_bytes)`` over the merged
    lanes equals ``sum(shard.attributed_network_bytes)`` over the shard
    breakdown — the billed bytes partition exactly across shards.

    Design note: each shard holds a *complete* replica of the graph,
    partitioned (per-partition masters + replication tables) across its
    own sub-cluster — the shardable unit is the frog population, not
    the edge set.  Cutting the graph itself across shards would break
    walk semantics (frogs cross any cut), which is exactly what the
    within-shard vertex-cut machinery already simulates.  The price is
    ingress memory proportional to ``num_shards``; the payoff is
    fleet-level parallelism with exactly mergeable counters/ledgers.
    """

    def __init__(
        self,
        graph: DiGraph | None = None,
        num_shards: int = 4,
        num_machines: int = 16,
        partitioner: str = "random",
        cost_model: CostModel | None = None,
        size_model: MessageSizeModel | None = None,
        seed: int | None = 0,
        replications: Sequence[ReplicationTable] | None = None,
        kernel: str = "fused",
        store=None,
    ) -> None:
        # Checked before any ingress is built or worker started.
        resolve_kernel(kernel)
        self.store = _checked_store(store)
        if graph is None and self.store is None:
            raise ConfigError(
                f"{type(self).__name__} needs a graph or a store"
            )
        if num_shards < 1:
            raise ConfigError("num_shards must be positive")
        machines_per_shard = _split_fleet(num_machines, num_shards)
        self.num_shards = num_shards
        self.machines_per_shard = machines_per_shard
        self.cost_model = cost_model
        self.size_model = size_model
        self.seed = seed

        def build() -> tuple[DiGraph, list[ReplicationTable]]:
            snapshot = (
                graph if graph is not None else _store_snapshot(self.store)
            )
            if snapshot.num_vertices == 0:
                raise ConfigError("cannot serve an empty graph")
            if replications is not None:
                # Prebuilt per-shard ingress (e.g. maintained
                # incrementally by repro.live.IncrementalIngress across
                # graph epochs).
                return snapshot, _checked_tables(
                    replications, num_shards, machines_per_shard, snapshot
                )
            # Ingress paid once per shard: each sub-cluster partitions
            # the graph across its own machines under its shard seed.
            return snapshot, [
                ReplicationTable(
                    snapshot,
                    make_partitioner(
                        partitioner, _shard_seed(seed, shard, num_shards)
                    ).partition(snapshot, machines_per_shard),
                    seed=seed,
                )
                for shard in range(num_shards)
            ]

        if self.store is not None and getattr(
            self.store, "out_of_core", False
        ):
            # Out-of-core serving: build the tables once (or reuse the
            # spill a previous backend with this layout left), then
            # serve from the mapped views only.
            tag = (
                f"sharded-n{num_shards}-m{machines_per_shard}"
                f"-p{partitioner}-s{seed}"
            )
            self.graph, self.replications = _out_of_core_tables(
                self.store, tag, build, fresh=replications is not None
            )
        else:
            self.graph, self.replications = build()

    @property
    def replication(self) -> ReplicationTable | None:
        """The ingress of a one-shard layout (None past one shard)."""
        return self.replications[0] if self.num_shards == 1 else None

    def _shares(self, num_frogs: int) -> list[int]:
        """Split a frog budget across shards; remainder to low shards."""
        base, extra = divmod(num_frogs, self.num_shards)
        return [
            base + (1 if shard < extra else 0)
            for shard in range(self.num_shards)
        ]

    def fresh_state(self, shard: int = 0):
        """A fresh accounting state over one shard's shared ingress."""
        return build_cluster(
            self.graph,
            self.machines_per_shard,
            cost_model=self.cost_model,
            size_model=self.size_model,
            seed=self.seed,
            replication=self.replications[shard],
        )

    def run_batch(
        self, config: FrogWildConfig, queries: Sequence[RankingQuery]
    ) -> BatchOutcome:
        per_query_lanes: list[list] = [[] for _ in queries]
        shard_costs: list[ShardCost] = []
        for shard, share in enumerate(self._shares(config.num_frogs)):
            if share == 0:
                continue
            result = _run_slice(
                self.graph,
                self.fresh_state(shard),
                config,
                queries,
                share,
                _shard_seed(config.seed, shard, self.num_shards),
            )
            for lanes, shard_lane in zip(per_query_lanes, result.results):
                lanes.append(shard_lane)
            shard_costs.append(
                _shard_cost(shard, self.machines_per_shard, result)
            )
        return _merged_outcome(per_query_lanes, shard_costs, self.num_shards)


class LocalBackend(ShardedBackend):
    """Single-cluster execution: the one-shard :class:`ShardedBackend`.

    One shard is the whole ``num_machines`` fleet under the base seed,
    so this is ``ShardedBackend(num_shards=1)`` bit for bit; it only
    spells the prebuilt ingress as one ``replication=`` table.
    """

    def __init__(
        self,
        graph: DiGraph | None = None,
        num_machines: int = 16,
        partitioner: str = "random",
        cost_model: CostModel | None = None,
        size_model: MessageSizeModel | None = None,
        seed: int | None = 0,
        replication: ReplicationTable | None = None,
        store=None,
    ) -> None:
        super().__init__(
            graph,
            num_shards=1,
            num_machines=num_machines,
            partitioner=partitioner,
            cost_model=cost_model,
            size_model=size_model,
            seed=seed,
            replications=None if replication is None else [replication],
            store=store,
        )


def shard_layout(settings: "ServiceConfig") -> tuple[int, list[int | None]]:
    """Machines per shard and each shard's partition seed.

    For callers that build the per-shard tables themselves
    (:class:`repro.live.LiveRankingService`): each shard gets
    ``num_machines // num_shards`` machines and its
    :func:`_shard_seed`, as :class:`ShardedBackend` partitions them.
    """
    shards = settings.shard_count
    return _split_fleet(settings.num_machines, shards), [
        _shard_seed(settings.seed, shard, shards) for shard in range(shards)
    ]


def build_backend(
    settings: "ServiceConfig",
    graph: DiGraph | None,
    replications: Sequence[ReplicationTable] | None = None,
) -> ExecutionBackend:
    """The backend ``settings`` describe, serving ``graph``.

    The one place a backend is constructed.  An explicit
    ``settings.backend`` instance is returned as is; otherwise
    ``settings.layout`` picks a :class:`LocalBackend`, a
    :class:`ShardedBackend` or a
    :class:`~repro.serving.ProcessPoolBackend` over
    ``settings.shard_count`` shards of the ``settings.num_machines``
    fleet.  ``replications`` are prebuilt tables, one per shard (see
    :func:`shard_layout`); without them the backend partitions ``graph``
    (or ``settings.store``) with ``settings.partitioner``.
    """
    if settings.backend is not None and not isinstance(settings.backend, str):
        return settings.backend
    layout = dict(
        num_machines=settings.num_machines,
        partitioner=settings.partitioner,
        cost_model=settings.cost_model,
        size_model=settings.size_model,
        seed=settings.seed,
        store=settings.store,
    )
    if settings.layout == "local":
        return LocalBackend(
            graph,
            replication=None if replications is None else replications[0],
            **layout,
        )
    if settings.layout == "sharded":
        return ShardedBackend(
            graph,
            num_shards=settings.shard_count,
            replications=replications,
            **layout,
        )
    from .process_backend import ProcessPoolBackend

    return ProcessPoolBackend(
        graph,
        num_shards=settings.shard_count,
        replications=replications,
        on_shard_failure=settings.on_shard_failure,
        **layout,
    )
