"""Execution backends: where a drained batch of ranking queries runs.

The serving layer is split at an :class:`ExecutionBackend` seam: the
:class:`~repro.serving.RankingService` owns caching, coalescing and
scheduling, while a backend owns *cluster layout* — how a config-pure
batch of queries turns into traversals of the partitioned graph.  Two
backends ship:

* :class:`LocalBackend` — the original single-cluster path: one
  :class:`~repro.core.batched.BatchedFrogWildRunner` traversal over one
  partitioned ingress (paid once, reused by every batch).
* :class:`ShardedBackend` — a scale-out tier: the machine fleet is
  split into ``num_shards`` sub-clusters, each holding its own
  partitioned ingress of the graph (per-shard masters and replication
  tables, built once).  Because frogs are independent walkers, the
  shardable unit is the *population*: each query's frog budget is split
  across shards, every shard advances its slice of every population
  through its own batched traversal, and the per-shard surviving-frog
  counters merge by exact summation before top-k
  (:func:`~repro.core.batched.merge_shard_results`).  Per-query cost
  attribution merges the same way — shard ledgers add, so the billed
  bytes partition exactly across shards.

Both expose the same contract, so the service, the scheduler, the CLI
and the benchmarks are layout-agnostic.  The seam is also where the
live layer plugs in: :class:`repro.live.EpochManager` is an
atomically swappable backend *proxy* that lets a refreshed graph
replace either layout between batches.  Both backends run the batched
superstep with its numpy passes (:mod:`repro.core.kernels`).
:class:`ShardedBackend` keeps a ``kernel=`` keyword for caller
compatibility: its only value is ``"fused"``, and any other name is a
:class:`~repro.errors.ConfigError` at construction.  The config's
``sync_mode`` / ``wire_dedupe`` fields flow through ``run_batch``
unchanged — a sharded deployment dedupes frog records within each
shard's wire.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol, Sequence, runtime_checkable

import numpy as np

from ..cluster import (
    CostModel,
    MessageSizeModel,
    ReplicationTable,
    make_partitioner,
)
from ..core import (
    BatchQuery,
    FrogWildConfig,
    RankedEstimate,
    merge_shard_results,
    resolve_kernel,
    run_frogwild_batch,
    seed_distribution,
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


def choose_num_shards(
    num_machines: int,
    replication: int = 4,
    num_frogs: int | None = None,
    min_frogs_per_shard: int = 2_000,
    min_machines_per_shard: int = 2,
) -> int:
    """Pick a shard count from fleet size, ingress budget and frog budget.

    Three ceilings, the smallest wins (floored at one shard):

    * **fleet** — each shard needs at least ``min_machines_per_shard``
      machines to be a meaningful sub-cluster (a one-machine shard has
      no network to amortize);
    * **replication** — every shard holds a *complete* partitioned
      replica of the graph (the shardable unit is the frog population,
      not the edge set), so ingress memory grows linearly in the shard
      count; ``replication`` caps how many full copies the deployment
      tolerates;
    * **frogs** — each query's budget splits across shards
      (cf. :meth:`ShardedBackend._shares`); shards whose share rounds
      to a trivial population sit batches out while still paying their
      ingress, so tiny budgets should not fan out at all.
    """
    if num_machines < 1:
        raise ConfigError("num_machines must be positive")
    if replication < 1:
        raise ConfigError("replication must be positive")
    bound = min(num_machines // max(min_machines_per_shard, 1), replication)
    if num_frogs is not None:
        bound = min(bound, num_frogs // max(min_frogs_per_shard, 1))
    return max(1, bound)


def _shard_seed(base: int | None, shard: int) -> int | None:
    """Deterministic distinct stream per shard (None stays None)."""
    return None if base is None else base + 7919 * (shard + 1)


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

    The estimate is the lane's ranked support
    (:class:`~repro.core.RankedEstimate`), ranked once inside
    ``run_batch``: the service caches it as is and answers any ``k``
    from it by prefix copy.
    """

    estimate: RankedEstimate
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
    concurrently); ``shards`` carries the per-shard cost breakdown and
    is empty for single-cluster execution.

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


def _batch_queries(
    graph: DiGraph, queries: Sequence[RankingQuery]
) -> list[np.ndarray]:
    """Per-query personalized birth laws (Lemma 16 teleport vectors)."""
    return [
        seed_distribution(
            graph.num_vertices,
            np.asarray(query.seeds, dtype=np.int64),
            None
            if query.weights is None
            else np.asarray(query.weights, dtype=np.float64),
        )
        for query in queries
    ]


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


def _merged_outcome(
    per_query_lanes: Sequence[Sequence],
    shard_costs: Sequence[ShardCost],
    degraded_shards: tuple[int, ...] = (),
    lost_frogs: int = 0,
) -> BatchOutcome:
    """One batch's outcome from its per-shard lanes and costs.

    Counters and ledgers merge exactly
    (:func:`~repro.core.batched.merge_shard_results`); wire bytes add
    and wall time is the slowest shard's, since shards run
    concurrently.
    """
    merged = [merge_shard_results(lanes) for lanes in per_query_lanes]
    return BatchOutcome(
        lanes=tuple(
            QueryOutcome(lane.estimate.ranked(), lane.report)
            for lane in merged
        ),
        shared_network_bytes=sum(
            cost.shared_network_bytes for cost in shard_costs
        ),
        simulated_time_s=max(
            (cost.simulated_time_s for cost in shard_costs), default=0.0
        ),
        shards=tuple(shard_costs),
        degraded_shards=degraded_shards,
        lost_frogs=lost_frogs,
    )


class LocalBackend:
    """Single-cluster execution: one batched traversal per batch.

    This is exactly the execution path :class:`RankingService` inlined
    before the backend seam existed: the ingress (partition + derived
    replication tables) is paid once here and shared by every batch,
    while each batch gets a fresh accounting state so per-batch
    traffic/CPU/time numbers stay clean.
    """

    num_shards = 1

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
        self.num_machines = num_machines
        self.cost_model = cost_model
        self.size_model = size_model
        self.seed = seed
        self.store = _checked_store(store)
        if graph is None and self.store is None:
            raise ConfigError("LocalBackend needs a graph or a store")

        def build() -> tuple[DiGraph, list[ReplicationTable]]:
            snapshot = (
                graph if graph is not None else _store_snapshot(self.store)
            )
            if snapshot.num_vertices == 0:
                raise ConfigError("cannot serve an empty graph")
            table = replication
            if table is None:
                partition = make_partitioner(partitioner, seed).partition(
                    snapshot, num_machines
                )
                table = ReplicationTable(snapshot, partition, seed=seed)
            return snapshot, [table]

        if self.store is not None and getattr(
            self.store, "out_of_core", False
        ):
            # Out-of-core serving: build the tables once (or reuse the
            # spill a previous backend with this layout left), then
            # serve from the mapped views only.
            tag = f"local-m{num_machines}-p{partitioner}-s{seed}"
            self.graph, (self.replication,) = _out_of_core_tables(
                self.store, tag, build, fresh=replication is not None
            )
        else:
            self.graph, (self.replication,) = build()

    def fresh_state(self):
        """A fresh accounting state over the shared ingress."""
        return build_cluster(
            self.graph,
            self.num_machines,
            cost_model=self.cost_model,
            size_model=self.size_model,
            seed=self.seed,
            replication=self.replication,
        )

    def run_batch(
        self, config: FrogWildConfig, queries: Sequence[RankingQuery]
    ) -> BatchOutcome:
        distributions = _batch_queries(self.graph, queries)
        result = run_frogwild_batch(
            self.graph,
            [BatchQuery(start_distribution=d) for d in distributions],
            config,
            state=self.fresh_state(),
        )
        return BatchOutcome(
            lanes=tuple(
                QueryOutcome(lane.estimate.ranked(), lane.report)
                for lane in result.results
            ),
            shared_network_bytes=result.report.network_bytes,
            simulated_time_s=result.report.total_time_s,
        )


class ShardedBackend:
    """Shard fan-out execution with exact counter and ledger merging.

    The ``num_machines`` fleet is split into ``num_shards`` sub-clusters
    of ``machines_per_shard = num_machines // num_shards`` machines
    (remainder machines stay idle); each shard partitions the graph
    across its own machines at construction (its own per-partition
    masters and replication tables, seeded distinctly so shard layouts
    are independent).  ``run_batch`` splits every query's frog budget
    across the shards — remainder frogs go to the lowest-numbered
    shards, and shards whose share is zero sit the batch out — derives a
    distinct per-shard rng seed so shard populations are independent
    samples, runs one batched traversal per shard, and merges:

    * per-query counters by summation (exact — frogs are independent,
      see :meth:`~repro.core.PageRankEstimate.merge`);
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

    ``kernel`` stays for caller compatibility and has a single value,
    ``"fused"``; it is only validated.
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
            raise ConfigError("ShardedBackend needs a graph or a store")
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
            # the graph across its own machines under a distinct seed.
            return snapshot, [
                ReplicationTable(
                    snapshot,
                    make_partitioner(
                        partitioner, _shard_seed(seed, shard)
                    ).partition(snapshot, machines_per_shard),
                    seed=seed,
                )
                for shard in range(num_shards)
            ]

        if self.store is not None and getattr(
            self.store, "out_of_core", False
        ):
            tag = (
                f"sharded-n{num_shards}-m{machines_per_shard}"
                f"-p{partitioner}-s{seed}"
            )
            self.graph, self.replications = _out_of_core_tables(
                self.store, tag, build, fresh=replications is not None
            )
        else:
            self.graph, self.replications = build()

    def _shares(self, num_frogs: int) -> list[int]:
        """Split a frog budget across shards; remainder to low shards."""
        base, extra = divmod(num_frogs, self.num_shards)
        return [
            base + (1 if shard < extra else 0)
            for shard in range(self.num_shards)
        ]

    def fresh_state(self, shard: int):
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
        distributions = _batch_queries(self.graph, queries)
        shares = self._shares(config.num_frogs)
        per_query_lanes: list[list] = [[] for _ in queries]
        shard_costs: list[ShardCost] = []
        for shard, share in enumerate(shares):
            if share == 0:
                continue
            result = run_frogwild_batch(
                self.graph,
                [
                    BatchQuery(
                        num_frogs=share,
                        start_distribution=distribution,
                        seed=_shard_seed(config.seed, shard),
                    )
                    for distribution in distributions
                ],
                config,
                state=self.fresh_state(shard),
            )
            for lanes, shard_lane in zip(per_query_lanes, result.results):
                lanes.append(shard_lane)
            shard_costs.append(
                ShardCost(
                    shard=shard,
                    num_machines=self.machines_per_shard,
                    shared_network_bytes=result.report.network_bytes,
                    attributed_network_bytes=(
                        result.attributed_network_bytes()
                    ),
                    cpu_seconds=sum(
                        lane.report.cpu_seconds for lane in result.results
                    ),
                    simulated_time_s=result.report.total_time_s,
                )
            )
        return _merged_outcome(per_query_lanes, shard_costs)


def shard_layout(settings: "ServiceConfig") -> tuple[int, list[int | None]]:
    """Machines per shard and each shard's partition seed.

    For callers that build the per-shard tables themselves
    (:class:`repro.live.LiveRankingService`): one shard partitions the
    whole fleet under the base seed, as :class:`LocalBackend` does; a
    fan-out gives each shard ``num_machines // num_shards`` machines
    and its own seed, as :class:`ShardedBackend` does.
    """
    shards = settings.shard_count
    if shards == 1:
        return settings.num_machines, [settings.seed]
    return _split_fleet(settings.num_machines, shards), [
        _shard_seed(settings.seed, shard) for shard in range(shards)
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
