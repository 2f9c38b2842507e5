"""Typed construction config for :class:`~repro.serving.RankingService`.

:class:`ServiceConfig` is the one place a service setting is defined:
its name, its default and its validation.  ``RankingService(graph,
config)`` takes one; :class:`~repro.live.LiveRankingService` builds one
from its keywords; :func:`~repro.serving.backend.build_backend` turns
one into a Local, Sharded or ProcessPool backend.  Derive variants with
:func:`dataclasses.replace`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Integral
from typing import TYPE_CHECKING, Callable

from ..core import FrogWildConfig, resolve_kernel
from ..core.config import check_positive_int, check_seed
from ..errors import ConfigError
from .backend import choose_num_shards

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids cycles
    from ..cluster import CostModel, MessageSizeModel
    from ..store import GraphStore
    from ..traffic.admission import AdmissionController
    from ..traffic.trace import QueryTracer
    from .backend import ExecutionBackend

__all__ = ["SHARD_FAILURE_POLICIES", "ServiceConfig"]

#: What a process pool does with a shard lost mid-batch (see
#: :class:`~repro.serving.ProcessPoolBackend`).
SHARD_FAILURE_POLICIES = ("fail", "partial")

#: The backend layouts ``ServiceConfig.backend`` may name.
BACKEND_LAYOUTS = ("local", "sharded", "process")


@dataclass(frozen=True)
class ServiceConfig:
    """Every :class:`~repro.serving.RankingService` construction setting.

    config:
        Default :class:`~repro.core.FrogWildConfig` for queries that
        don't override; ``None`` means ``FrogWildConfig(seed=seed)``
        (:attr:`frog_config`).
    num_machines, partitioner, cost_model, size_model, seed:
        Simulated-cluster construction, as everywhere in the repo.
    backend:
        Explicit :class:`~repro.serving.backend.ExecutionBackend`
        (overrides ``num_shards``), or a layout name: ``"local"``,
        ``"sharded"``, or ``"process"`` (a
        :class:`~repro.serving.ProcessPoolBackend` — one OS process
        per shard over shared-memory graph state; pair with
        ``service.close()`` to tear the workers down).  ``None`` picks
        ``"sharded"`` when there is more than one shard, else
        ``"local"`` (:attr:`layout`).
    num_shards:
        ``> 1`` splits the ``num_machines`` fleet into that many
        sub-clusters and fans every batch out across them.  ``None``
        autotunes the shard count from the fleet size and the default
        config's frog budget (:func:`~repro.serving.choose_num_shards`;
        :attr:`shard_count`).
    kernel:
        Kept for caller compatibility; its single value is ``"fused"``,
        and any other name is a ``ConfigError`` before a backend is
        built.
    on_shard_failure:
        What a ``backend="process"`` pool does with a batch that loses
        a worker mid-flight (one of :data:`SHARD_FAILURE_POLICIES`; see
        :class:`~repro.serving.ProcessPoolBackend`).  Validated for
        every layout, used only by the pool, which respawns the lost
        worker within the batch under both policies.  ``"fail"`` then
        fails the batch's waiters with
        :class:`~repro.errors.ShardFailure`; ``"partial"`` resolves
        them from the surviving shards, with
        ``RankingAnswer.degraded_shards`` set and a recomputed (wider)
        Theorem-1 ``error_bound``, and keeps them out of the answer
        cache.
    store:
        Optional :class:`~repro.store.GraphStore` the service reads its
        graph from; an out-of-core store serves from spilled, mapped
        tables, and its version counter is the default ``generation``.
    max_batch_size:
        Largest number of queries one batched traversal carries.
    cache_capacity, cache_ttl_s:
        TTL/LRU cache sizing; ``cache_capacity=0`` disables caching.
    max_delay_s:
        Deadline for the scheduled path (``service.submit``).  A started
        service dispatches a partial batch as soon as no other batch is
        running (*idle*), and at the latest once its oldest query has
        waited this long behind one (*deadline*); a full batch leaves at
        once (*fill*).  A virtual-clock ``pump()`` keeps the deadline
        rule alone.  ``None`` disables idle and deadline dispatch
        (batches leave on fill or flush only).  The synchronous
        ``query_batch`` is unaffected — it always flushes immediately.
    clock:
        Injectable time source shared by the cache and the scheduler
        (tests and benchmarks use a
        :class:`~repro.serving.VirtualClock`).
    generation:
        Injectable graph-generation counter mixed into every cache key
        (e.g. ``lambda: dynamic_graph.version``).  When the counter
        moves, previously cached rankings stop matching and re-execute
        — churn invalidation without TTL guesswork.  Defaults
        automatically when the service has a generation source: a
        :class:`~repro.dynamic.DynamicDiGraph` graph provides its
        version counter, a store its version, and an explicit
        ``backend`` exposing a ``generation`` callable (e.g.
        :class:`~repro.live.EpochManager`) its epoch.  This invalidates
        the *cache*; a plain RankingService keeps serving the snapshot
        its backend ingested at construction
        (:class:`~repro.live.LiveRankingService` refreshes it).
    admission:
        Optional :class:`~repro.traffic.AdmissionController`.  Every
        query that needs a *new* execution lane (cache hits and
        coalesced duplicates are free and never ruled on) is subject to
        its policy: past the queue bound the future fails fast with a
        typed :class:`~repro.errors.OverloadError`; under backlog the
        degradation ladder rewrites the query to a cheaper config whose
        Theorem-1 error bound rides on the answer.
    tracer:
        Optional :class:`~repro.traffic.QueryTracer`: every submitted
        query carries a per-query trace (enqueue → dispatch → resolve,
        with cache/coalesce/degrade/shed provenance) folded into the
        latency histograms
        :meth:`~repro.serving.RankingService.snapshot` reports.
    """

    # Execution defaults
    config: "FrogWildConfig | None" = None
    num_machines: int = 16
    partitioner: str = "random"
    cost_model: "CostModel | None" = None
    size_model: "MessageSizeModel | None" = None
    seed: int | None = 0
    # Cluster layout
    backend: "ExecutionBackend | str | None" = None
    num_shards: int | None = 1
    kernel: str = "fused"
    on_shard_failure: str = "fail"
    # Storage tier
    store: "GraphStore | None" = None
    # Batching, caching, scheduling
    max_batch_size: int = 16
    cache_capacity: int = 256
    cache_ttl_s: float | None = None
    max_delay_s: float | None = None
    clock: Callable[[], float] | None = None
    generation: Callable[[], int] | None = None
    # Traffic integration
    admission: "AdmissionController | None" = field(
        default=None, repr=False
    )
    tracer: "QueryTracer | None" = field(default=None, repr=False)

    def __post_init__(self) -> None:
        resolve_kernel(self.kernel)
        check_positive_int("num_machines", self.num_machines)
        if self.num_shards is not None:
            check_positive_int("num_shards", self.num_shards)
        check_positive_int("max_batch_size", self.max_batch_size)
        check_seed(self.seed)
        capacity = self.cache_capacity
        if (
            not isinstance(capacity, Integral)
            or isinstance(capacity, bool)
            or capacity < 0
        ):
            raise ConfigError(
                f"cache_capacity must be a non-negative integer (got "
                f"{capacity!r}); 0 disables the cache"
            )
        if self.on_shard_failure not in SHARD_FAILURE_POLICIES:
            raise ConfigError(
                f"unknown on_shard_failure {self.on_shard_failure!r}: "
                f"expected one of {SHARD_FAILURE_POLICIES}"
            )
        if isinstance(self.backend, str) and (
            self.backend not in BACKEND_LAYOUTS
        ):
            raise ConfigError(
                f"unknown backend {self.backend!r}: expected one of "
                f"{BACKEND_LAYOUTS}"
            )

    @property
    def frog_config(self) -> FrogWildConfig:
        """The default per-query config (``config`` or a seeded default)."""
        return self.config or FrogWildConfig(seed=self.seed)

    @property
    def shard_count(self) -> int:
        """``num_shards``, autotuned from fleet and frog budget if None."""
        if self.num_shards is not None:
            return self.num_shards
        return choose_num_shards(
            self.num_machines, num_frogs=self.frog_config.num_frogs
        )

    @property
    def layout(self) -> str:
        """The layout name a backend is built for (``backend`` unset:
        ``"sharded"`` past one shard, else ``"local"``)."""
        if isinstance(self.backend, str):
            return self.backend
        return "sharded" if self.shard_count > 1 else "local"
