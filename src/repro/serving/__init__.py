"""Top-k ranking as a service: scheduling, sharding, caching, metering.

This package is the production face of the reproduction — the answer
to "how does FrogWild serve heavy multi-user traffic?".  Its design
rests on two facts from the paper:

* **Lemma 16** (restart at the birth law): *any* birth distribution
  turns the frog process into Personalized PageRank with that teleport
  vector.  A user's top-k query is therefore nothing but a frog
  population born on the user's seed set — and B concurrent queries
  are B populations that can ride **one** traversal of the partitioned
  graph (:class:`~repro.core.batched.BatchedFrogWildRunner`), paying
  the topology gather, the BSP barriers and the per-message wire
  headers once per superstep instead of once per query.  Because frogs
  are *independent* walkers, a population also shards: split a query's
  frog budget across shard sub-clusters and the per-shard counters
  merge back by exact summation.
* **Definition 5 / Theorem 1** (the counter estimate): a completed
  estimate is immutable and has at most N nonzero counters, so its
  ``(id, count)`` records (:class:`~repro.core.PageRankEstimate`),
  ranked once, answer any k by prefix gather — ideal cache material.
  The service keys its TTL/LRU cache on ``(generation, seeds, weights,
  config)`` so repeated queries cost zero cluster work, with an
  injectable generation counter invalidating exactly on graph churn and
  TTL bounding staleness as a fallback.

Module map: :mod:`~repro.serving.cache` (TTL/LRU store),
:mod:`~repro.serving.batching` (query normalization and the
config-pure, deadline-aware coalescer), :mod:`~repro.serving.backend`
(the :class:`ExecutionBackend` seam: :class:`ShardedBackend` shard
fan-out with exact cost partitioning, whose one-shard case is the
single-cluster :class:`LocalBackend`), :mod:`~repro.serving.process_backend`
(:class:`ProcessPoolBackend`: the same shard fan-out on one OS process
per shard over shared-memory graph state, for real multi-core
scale-out), :mod:`~repro.serving.supervisor`
(:class:`WorkerSupervisor`: the crash respawn and shared-memory
hygiene every batch runs before the pool's fail-soft
``on_shard_failure`` policy decides it), :mod:`~repro.serving.scheduler`
(:class:`BatchScheduler`: one dispatch rule, driven by a background
thread or by ``pump()`` on a virtual clock),
:mod:`~repro.serving.service` (the :class:`RankingService` façade
tying cache → coalescer → scheduler → backend together, with per-query
cost attribution for honest metering).

Demonstrated end to end by ``examples/ranking_service.py`` and
``examples/sharded_service.py``; timed by the ``serve-*`` workloads of
``bench/run.py``.
"""

from .backend import (
    BatchOutcome,
    ExecutionBackend,
    LocalBackend,
    QueryOutcome,
    ShardCost,
    ShardedBackend,
    choose_num_shards,
)
from .batching import PendingQuery, QueryCoalescer, RankingQuery
from .cache import CacheStats, TTLCache
from .config import ServiceConfig
from .process_backend import PoolEpoch, ProcessPoolBackend
from .scheduler import BatchScheduler, SchedulerStats, VirtualClock
from .supervisor import SupervisorStats, WorkerSupervisor
from .service import (
    RankingAnswer,
    RankingFuture,
    RankingService,
    ServiceStats,
)

__all__ = [
    "CacheStats",
    "TTLCache",
    "QueryCoalescer",
    "PendingQuery",
    "RankingQuery",
    "BatchOutcome",
    "QueryOutcome",
    "ShardCost",
    "ExecutionBackend",
    "LocalBackend",
    "ShardedBackend",
    "ProcessPoolBackend",
    "PoolEpoch",
    "WorkerSupervisor",
    "SupervisorStats",
    "choose_num_shards",
    "BatchScheduler",
    "SchedulerStats",
    "VirtualClock",
    "RankingAnswer",
    "RankingFuture",
    "RankingService",
    "ServiceConfig",
    "ServiceStats",
]
