"""Sharded ranking with a batch scheduler: the scale-out service.

A single :class:`~repro.serving.RankingService` can outgrow one
simulated cluster in two directions at once:

* **sharding** — ``num_shards=4`` splits the machine fleet into four
  sub-clusters, each holding its own partitioned ingress of the graph.
  Frogs are independent walkers, so each query's frog budget splits
  across the shards and the per-shard counters merge back by exact
  summation before top-k; per-query cost attribution sums exactly
  across shards, so metering stays honest.
* **batch scheduling** — production traffic trickles instead of
  arriving in bursts.  With ``max_delay_s`` set, a started service
  dispatches a partial batch as soon as no batch is running (*idle*),
  instantly when it fills (*fill*), after its oldest query has waited
  ``max_delay_s`` behind another dispatch (*deadline*), or on a
  *flush*; queries that arrive while a batch runs still amortize one
  traversal.  A virtual clock's ``pump()`` keeps the deadline rule
  alone, which is what this example drives.

This example serves a trickle of users — one query per simulated
millisecond, driven by a virtual clock so the run is deterministic —
through a 4-shard service under a 5 ms batching deadline, then shows
the per-shard cost partition and replays a query from cache.

Usage::

    python examples/sharded_service.py
"""

import numpy as np

from repro import FrogWildConfig, twitter_like
from repro.serving import RankingService, ServiceConfig, VirtualClock


def main() -> None:
    print("Generating a Twitter-like graph (8,000 users)...")
    graph = twitter_like(n=8_000, seed=33)
    config = FrogWildConfig(num_frogs=8_000, iterations=6, ps=0.8, seed=0)

    clock = VirtualClock()
    service = RankingService(
        graph,
        ServiceConfig(
            config=config,
            num_machines=16,     # fleet of 16 machines...
            num_shards=4,        # ...split into 4 sub-clusters of 4
            max_batch_size=16,
            max_delay_s=0.005,   # dispatch partial batches after 5 ms
            clock=clock,
        ),
    )
    print("Service started: 4 shards x "
          f"{service.backend.machines_per_shard} machines, "
          "5 ms batching deadline.\n")

    rng = np.random.default_rng(5)
    users = rng.choice(graph.num_vertices, size=12, replace=False)

    print("Trickling 12 queries in, one per millisecond...")
    futures = []
    for user in users:
        futures.append(service.submit([int(user)], k=5))
        clock.advance(0.001)   # 1 ms between arrivals
        service.pump()         # deadline check (the started loop also
                               # dispatches at once when idle)
    clock.advance(0.005)
    service.pump()             # the tail batch's deadline expires
    assert all(future.done() for future in futures)

    stats = service.stats
    sched = service.scheduler.stats
    print(f"batches formed             : {list(stats.batch_size.recent)} "
          f"({sched.deadline_dispatches} by deadline, "
          f"{sched.fill_dispatches} by fill)")
    print(f"network amortization       : {stats.amortization_ratio():.3f} "
          "(shared wire bytes / standalone-priced bytes)")

    print("\nper-shard cost partition (attribution sums exactly):")
    for shard, costs in stats.shard_breakdown().items():
        print(f"  shard {shard}: "
              f"{int(costs['shared_network_bytes']):>9,} shared bytes, "
              f"{int(costs['attributed_network_bytes']):>9,} attributed")
    total = sum(
        costs["attributed_network_bytes"]
        for costs in stats.shard_breakdown().values()
    )
    assert int(total) == stats.attributed_network_bytes

    print("\nsample recommendations (user -> top-5 by personalized rank):")
    for future in futures[:4]:
        answer = future.result()
        user = answer.query.seeds[0]
        print(f"  user {user:>5} -> {answer.vertices.tolist()}  "
              f"[{answer.network_bytes:,} bytes attributed, "
              f"batch of {answer.batch_size}]")

    replay = service.query([int(users[0])], k=5)
    assert replay.cached
    print(f"\nreplaying user {users[0]}      : served from cache "
          f"(hit rate {service.cache.stats.hit_rate():.0%})")


if __name__ == "__main__":
    main()
