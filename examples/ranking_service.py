"""Serving personalized top-k rankings to many users at once.

A recommendation backend receives a burst of "who matters to *me*?"
queries — one per logged-in user.  Answering each with its own FrogWild
run works, but every run re-traverses the same partitioned graph.  The
:class:`~repro.serving.RankingService` instead coalesces the burst into
one batched traversal (every user is just a frog population with a
personalized birth law, per Lemma 16), caches the finished estimates,
and attributes the shared execution's cost back to individual queries
for honest per-user metering.

This example serves a burst of 12 users on a Twitter-like graph,
compares wall-clock against the one-run-per-user baseline, then replays
the burst to show the cache absorbing repeat traffic.

Usage::

    python examples/ranking_service.py
"""

import time

import numpy as np

from repro import FrogWildConfig, run_personalized_frogwild, twitter_like
from repro.serving import RankingQuery, RankingService, ServiceConfig


def main() -> None:
    print("Generating a Twitter-like graph (10,000 users)...")
    graph = twitter_like(n=10_000, seed=33)
    config = FrogWildConfig(num_frogs=8_000, iterations=6, ps=0.8, seed=0)

    rng = np.random.default_rng(5)
    users = rng.choice(graph.num_vertices, size=12, replace=False)
    queries = [RankingQuery(seeds=(int(user),), k=5) for user in users]

    print("Starting the ranking service (ingress paid once)...")
    service = RankingService(
        graph,
        ServiceConfig(
            config=config, num_machines=16, max_batch_size=16,
            cache_ttl_s=600.0
        ),
    )

    start = time.perf_counter()
    answers = service.query_batch(queries)
    batched_s = time.perf_counter() - start

    start = time.perf_counter()
    for user in users:
        run_personalized_frogwild(
            graph, np.array([user]), config, num_machines=16
        )
    sequential_s = time.perf_counter() - start

    print(f"\nbatched burst of {len(users)} users : {batched_s:.3f} s")
    print(f"one run per user           : {sequential_s:.3f} s "
          f"({sequential_s / batched_s:.1f}x slower)")
    stats = service.stats
    print(f"batches run                : {stats.batches_run} "
          f"(sizes {stats.batch_sizes})")
    print(f"network amortization       : {stats.amortization_ratio():.3f} "
          "(shared wire bytes / standalone-priced bytes)")

    print("\nsample recommendations (user -> top-5 by personalized rank):")
    for answer in answers[:4]:
        user = answer.query.seeds[0]
        print(f"  user {user:>5} -> {answer.vertices.tolist()}  "
              f"[{answer.network_bytes:,} bytes attributed]")

    start = time.perf_counter()
    replay = service.query_batch(queries)
    replay_s = time.perf_counter() - start
    assert all(answer.cached for answer in replay)
    print(f"\nreplaying the burst        : {replay_s * 1000:.1f} ms "
          f"(all {len(replay)} answers from cache, "
          f"hit rate {service.cache_stats()['hit_rate']:.0%})")


if __name__ == "__main__":
    main()
