"""Serving a live graph: churn in, fresh epochs out, queries flowing.

The paper's OSN pitch is that the graph changes constantly and the
top-k must follow.  PR 2's service invalidated its *cache* on churn but
kept serving the snapshot it was built on; the live layer
(:mod:`repro.live`) closes the loop:

* an ``IncrementalIngress`` keeps the per-machine edge placement
  current delta by delta — stable-hash placement means surviving edges
  never move, so each refresh pays ingress only for churned edges;
* an ``EpochManager`` swaps the execution backend atomically — a batch
  pins its epoch at dispatch, so refreshes never tear or drop queries;
* the epoch id doubles as the cache generation, so cached rankings
  invalidate exactly when (and only when) a refresh publishes.

This example trickles queries through a ``LiveRankingService`` while a
``ChurnGenerator`` rewires the graph, refreshing between bursts, and
prints the reuse/epoch/cache story per tick.

Usage::

    python examples/live_service.py
"""

import numpy as np

from repro import FrogWildConfig, twitter_like
from repro.dynamic import ChurnGenerator, DynamicDiGraph
from repro.live import LiveRankingService
from repro.serving import RankingQuery


def main() -> None:
    print("Generating a Twitter-like graph (5,000 users)...")
    dynamic = DynamicDiGraph.from_digraph(twitter_like(n=5_000, seed=17))
    service = LiveRankingService(
        dynamic,
        config=FrogWildConfig(num_frogs=6_000, iterations=5, ps=0.8, seed=0),
        num_machines=8,
        seed=0,
    )
    churn = ChurnGenerator(add_rate=0.01, remove_rate=0.01, seed=1)
    rng = np.random.default_rng(7)
    queries = [
        RankingQuery(
            seeds=tuple(np.sort(
                rng.choice(dynamic.num_vertices, size=2, replace=False)
            ).tolist()),
            k=5,
        )
        for _ in range(4)
    ]

    for tick in range(4):
        epoch = service.current_epoch
        answers = service.query_batch(queries)
        replays = service.query_batch(queries)
        print(
            f"\nepoch {epoch.epoch_id} ({epoch.num_edges:,} edges): "
            f"top-5 for seeds {answers[0].query.seeds} -> "
            f"{answers[0].vertices.tolist()}"
        )
        print(f"  replay served from cache : "
              f"{all(a.cached for a in replays)}")
        update = service.refresh(churn.step(dynamic))
        print(
            f"  refresh -> epoch {update.epoch}: "
            f"+{update.edges_added}/-{update.edges_removed} edges, "
            f"placed {update.new_placements} "
            f"(reused {update.reuse_ratio:.1%})"
        )

    row = service.snapshot()
    reused = row["ingress_reused_placements"]
    print(f"\nepochs published        : {int(row['epochs_published'])}")
    print(f"lifetime placement reuse: "
          f"{reused / (reused + row['ingress_new_placements']):.2%}")
    print(f"amortization ratio      : "
          f"{service.stats.amortization_ratio():.3f}")
    print(f"queries served/executed : {int(row['service_queries_served'])}/"
          f"{service.stats.queries_executed}")


if __name__ == "__main__":
    main()
