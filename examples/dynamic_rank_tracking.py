"""Track the top-k of a live social graph under churn.

The paper's OSN motivation (Section 1): activity graphs change
constantly, key users are few, so the top-k PageRank list should be
recalculated constantly with a *fast approximation*.  This example
keeps a FrogWild top-20 fresh over ten churn ticks on a
:class:`~repro.live.LiveRankingService` (refresh, then one query that
ranks the whole graph), shows the per-tick cost against an exact
recompute, and demonstrates that a sudden "viral" user enters the list
within one refresh.

Usage::

    python examples/dynamic_rank_tracking.py
"""

import numpy as np

from repro import FrogWildConfig, graphlab_pagerank, twitter_like
from repro.dynamic import ChurnGenerator, GraphDelta
from repro.engine import build_cluster
from repro.live import LiveRankingService
from repro.metrics import top_k_jaccard

K = 20


def main() -> None:
    print("Generating a Twitter-like activity graph (8,000 users)...")
    base = twitter_like(n=8_000, seed=21)
    service = LiveRankingService(
        base,
        config=FrogWildConfig(num_frogs=10_000, iterations=4, seed=0),
        num_machines=8,
        seed=0,
    )
    source = service.source
    print(f"  {source.num_vertices:,} users, {source.num_edges:,} edges")
    # No seeds: frogs born on every vertex, the uniform query that is
    # global PageRank.
    top = service.query(None, k=K).vertices
    churn = ChurnGenerator(add_rate=0.01, remove_rate=0.01, seed=0)

    print(f"\nTracking the top-{K} over 10 churn ticks (1% churn each)...")
    print(f"{'tick':>4} {'edges':>8} {'jaccard':>8} "
          f"{'ingress':>8} {'net bytes':>11}")
    jaccards, tick_bytes = [], []
    for tick in range(1, 11):
        update = service.refresh(churn.step(source))
        answer = service.query(None, k=K)
        jaccards.append(top_k_jaccard(top, answer.vertices))
        tick_bytes.append(answer.network_bytes)
        top = answer.vertices
        print(
            f"{tick:>4} {update.num_edges:>8,} {jaccards[-1]:>8.3f} "
            f"{update.new_placements:>8,} {answer.network_bytes:>11,}"
        )
    print(f"\nlist stability over the run: {np.mean(jaccards):.3f}")

    # What would an exact recompute per tick have cost?
    snapshot = service.current_epoch.graph
    state = build_cluster(snapshot, 8, partitioner="stable-hash", seed=0)
    exact = graphlab_pagerank(
        snapshot, tolerance=1e-6, state=state, max_supersteps=200
    )
    tick_cost = np.mean(tick_bytes)
    print("\n--- per-tick refresh cost ---")
    print(f"FrogWild refresh : {tick_cost:,.0f} bytes")
    print(f"exact GraphLab PR: {exact.report.network_bytes:,} bytes "
          f"({exact.report.network_bytes / tick_cost:.0f}x more)")

    # A user suddenly goes viral: thousands of new in-links in one tick.
    viral = source.num_vertices - 1
    print(f"\nUser {viral} goes viral (2,000 new followers)...")
    followers = np.arange(2_000)
    service.refresh(
        GraphDelta(
            added=np.column_stack([followers, np.full(2_000, viral)])
        )
    )
    top = service.query(None, k=K).vertices.tolist()
    if viral in top:
        print(f"  detected in ONE refresh: now rank #{top.index(viral) + 1}")
    else:
        print(f"  not yet in the top-{K}")


if __name__ == "__main__":
    main()
