"""Rank users on a *sliding window* of interactions.

The OSN reference behind the paper's third application ([19]) ranks
users on an *activity graph*: an edge lives while the interaction it
represents is recent.  This example replays a day of synthetic direct
messages through an :class:`~repro.dynamic.ActivityWindow`, feeds its
deltas to a :class:`~repro.live.LiveRankingService` every hour, keeps a
FrogWild top-10 fresh, and shows the ranking following the activity as
it migrates between user communities.

Usage::

    python examples/activity_stream.py
"""

import numpy as np

from repro import FrogWildConfig
from repro.dynamic import ActivityWindow, DynamicDiGraph
from repro.live import LiveRankingService
from repro.metrics import top_k_jaccard

NUM_USERS = 2_000
HORIZON_HOURS = 6.0
MESSAGES_PER_HOUR = 4_000


def message_batch(rng, hour: int) -> np.ndarray:
    """Synthetic DM traffic: most messages target a 'hot' community
    that drifts over the day (morning crowd -> evening crowd)."""
    hot_base = (hour * 83) % NUM_USERS  # drifting hot community
    hot = (hot_base + rng.integers(0, 50, size=MESSAGES_PER_HOUR)) % NUM_USERS
    background = rng.integers(0, NUM_USERS, size=MESSAGES_PER_HOUR)
    targets = np.where(rng.random(MESSAGES_PER_HOUR) < 0.6, hot, background)
    sources = rng.integers(0, NUM_USERS, size=MESSAGES_PER_HOUR)
    batch = np.column_stack([sources, targets])
    return batch[batch[:, 0] != batch[:, 1]]


def main() -> None:
    rng = np.random.default_rng(0)
    window = ActivityWindow(NUM_USERS, horizon=HORIZON_HOURS)
    live = DynamicDiGraph(NUM_USERS)

    # Warm the window up with the first hour before ranking starts.
    live.apply(window.observe(message_batch(rng, 0), timestamp=0.0))
    service = LiveRankingService(
        live,
        config=FrogWildConfig(num_frogs=6_000, iterations=4, seed=0),
        num_machines=8,
        seed=0,
    )
    # No seeds: frogs born on every user, the uniform query that is
    # global PageRank.
    answer = service.query(None, k=10)

    print(f"{NUM_USERS:,} users, {HORIZON_HOURS:.0f}h window, "
          f"{MESSAGES_PER_HOUR:,} messages/hour\n")
    print(f"{'hour':>4} {'live edges':>10} {'jaccard':>8}  top-10 movers")
    jaccards = []
    total_bytes = answer.network_bytes
    for hour in range(1, 13):
        previous = answer.vertices
        delta = window.observe(message_batch(rng, hour), timestamp=float(hour))
        update = service.refresh(delta)
        answer = service.query(None, k=10)
        jaccards.append(top_k_jaccard(previous, answer.vertices))
        total_bytes += answer.network_bytes
        entered = sorted(set(answer.vertices.tolist()) - set(previous.tolist()))
        movers = f"+{entered}" if entered else "(unchanged)"
        print(
            f"{hour:>4} {update.num_edges:>10,} "
            f"{jaccards[-1]:>8.3f}  {movers}"
        )

    print(f"\nlist stability over the half day : "
          f"{np.mean(jaccards):.3f}")
    print(f"total refresh network            : "
          f"{total_bytes:,} bytes")
    print("\nThe hot community drifts every hour, the 6h window forgets "
          "old traffic,\nand the hourly FrogWild refresh keeps the "
          "ranking pointed at whoever is\nactually receiving attention "
          "right now — the [19] scenario end to end.")


if __name__ == "__main__":
    main()
