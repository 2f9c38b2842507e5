"""Serve FrogWild rankings from a pool of real worker processes.

Every other execution path in this repo *simulates* a cluster inside
one Python process.  :class:`~repro.serving.ProcessPoolBackend` is the
step beyond the simulation: one OS process per shard, the graph's CSR
arrays and every shard's replication table mapped into
``multiprocessing.shared_memory`` (zero pickling of graph state), and
per-lane counters streamed back over a measured record transport whose
byte count must reconcile exactly with the simulated
:class:`~repro.cluster.MessageSizeModel` pricing.

Because the pool inherits its shard layout and per-shard seeding from
:class:`~repro.serving.ShardedBackend`, its answers are **bitwise
identical** to the in-process sharded backend — the processes buy
wall-clock parallelism, never a different ranking.

This example builds a ranking service on each backend, answers the
same queries, verifies the scores agree, and prints the transport
reconciliation — then remaps the pool onto a second graph snapshot
to show the epoch-remap handshake.

Usage::

    python examples/process_backend.py
"""

import numpy as np

from repro import FrogWildConfig
from repro.graph import twitter_like
from repro.serving import (
    PoolEpoch,
    ProcessPoolBackend,
    RankingQuery,
    RankingService,
    ServiceConfig,
    ShardedBackend,
)

NUM_VERTICES = 2_000
WORKERS = 4
MACHINES = 8
CONFIG = FrogWildConfig(num_frogs=8_000, iterations=5, ps=0.8, seed=1)


def main() -> None:
    graph = twitter_like(n=NUM_VERTICES, seed=11)
    rng = np.random.default_rng(7)
    seed_sets = [
        sorted(rng.choice(NUM_VERTICES, size=2, replace=False).tolist())
        for _ in range(3)
    ]

    # One service per backend kind; "process" spins up WORKERS real
    # OS processes attached to shared-memory graph state.
    answers = {}
    for kind in ("sharded", "process"):
        service = RankingService(
            graph,
            ServiceConfig(
                config=CONFIG, num_machines=MACHINES, num_shards=WORKERS,
                backend=kind
            ),
        )
        try:
            answers[kind] = [
                service.query(seeds, k=10) for seeds in seed_sets
            ]
            if kind == "process":
                row = service.snapshot()
                print(
                    f"transport: {row['transport_sent_measured_bytes']:,.0f} "
                    f"measured bytes over {row['transport_sent_messages']:.0f} "
                    "frames, reconciles="
                    + ("yes" if row["transport_reconciles"] else "no")
                )
        finally:
            service.close()

    for seeds, sharded, process in zip(
        seed_sets, answers["sharded"], answers["process"]
    ):
        assert list(sharded.vertices) == list(process.vertices)
        top3 = [int(v) for v in process.vertices[:3]]
        print(f"seeds {seeds}: top-3 {top3} (bitwise equal across backends)")

    # Epoch remap: attach the new snapshot's tables as the next epoch
    # (workers map fresh shared segments), then retire the old epoch
    # (workers detach it and its segments are unlinked).
    snapshot = twitter_like(n=NUM_VERTICES, seed=12)
    tables = ShardedBackend(
        snapshot, num_shards=WORKERS, num_machines=MACHINES, seed=0
    ).replications
    with ProcessPoolBackend(
        graph, num_shards=WORKERS, num_machines=MACHINES, seed=0
    ) as pool:
        old = PoolEpoch(pool)
        pool.attach_epoch(snapshot, tables)
        old.retire()
        outcome = pool.run_batch(
            CONFIG, [RankingQuery(seeds=tuple(seed_sets[0]), k=5)]
        )
        top = outcome.lanes[0].estimate.top_k(5)
        print(f"after remap onto new snapshot: top-5 {top.tolist()}")


if __name__ == "__main__":
    main()
