"""Serve a graph from disk: the out-of-core storage tier end to end.

Every graph in this repo so far lived in RAM as CSR arrays.  The
:class:`~repro.store.SegmentStore` moves the base edge set onto disk —
sorted ``source * n + target`` key runs in mmap'd segment files, keyed
by (machine, key-interval) so a shard's ingress scan opens only the
segments whose intervals intersect its window — while churn
accumulates in a small in-RAM delta layer until a compaction folds it
back into fresh segment files.  Behind the
:class:`~repro.store.GraphStore` protocol, the store is
interchangeable with :class:`~repro.graph.DiGraph` and
:class:`~repro.dynamic.DynamicDiGraph`: same ``edge_keys``/``scan``/
``snapshot``/``apply`` surface, same version counter, bit-for-bit.

This example walks the full lifecycle:

1. bulk-load a store from a synthetic graph and read it through
   window-pruned scans;
2. serve top-k rankings from the store and verify they are bitwise
   equal to the in-RAM service (the spilled serving tables are
   memory-mapped by construction, so a fresh process would pay RAM
   proportional to what it touches, not to the graph);
3. churn the store live — deltas, compaction, segment hygiene —
   through :class:`~repro.live.LiveRankingService`.

Usage::

    python examples/out_of_core.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro import FrogWildConfig
from repro.dynamic import ChurnGenerator
from repro.graph import twitter_like
from repro.live import LiveRankingService
from repro.serving import RankingService, ServiceConfig
from repro.store import SegmentStore, Window, scan_keys

NUM_VERTICES = 2_000
MACHINES = 4
CONFIG = FrogWildConfig(num_frogs=6_000, iterations=4, ps=1.0, seed=1)


def main() -> None:
    graph = twitter_like(n=NUM_VERTICES, seed=11)
    workdir = Path(tempfile.mkdtemp(prefix="repro-out-of-core-"))

    # -- 1. bulk load + window-pruned scans ---------------------------
    store = SegmentStore.create(
        workdir / "segments",
        source=graph,
        num_machines=MACHINES,  # align placement with the cluster
        segment_edges=4_096,
    )
    print(f"store: {store.num_edges:,} edges in "
          f"{len(store.segment_files())} segment files "
          f"({store.nbytes_on_disk() / 1e6:.1f} MB on disk)")

    window = Window(
        0, NUM_VERTICES // 4, machine=2, num_machines=MACHINES, salt=0
    )
    keys = store.scan(window)
    reference = scan_keys(graph.edge_keys(), NUM_VERTICES, window)
    stats = store.scan_stats
    print(f"shard scan: {keys.size:,} keys for machine 2's quarter "
          f"window, {stats.segments_scanned}/{stats.segments_considered} "
          f"segments opened ({stats.pruned_fraction():.0%} pruned), "
          f"matches reference: {np.array_equal(keys, reference)}")

    # -- 2. bitwise parity with the RAM serving tier ------------------
    seeds = (17, 400, 1_200)
    ram_service = RankingService(
        graph, ServiceConfig(config=CONFIG, num_machines=MACHINES, seed=3)
    )
    ram_answer = ram_service.query(seeds=seeds, k=10)
    ram_service.close()

    mapped_service = RankingService(
        None,
        ServiceConfig(
            config=CONFIG, num_machines=MACHINES, seed=3, store=store
        ),
    )
    mapped_answer = mapped_service.query(seeds=seeds, k=10)
    mapped_service.close()
    print(f"top-10 for seeds {seeds}: "
          f"{mapped_answer.vertices.tolist()}")
    print("bitwise equal to RAM tier  :",
          mapped_answer.vertices.tolist() == ram_answer.vertices.tolist()
          and mapped_answer.scores.tolist() == ram_answer.scores.tolist())

    # -- 3. live churn: delta layer, compaction, hygiene --------------
    live = LiveRankingService(
        config=CONFIG,
        num_machines=MACHINES,
        seed=3,
        store=store,
        compact_threshold=64,  # tiny, to show compactions happening
    )
    churn = ChurnGenerator(add_rate=0.02, remove_rate=0.01, seed=5)
    for tick in range(3):
        update = live.refresh(churn.step(live.source))
        print(f"tick {tick}: +{update.edges_added} -{update.edges_removed} "
              f"edges, epoch {update.epoch}, "
              f"delta layer {store.pending_delta} keys")
    stats = live.live_stats()
    print(f"compactions on the refresh path: "
          f"{int(stats['store_compactions'])}")
    print(f"orphaned segment files         : {len(store.sweep_orphans())}")
    live.stop()


if __name__ == "__main__":
    main()
