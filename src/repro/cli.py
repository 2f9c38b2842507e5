"""Command-line interface: ``frogwild`` / ``python -m repro``.

Subcommands
-----------
``figure N``
    Re-run the reproduction of paper figure N (1–8), print its rows
    and optionally save them as JSON/CSV.
``run``
    Run FrogWild (or a baseline) once on a workload or an edge-list
    file and print the report plus the top-k vertices.
``info``
    Print workload statistics.
``ppr``
    Personalized PageRank for a seed set via seeded frog births.
``track``
    Track the top-k over a churning graph (the OSN scenario).
``faults``
    Run FrogWild under injected crashes / message loss.
``serve-bench``
    Benchmark the batched top-k serving layer against sequential
    single-query execution, then demonstrate the result cache.
``live-bench``
    Drive a churn stream against the live ranking service: incremental
    ingress maintenance, epoch swaps, exact cache invalidation.
``traffic-bench``
    Replay an open-loop traffic workload (Poisson / diurnal / burst)
    against the service on a virtual clock, once without and once with
    admission control, and report queue depth, shed/degrade rates,
    latency quantiles and the error bounds degraded answers carry.
``chaos-bench``
    Drive live traffic against a *real* multi-process pool while a
    chaos schedule SIGKILLs a shard worker mid-batch, and report
    recovery time, partial-answer rate, the widened error bounds
    partial answers carry, post-recovery bitwise equivalence and
    shared-memory hygiene.
"""

from __future__ import annotations

import argparse
import sys
import time

from . import __version__
from .core import FrogWildConfig, run_frogwild
from .experiments import (
    ALL_FIGURES,
    livejournal_workload,
    twitter_workload,
)
from .graph import read_edge_list, summarize
from .metrics import exact_identification, normalized_mass_captured
from .pagerank import exact_pagerank

__all__ = [
    "main",
    "build_parser",
    "add_service_args",
    "service_from_args",
    "store_from_args",
]


def add_service_args(
    parser: argparse.ArgumentParser,
    *,
    machines: int = 16,
    backend_default: str = "auto",
) -> None:
    """Install the service-construction flags every bench shares.

    ``--machines``, ``--backend``, ``--store`` and ``--store-dir`` get
    one spelling, one choice set and one help string across
    ``serve-bench`` / ``live-bench`` / ``traffic-bench`` /
    ``chaos-bench``, and :func:`service_from_args` /
    :func:`store_from_args` give them one resolution path, so the
    flags also *behave* identically.  Pinned by the golden ``--help``
    snapshots under ``tests/data/``.
    """
    parser.add_argument("--machines", type=int, default=machines)
    parser.add_argument(
        "--backend", choices=("auto", "local", "sharded", "process"),
        default=backend_default,
        help="execution backend: 'process' runs one OS process per shard "
             "over shared-memory graph state (real multi-core scale-out); "
             "'auto' picks local/sharded from --shards",
    )
    parser.add_argument(
        "--store", choices=("ram", "segment"), default="ram",
        help="graph storage tier: 'segment' serves through an on-disk "
             "segment store (out-of-core base edge set, in-RAM delta "
             "layer) instead of the in-RAM CSR",
    )
    parser.add_argument(
        "--store-dir", metavar="DIR", default=None,
        help="segment-store directory for --store segment: reopened if "
             "a manifest exists there, otherwise created from the "
             "workload graph (default: a fresh temporary directory)",
    )


def store_from_args(args, graph):
    """The :class:`~repro.store.SegmentStore` the shared ``--store`` /
    ``--store-dir`` flags ask for, or ``None`` for the RAM tier."""
    if getattr(args, "store", "ram") != "segment":
        return None
    import tempfile
    from pathlib import Path

    from .store import SegmentStore

    directory = args.store_dir or tempfile.mkdtemp(prefix="repro-segments-")
    if (Path(directory) / "manifest.json").exists():
        return SegmentStore(directory)
    return SegmentStore.create(
        directory,
        source=graph,
        num_machines=args.machines,
        salt=args.seed or 0,
    )


def service_from_args(graph, config, args, **overrides):
    """Build the :class:`~repro.serving.RankingService` a bench asked for.

    One resolution path for the flags :func:`add_service_args`
    installs — ``--backend auto``, the storage tier — normalized into
    a :class:`~repro.serving.ServiceConfig` and built via
    ``RankingService.from_config``.  ``overrides`` are
    command-specific config fields (cache sizing, clocks, admission,
    an explicit backend...).
    """
    from .serving import RankingService, ServiceConfig

    kwargs = dict(
        config=config,
        num_machines=args.machines,
        seed=args.seed,
        num_shards=getattr(args, "shards", 1) or 1,
        backend=(
            None if getattr(args, "backend", "auto") == "auto"
            else args.backend
        ),
    )
    if "store" not in overrides:
        kwargs["store"] = store_from_args(args, graph)
    kwargs.update(overrides)
    service_config = ServiceConfig(**kwargs)
    out_of_core = getattr(service_config.store, "out_of_core", False)
    return RankingService.from_config(
        None if out_of_core else graph, service_config
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frogwild",
        description=(
            "FrogWild! fast top-k PageRank approximation "
            "(VLDB 2015 reproduction)"
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fig = sub.add_parser("figure", help="reproduce a paper figure")
    fig.add_argument("number", choices=sorted(ALL_FIGURES))
    fig.add_argument(
        "--twitter-n", type=int, default=20_000,
        help="vertices in the Twitter-like workload",
    )
    fig.add_argument(
        "--livejournal-n", type=int, default=10_000,
        help="vertices in the LiveJournal-like workload",
    )
    fig.add_argument("--seed", type=int, default=0)
    fig.add_argument("--save-json", metavar="PATH")
    fig.add_argument("--save-csv", metavar="PATH")

    run = sub.add_parser("run", help="run one algorithm once")
    run.add_argument(
        "--workload", choices=("twitter", "livejournal"), default="twitter"
    )
    run.add_argument("--edge-list", help="SNAP edge-list file (overrides --workload)")
    run.add_argument("--n", type=int, default=20_000, help="synthetic graph size")
    run.add_argument(
        "--algorithm",
        choices=("frogwild", "graphlab", "graphlab-exact"),
        default="frogwild",
    )
    run.add_argument(
        "--partitioner",
        choices=("random", "oblivious", "grid", "hdrf", "stable-hash"),
        default="random",
    )
    run.add_argument("--frogs", type=int, default=None)
    run.add_argument("--iterations", type=int, default=4)
    run.add_argument("--ps", type=float, default=1.0)
    run.add_argument("--machines", type=int, default=16)
    run.add_argument("--top-k", type=int, default=10)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument(
        "--accuracy", action="store_true",
        help="also compute exact PageRank and report accuracy",
    )

    info = sub.add_parser("info", help="describe a workload graph")
    info.add_argument(
        "--workload", choices=("twitter", "livejournal"), default="twitter"
    )
    info.add_argument("--edge-list")
    info.add_argument("--n", type=int, default=20_000)

    ppr = sub.add_parser(
        "ppr", help="personalized PageRank for a seed set (FrogWild)"
    )
    ppr.add_argument("seeds", type=int, nargs="+", help="seed vertex ids")
    ppr.add_argument(
        "--workload", choices=("twitter", "livejournal"), default="twitter"
    )
    ppr.add_argument("--edge-list")
    ppr.add_argument("--n", type=int, default=20_000)
    ppr.add_argument("--frogs", type=int, default=None)
    ppr.add_argument("--iterations", type=int, default=8)
    ppr.add_argument("--ps", type=float, default=1.0)
    ppr.add_argument("--machines", type=int, default=16)
    ppr.add_argument("--top-k", type=int, default=10)
    ppr.add_argument("--seed", type=int, default=0)

    track = sub.add_parser(
        "track", help="track the top-k over a churning graph (OSN scenario)"
    )
    track.add_argument(
        "--workload", choices=("twitter", "livejournal"), default="twitter"
    )
    track.add_argument("--edge-list")
    track.add_argument("--n", type=int, default=10_000)
    track.add_argument("--k", type=int, default=20)
    track.add_argument("--ticks", type=int, default=5)
    track.add_argument("--add-rate", type=float, default=0.01)
    track.add_argument("--remove-rate", type=float, default=0.01)
    track.add_argument("--frogs", type=int, default=None)
    track.add_argument("--iterations", type=int, default=4)
    track.add_argument("--machines", type=int, default=8)
    track.add_argument("--seed", type=int, default=0)

    faults = sub.add_parser(
        "faults", help="run FrogWild under injected crashes / message loss"
    )
    faults.add_argument(
        "--workload", choices=("twitter", "livejournal"), default="twitter"
    )
    faults.add_argument("--edge-list")
    faults.add_argument("--n", type=int, default=20_000)
    faults.add_argument(
        "--crash", type=int, action="append", default=[],
        metavar="MACHINE", help="crash this machine at superstep 1 (repeatable)",
    )
    faults.add_argument("--crash-step", type=int, default=1)
    faults.add_argument(
        "--no-rebirth", action="store_true",
        help="lost frogs stay lost instead of being reborn uniformly",
    )
    faults.add_argument("--drop", type=float, default=0.0,
                        help="in-flight frog loss probability")
    faults.add_argument("--frogs", type=int, default=None)
    faults.add_argument("--iterations", type=int, default=4)
    faults.add_argument("--ps", type=float, default=1.0)
    faults.add_argument("--machines", type=int, default=8)
    faults.add_argument("--top-k", type=int, default=10)
    faults.add_argument("--seed", type=int, default=0)

    serve = sub.add_parser(
        "serve-bench",
        help="benchmark the batched top-k serving layer",
    )
    serve.add_argument(
        "--workload", choices=("twitter", "livejournal", "rmat"), default="rmat"
    )
    serve.add_argument("--edge-list")
    serve.add_argument("--n", type=int, default=20_000)
    serve.add_argument(
        "--rmat-scale", type=int, default=13,
        help="log2 vertices of the RMAT workload",
    )
    serve.add_argument("--queries", type=int, default=16,
                       help="number of personalized queries to serve")
    serve.add_argument("--batch-size", type=int, default=16)
    serve.add_argument("--seeds-per-query", type=int, default=3)
    serve.add_argument("--frogs", type=int, default=3_000)
    serve.add_argument("--iterations", type=int, default=5)
    serve.add_argument("--ps", type=float, default=0.8)
    serve.add_argument(
        "--sync-mode", choices=("per-lane", "shared"), default="per-lane",
        help="'shared' flips one ps coin stream for the whole batch: one "
             "sync record per (vertex, mirror) per barrier regardless of "
             "the batch size (adds cross-query correlation)",
    )
    serve.add_argument(
        "--wire-dedupe", action="store_true",
        help="lanes targeting the same (host, destination) share one "
             "physical frog record, attributed back proportionally",
    )
    serve.add_argument(
        "--shards", type=int, default=1,
        help="split the machine fleet into this many shard sub-clusters "
             "and fan every batch out across them",
    )
    add_service_args(serve, machines=16)
    serve.add_argument(
        "--max-delay-ms", type=float, default=None,
        help="also demo the deadline scheduler: trickle queries in one "
             "per millisecond under this batching deadline",
    )
    serve.add_argument("--top-k", type=int, default=10)
    serve.add_argument("--seed", type=int, default=0)

    live = sub.add_parser(
        "live-bench",
        help="serve a churning graph: incremental refresh + epoch swaps",
    )
    live.add_argument(
        "--workload",
        choices=("twitter", "livejournal", "rmat"),
        default="twitter",
    )
    live.add_argument("--edge-list")
    live.add_argument("--n", type=int, default=2_000)
    live.add_argument("--rmat-scale", type=int, default=10,
                      help="log2 vertices for --workload rmat")
    live.add_argument("--ticks", type=int, default=4,
                      help="churn batches to apply (one refresh each)")
    live.add_argument("--add-rate", type=float, default=0.01)
    live.add_argument("--remove-rate", type=float, default=0.01)
    live.add_argument("--queries", type=int, default=6,
                      help="personalized queries re-served every epoch")
    live.add_argument("--seeds-per-query", type=int, default=2)
    live.add_argument("--frogs", type=int, default=2_000)
    live.add_argument("--iterations", type=int, default=4)
    live.add_argument(
        "--shards", type=int, default=None,
        help="shard sub-clusters (default: autotuned from fleet and "
             "frog budget)",
    )
    add_service_args(live, machines=8)
    live.add_argument(
        "--rebalance-threshold", type=float, default=2.0,
        help="load-imbalance bound triggering a full re-salted "
             "repartition",
    )
    live.add_argument("--top-k", type=int, default=10)
    live.add_argument("--seed", type=int, default=0)
    live.add_argument(
        "--background", action="store_true",
        help="build epochs on the background refresher's worker thread "
             "(deltas coalesce; the query path pays only the swap)",
    )
    live.add_argument(
        "--save-json", metavar="PATH",
        help="merge a machine-readable perf record into this JSON file "
             "(default name BENCH_serving.json)",
    )

    traffic = sub.add_parser(
        "traffic-bench",
        help="replay open-loop traffic against the serving layer, with "
             "and without admission control, on a virtual clock",
    )
    traffic.add_argument("--n", type=int, default=400,
                         help="vertices of the twitter-like graph")
    traffic.add_argument("--users", type=int, default=400,
                         help="Zipf-popular user population size")
    traffic.add_argument("--seeds-per-user", type=int, default=2)
    traffic.add_argument("--frogs", type=int, default=2_000)
    traffic.add_argument("--iterations", type=int, default=4)
    add_service_args(traffic, machines=8)
    traffic.add_argument("--batch-size", type=int, default=4)
    traffic.add_argument("--max-delay-ms", type=float, default=50.0)
    traffic.add_argument("--cache-ttl-s", type=float, default=0.5)
    traffic.add_argument(
        "--arrivals", choices=("burst", "poisson", "diurnal"),
        default="burst",
    )
    traffic.add_argument("--base-qps", type=float, default=3.0)
    traffic.add_argument("--burst-qps", type=float, default=300.0,
                         help="burst (or diurnal peak / poisson) rate")
    traffic.add_argument("--burst-start-s", type=float, default=2.0)
    traffic.add_argument("--burst-duration-s", type=float, default=1.5)
    traffic.add_argument("--duration-s", type=float, default=6.0)
    traffic.add_argument(
        "--service-time-scale", type=float, default=25.0,
        help="calibration from simulated batch makespan to harness "
             "service time; >1 pushes the burst past modeled capacity",
    )
    traffic.add_argument("--max-pending", type=int, default=16,
                         help="admission bound on scheduler queue depth")
    traffic.add_argument("--top-k", type=int, default=10)
    traffic.add_argument("--seed", type=int, default=0)
    traffic.add_argument(
        "--smoke", action="store_true",
        help="pin every knob to the deterministic acceptance scenario "
             "(ignores other scenario flags; what the CI lane runs)",
    )
    traffic.add_argument(
        "--save-json", metavar="PATH",
        help="merge a machine-readable perf record into this JSON file "
             "(default name BENCH_serving.json)",
    )

    chaos = sub.add_parser(
        "chaos-bench",
        help="drive live traffic against a real process pool while "
             "killing shard workers, and measure recovery time, "
             "partial-answer rate and accuracy against a healthy pool",
    )
    chaos.add_argument("--n", type=int, default=400,
                       help="vertices of the twitter-like graph")
    chaos.add_argument("--users", type=int, default=64,
                       help="Zipf-popular user population size")
    chaos.add_argument("--seeds-per-user", type=int, default=2)
    chaos.add_argument("--frogs", type=int, default=2_000)
    chaos.add_argument("--iterations", type=int, default=3)
    chaos.add_argument("--shards", type=int, default=4,
                       help="worker processes in the pool")
    add_service_args(chaos, machines=8, backend_default="process")
    chaos.add_argument("--batch-size", type=int, default=4)
    chaos.add_argument("--max-delay-ms", type=float, default=20.0)
    chaos.add_argument("--qps", type=float, default=40.0,
                       help="Poisson arrival rate of the load")
    chaos.add_argument("--duration-s", type=float, default=3.0)
    chaos.add_argument("--timeout-s", type=float, default=15.0,
                       help="pool's per-operation worker deadline")
    chaos.add_argument("--kill-shard", type=int, default=1,
                       help="victim shard whose worker gets SIGKILL'd")
    chaos.add_argument(
        "--kill-at-s", type=float, default=1.0,
        help="when the SIGKILL lands; a reply-delay is injected 0.5 s "
             "earlier so the kill deterministically hits mid-batch",
    )
    chaos.add_argument("--top-k", type=int, default=10)
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument(
        "--smoke", action="store_true",
        help="pin every knob to the deterministic acceptance scenario "
             "(ignores other scenario flags; what the CI lane runs)",
    )
    chaos.add_argument(
        "--save-json", metavar="PATH",
        help="merge a machine-readable perf record into this JSON file "
             "(default name BENCH_serving.json)",
    )
    return parser


def _load_graph(args):
    if getattr(args, "edge_list", None):
        return read_edge_list(args.edge_list)
    if getattr(args, "workload", None) == "rmat":
        from .graph import rmat

        return rmat(scale=args.rmat_scale, seed=args.seed)
    if args.workload == "twitter":
        return twitter_workload(n=args.n).graph
    return livejournal_workload(n=args.n).graph


def _cmd_figure(args) -> int:
    if args.number in ("1", "2", "3", "4", "5"):
        workload = twitter_workload(n=args.twitter_n)
    else:
        workload = livejournal_workload(n=args.livejournal_n)
    start = time.perf_counter()
    result = ALL_FIGURES[args.number](workload, seed=args.seed)
    print(result.to_text())
    print(f"(reproduced in {time.perf_counter() - start:.1f}s wall time)")
    if args.save_json:
        from .experiments import save_figure_json

        print(f"saved JSON to {save_figure_json(result, args.save_json)}")
    if args.save_csv:
        from .experiments import save_rows_csv

        print(f"saved CSV to {save_rows_csv(result.rows, args.save_csv)}")
    return 0


def _cmd_run(args) -> int:
    graph = _load_graph(args)
    frogs = args.frogs or max(2_000, graph.num_vertices // 2)
    if args.algorithm == "frogwild":
        config = FrogWildConfig(
            num_frogs=frogs,
            iterations=args.iterations,
            ps=args.ps,
            seed=args.seed,
        )
        result = run_frogwild(
            graph,
            config,
            num_machines=args.machines,
            partitioner=args.partitioner,
        )
        report = result.report
        ranking = result.estimate.vector()
        top = result.estimate.top_k(args.top_k)
    else:
        from .pagerank import graphlab_pagerank

        iterations = None if args.algorithm == "graphlab-exact" else args.iterations
        pr = graphlab_pagerank(
            graph,
            num_machines=args.machines,
            iterations=iterations,
            partitioner=args.partitioner,
            seed=args.seed,
        )
        report = pr.report
        ranking = pr.ranks
        top = pr.top_k(args.top_k)

    print(f"algorithm        : {report.algorithm}")
    print(f"machines         : {report.num_machines}")
    print(f"supersteps       : {report.supersteps}")
    print(f"total time (sim) : {report.total_time_s:.4f} s")
    print(f"time/iteration   : {report.time_per_iteration_s:.4f} s")
    print(f"network sent     : {report.network_bytes:,} bytes")
    print(f"cpu usage        : {report.cpu_seconds:.4f} s")
    print(f"top-{args.top_k} vertices  : {top.tolist()}")
    if args.accuracy:
        truth = exact_pagerank(graph)
        mass = normalized_mass_captured(ranking, truth, max(args.top_k, 1))
        exact = exact_identification(ranking, truth, max(args.top_k, 1))
        print(f"mass captured    : {mass:.4f}")
        print(f"exact id         : {exact:.4f}")
    return 0


def _cmd_info(args) -> int:
    graph = _load_graph(args)
    summary = summarize(graph)
    for key, value in summary.as_dict().items():
        print(f"{key:26s}: {value}")
    return 0


def _cmd_ppr(args) -> int:
    import numpy as np

    from .core import run_personalized_frogwild

    graph = _load_graph(args)
    seeds = np.asarray(args.seeds, dtype=np.int64)
    frogs = args.frogs or max(4_000, graph.num_vertices)
    config = FrogWildConfig(
        num_frogs=frogs,
        iterations=args.iterations,
        ps=args.ps,
        seed=args.seed,
    )
    result = run_personalized_frogwild(
        graph, seeds, config, num_machines=args.machines
    )
    top = result.estimate.top_k(args.top_k)
    distribution = result.estimate.distribution()
    print(f"personalized PageRank for seeds {seeds.tolist()}")
    print(f"network sent     : {result.report.network_bytes:,} bytes")
    print(f"total time (sim) : {result.report.total_time_s:.4f} s")
    for position, vertex in enumerate(top, start=1):
        print(f"  #{position:>2}  vertex {vertex:>7}  "
              f"score {distribution[vertex]:.5f}")
    return 0


def _cmd_track(args) -> int:
    from .dynamic import ChurnGenerator, DynamicDiGraph, PageRankTracker
    from .experiments import format_table

    base = _load_graph(args)
    dynamic = DynamicDiGraph.from_digraph(base)
    frogs = args.frogs or max(2_000, base.num_vertices)
    tracker = PageRankTracker(
        dynamic,
        k=args.k,
        config=FrogWildConfig(
            num_frogs=frogs, iterations=args.iterations, seed=args.seed
        ),
        num_machines=args.machines,
        seed=args.seed,
    )
    churn = ChurnGenerator(
        add_rate=args.add_rate, remove_rate=args.remove_rate, seed=args.seed
    )
    for _ in range(args.ticks):
        tracker.update(churn.step(dynamic))
    rows = [
        {
            "tick": u.step,
            "edges": u.num_edges,
            "+edges": u.edges_added,
            "-edges": u.edges_removed,
            "jaccard": u.jaccard_vs_previous,
            "ingress": u.new_edge_placements,
            "net bytes": u.network_bytes,
            "time (s)": u.total_time_s,
        }
        for u in tracker.history
    ]
    print(format_table(rows, title=f"top-{args.k} tracking under churn"))
    print(f"list stability     : {tracker.churn_stability():.3f}")
    print(f"total network      : {tracker.total_network_bytes():,} bytes")
    print(f"current top-{args.k}: {tracker.current_top_k.tolist()}")
    return 0


def _cmd_faults(args) -> int:
    from .faults import (
        FaultSchedule,
        MachineCrash,
        MessageDrop,
        run_frogwild_with_faults,
    )

    graph = _load_graph(args)
    frogs = args.frogs or max(2_000, graph.num_vertices // 2)
    schedule = FaultSchedule(
        crashes=tuple(
            MachineCrash(
                step=args.crash_step,
                machine=machine,
                rebirth=not args.no_rebirth,
            )
            for machine in args.crash
        ),
        message_drop=MessageDrop(args.drop) if args.drop else None,
    )
    config = FrogWildConfig(
        num_frogs=frogs, iterations=args.iterations, ps=args.ps,
        seed=args.seed,
    )
    result, log = run_frogwild_with_faults(
        graph, schedule, config, num_machines=args.machines
    )
    truth = exact_pagerank(graph)
    mass = normalized_mass_captured(
        result.estimate.vector(), truth, args.top_k
    )
    print(f"crashed machines      : {log.crashed_machines or 'none'}")
    print(f"frogs lost to crashes : {log.frogs_lost_to_crashes:,}")
    print(f"frogs reborn          : {log.frogs_reborn:,}")
    print(f"frogs dropped in-flight: {log.frogs_dropped_in_flight:,}")
    print(f"net frogs lost        : {log.net_frogs_lost:,}")
    print(f"frogs counted         : {result.estimate.total_stopped:,}"
          f" / {frogs:,}")
    print(f"mass captured (k={args.top_k})  : {mass:.4f}")
    print(f"top-{args.top_k}: {result.estimate.top_k(args.top_k).tolist()}")
    return 0


def _cmd_serve_bench(args) -> int:
    import numpy as np

    from .cluster import make_partitioner
    from .core import run_personalized_frogwild
    from .engine import build_cluster
    from .serving import RankingQuery, RankingService

    if args.workload == "rmat" and not args.edge_list:
        from .graph import rmat

        graph = rmat(scale=args.rmat_scale, seed=args.seed)
    else:
        graph = _load_graph(args)
    config = FrogWildConfig(
        num_frogs=args.frogs,
        iterations=args.iterations,
        ps=args.ps,
        seed=args.seed,
        sync_mode=args.sync_mode,
        wire_dedupe=args.wire_dedupe,
    )
    if args.sync_mode == "shared" or args.wire_dedupe:
        print(
            f"kernel modes              : sync={args.sync_mode}, "
            f"wire-dedupe={'on' if args.wire_dedupe else 'off'}"
        )
    rng = np.random.default_rng(args.seed)
    seed_sets = [
        np.sort(
            rng.choice(
                graph.num_vertices, size=args.seeds_per_query, replace=False
            )
        )
        for _ in range(args.queries)
    ]
    service = service_from_args(
        graph,
        config,
        args,
        max_batch_size=args.batch_size,
        cache_capacity=max(256, 2 * args.queries),
    )
    if args.store == "segment":
        print(f"storage tier              : segment store at "
              f"{service.store.directory}")
    layout = (
        f"{service.num_shards} shards x "
        f"{service.backend.machines_per_shard} machines"
        if service.num_shards > 1
        else f"{args.machines} machines"
    )
    backend_kind = type(service.backend).__name__
    print(
        f"workload: {graph.num_vertices:,} vertices, "
        f"{graph.num_edges:,} edges on {layout} ({backend_kind})"
    )

    # Sequential baseline: one traversal per query over one shared
    # ingress partition.
    if service.replication is not None:
        baseline_partition = service.replication.partition
    else:
        baseline_partition = make_partitioner("random", args.seed).partition(
            graph, args.machines
        )
    start = time.perf_counter()
    sequential = []
    for seeds in seed_sets:
        state = build_cluster(
            graph,
            args.machines,
            seed=args.seed,
            partition=baseline_partition,
        )
        sequential.append(
            run_personalized_frogwild(graph, seeds, config, state=state)
        )
    sequential_s = time.perf_counter() - start

    queries = [
        RankingQuery(seeds=tuple(seeds.tolist()), k=args.top_k)
        for seeds in seed_sets
    ]
    start = time.perf_counter()
    answers = service.query_batch(queries)
    batched_s = time.perf_counter() - start

    start = time.perf_counter()
    reheated = service.query_batch(queries)
    cached_s = time.perf_counter() - start

    print(f"sequential ({args.queries} queries) : {sequential_s:.3f} s")
    print(f"batched    (batch<={args.batch_size:3d})     : {batched_s:.3f} s"
          f"  ({batched_s / sequential_s:.2f}x)")
    print(f"cache-hit replay          : {cached_s:.3f} s"
          f"  ({cached_s / sequential_s:.2f}x)")
    stats = service.stats
    print(f"batches run               : {stats.batches_run} "
          f"(sizes {stats.batch_sizes})")
    print(f"wire bytes (shared)       : {stats.shared_network_bytes:,}")
    print(f"wire bytes (attributed)   : {stats.attributed_network_bytes:,}")
    print(f"amortization ratio        : {stats.amortization_ratio():.3f}")
    for shard, costs in stats.shard_breakdown().items():
        print(f"  shard {shard}: "
              f"{int(costs['shared_network_bytes']):,} shared bytes, "
              f"{int(costs['attributed_network_bytes']):,} attributed, "
              f"{costs['cpu_seconds']:.4f} cpu-s")
    transport = getattr(service.backend, "transport_summary", None)
    if callable(transport):
        summary = transport()
        print(f"transport bytes (measured): "
              f"{int(summary['sent_measured_bytes']):,} over "
              f"{int(summary['sent_messages'])} frames, "
              f"reconciles={'yes' if summary['reconciles'] else 'no'}")
    print(f"cache                     : {service.cache_stats()}")
    misses = sum(not answer.cached for answer in reheated)
    if misses:
        print(f"  warning: {misses}/{len(reheated)} replayed queries "
              "re-executed — raise the service cache capacity above "
              f"{args.queries} to serve repeats from cache")
    for answer, single in zip(answers, sequential):
        agreement = len(
            set(answer.vertices.tolist())
            & set(single.estimate.top_k(args.top_k).tolist())
        ) / args.top_k
        if agreement < 1.0:
            print(f"  note: top-{args.top_k} overlap vs sequential "
                  f"{agreement:.0%} for seeds {answer.query.seeds}")
    print(f"sample answer             : seeds {answers[0].query.seeds} -> "
          f"{answers[0].vertices.tolist()}")

    if args.max_delay_ms is not None:
        from .serving import VirtualClock

        # Trickle demo: queries arrive one per (virtual) millisecond;
        # the deadline scheduler still forms real batches instead of
        # executing each arrival alone.
        clock = VirtualClock()
        trickle = RankingService(
            graph,
            config,
            num_machines=args.machines,
            max_batch_size=args.batch_size,
            cache_capacity=max(256, 2 * args.queries),
            seed=args.seed,
            backend=service.backend,  # reuse the paid ingress
            max_delay_s=args.max_delay_ms / 1000.0,
            clock=clock,
        )
        futures = []
        for seeds in seed_sets:
            futures.append(
                trickle.submit(tuple(seeds.tolist()), k=args.top_k)
            )
            clock.advance(0.001)
            trickle.pump()
        trickle.flush()
        assert all(future.done() for future in futures)
        sched = trickle.scheduler.stats
        print(f"\ntrickle (1 query/ms, {args.max_delay_ms:g} ms deadline)")
        print(f"scheduled batch sizes     : {trickle.stats.batch_sizes}")
        print(f"dispatch reasons          : {sched.fill_dispatches} fill, "
              f"{sched.deadline_dispatches} deadline, "
              f"{sched.flush_dispatches} flush")
        print("amortization ratio        : "
              f"{trickle.stats.amortization_ratio():.3f}")
    # Tear down worker processes / shared segments (no-op otherwise).
    service.close()
    return 0


def _cmd_live_bench(args) -> int:
    import numpy as np

    from .dynamic import ChurnGenerator, DynamicDiGraph
    from .experiments import format_table
    from .live import LiveRankingService
    from .metrics import top_k_jaccard
    from .serving import RankingQuery

    base = _load_graph(args)
    config = FrogWildConfig(
        num_frogs=args.frogs, iterations=args.iterations, seed=args.seed
    )
    # The shared --store flag swaps the churn source: RAM twin or the
    # on-disk segment store (deltas land in its delta layer and the
    # refresh pipeline compacts them off the query path).
    store = store_from_args(args, base)
    dynamic = None if store is not None else DynamicDiGraph.from_digraph(base)
    service = LiveRankingService(
        dynamic,
        config=config,
        num_machines=args.machines,
        num_shards=args.shards,
        rebalance_threshold=args.rebalance_threshold,
        seed=args.seed,
        execution="process" if args.backend == "process" else "simulated",
        store=store,
    )
    if store is not None:
        print(f"storage tier              : segment store at "
              f"{store.directory}")
    churn = ChurnGenerator(
        add_rate=args.add_rate, remove_rate=args.remove_rate, seed=args.seed
    )
    rng = np.random.default_rng(args.seed)
    queries = [
        RankingQuery(
            seeds=tuple(
                np.sort(rng.choice(
                    base.num_vertices, size=args.seeds_per_query,
                    replace=False,
                )).tolist()
            ),
            k=args.top_k,
        )
        for _ in range(args.queries)
    ]

    layout = (
        f"{service.num_shards} shards x "
        f"{service._machines_per_ingress} machines"
        if service.num_shards > 1
        else f"{args.machines} machines"
    )
    print(
        f"live workload: {base.num_vertices:,} vertices, "
        f"{base.num_edges:,} edges on {layout}"
    )

    if args.background:
        return _live_bench_background(
            args, service, churn, service.source, queries
        )

    start = time.perf_counter()
    rows = []
    previous_tops: list | None = None
    for _ in range(args.ticks + 1):
        answers = service.query_batch(queries)
        replays = service.query_batch(queries)
        tops = [answer.vertices for answer in answers]
        stability = (
            float(np.mean([
                top_k_jaccard(old, new)
                for old, new in zip(previous_tops, tops)
            ]))
            if previous_tops is not None
            else 1.0
        )
        previous_tops = tops
        epoch = service.current_epoch
        rows.append({
            "epoch": epoch.epoch_id,
            "edges": epoch.num_edges,
            "reuse": (
                service.refresh_history[-1].reuse_ratio
                if service.refresh_history else 1.0
            ),
            "new place": (
                service.refresh_history[-1].new_placements
                if service.refresh_history else epoch.num_edges
            ),
            "imbalance": (
                service.refresh_history[-1].load_imbalance
                if service.refresh_history
                else max(i.load_imbalance() for i in service.ingresses)
            ),
            "jaccard": stability,
            "replay hit": all(a.cached for a in replays),
        })
        if len(rows) <= args.ticks:
            service.refresh(churn.step(service.source))
    wall_s = time.perf_counter() - start

    print(format_table(
        rows, title=f"live top-{args.top_k} serving under churn"
    ))
    live = service.live_stats()
    stats = service.stats
    print(f"epochs published          : {int(live['epochs_published'])}")
    print(f"lifetime placement reuse  : {live['lifetime_reuse_ratio']:.4f}")
    print(f"full repartitions         : {int(live['full_repartitions'])}")
    print(f"queries served / executed : {stats.queries_served} / "
          f"{stats.queries_executed}")
    print(f"amortization ratio        : {stats.amortization_ratio():.3f}")
    print(f"batches per epoch         : "
          f"{dict(sorted(service.epochs.batches_per_epoch.items()))}")
    print(f"wall time                 : {wall_s:.3f} s")
    if args.save_json:
        from .experiments import record_perf

        path = record_perf(
            "live-bench",
            {
                "wall_time_s": wall_s,
                "ticks": args.ticks,
                "epochs_published": live["epochs_published"],
                "lifetime_reuse_ratio": live["lifetime_reuse_ratio"],
                "amortization_ratio": stats.amortization_ratio(),
                "queries_executed": stats.queries_executed,
            },
            path=args.save_json,
        )
        print(f"perf record merged into {path}")
    return 0


def _live_bench_background(args, service, churn, dynamic, queries) -> int:
    """live-bench with the off-query-path refresher driving epochs."""
    start = time.perf_counter()
    cold = service.query_batch(queries)
    replays = service.query_batch(queries)
    print(f"epoch {service.current_epoch.epoch_id}: "
          f"{len(cold)} cold queries, replay hits "
          f"{all(a.cached for a in replays)}")

    service.start_refresher()
    tickets = service.attach(churn, ticks=args.ticks, background=True)
    updates = [ticket.result(timeout=300.0) for ticket in tickets]
    final = service.query_batch(queries)
    service.stop()
    wall_s = time.perf_counter() - start

    stats = service.refresher.stats
    live = service.live_stats()
    distinct = list({id(u): u for u in updates}.values())
    print(f"deltas submitted          : {stats.deltas_submitted}")
    print(f"background builds         : {stats.builds} "
          f"(max coalesce {stats.max_coalesced})")
    print(f"epochs published          : {int(live['epochs_published'])}")
    print(f"publishes mid-flight      : "
          f"{int(live['publishes_mid_flight'])}")
    print(f"mean build time           : {stats.mean_build_s() * 1e3:.2f} ms")
    print(f"publish p50 (query path)  : "
          f"{stats.publish_p50_s() * 1e6:.1f} us")
    print(f"lifetime placement reuse  : {live['lifetime_reuse_ratio']:.4f}")
    print(f"table rebuilds            : {int(live['table_rebuilds'])}")
    print(f"final epoch stamp         : "
          f"{int(final[0].report.extra['epoch'])} "
          f"(source version {service.source.version})")
    print(f"wall time                 : {wall_s:.3f} s")
    if args.save_json:
        from .experiments import record_perf

        path = record_perf(
            "live-bench",
            {
                "wall_time_s": wall_s,
                "ticks": args.ticks,
                "background_builds": stats.builds,
                "deltas_coalesced": stats.deltas_coalesced,
                "mean_build_s": stats.mean_build_s(),
                "publish_p50_s": stats.publish_p50_s(),
                "epochs_published": live["epochs_published"],
                "epochs_covered": len(distinct),
                "lifetime_reuse_ratio": live["lifetime_reuse_ratio"],
                "table_rebuilds": live["table_rebuilds"],
            },
            path=args.save_json,
        )
        print(f"perf record merged into {path}")
    return 0


def _traffic_scenario(args):
    """Build (graph, config, workload, service factory inputs) once."""
    from .graph.generators import twitter_like
    from .traffic import (
        BurstArrivals,
        DiurnalArrivals,
        PoissonArrivals,
        TrafficWorkload,
        UserPopulation,
    )

    graph = twitter_like(n=args.n, seed=7)
    config = FrogWildConfig(
        num_frogs=args.frogs, iterations=args.iterations, seed=args.seed
    )
    population = UserPopulation(
        num_users=args.users,
        num_vertices=graph.num_vertices,
        seeds_per_user=args.seeds_per_user,
        k=args.top_k,
        seed=1,
    )
    if args.arrivals == "poisson":
        arrivals = PoissonArrivals(rate_qps=args.burst_qps, seed=2)
    elif args.arrivals == "diurnal":
        arrivals = DiurnalArrivals(
            trough_qps=args.base_qps,
            peak_qps=args.burst_qps,
            period_s=args.duration_s,
            seed=2,
        )
    else:
        arrivals = BurstArrivals(
            base_qps=args.base_qps,
            burst_qps=args.burst_qps,
            burst_start_s=args.burst_start_s,
            burst_duration_s=args.burst_duration_s,
            seed=2,
        )
    workload = TrafficWorkload(population, arrivals, seed=3)
    return graph, config, workload


def _cmd_traffic_bench(args) -> int:
    from .serving import VirtualClock
    from .traffic import AdmissionController, TrafficHarness

    if args.smoke:
        # The deterministic acceptance scenario the tests pin: a 100x
        # flash crowd against a single modeled server, rho > 1 during
        # the burst.
        for name, value in (
            ("n", 400), ("users", 400), ("seeds_per_user", 2),
            ("frogs", 2_000), ("iterations", 4), ("machines", 8),
            ("batch_size", 4), ("max_delay_ms", 50.0),
            ("cache_ttl_s", 0.5), ("arrivals", "burst"),
            ("base_qps", 3.0), ("burst_qps", 300.0),
            ("burst_start_s", 2.0), ("burst_duration_s", 1.5),
            ("duration_s", 6.0), ("service_time_scale", 25.0),
            ("max_pending", 16), ("top_k", 10), ("seed", 0),
        ):
            setattr(args, name, value)
    graph, config, workload = _traffic_scenario(args)

    def build_service(admission):
        return service_from_args(
            graph,
            config,
            args,
            max_batch_size=args.batch_size,
            max_delay_s=args.max_delay_ms / 1000.0,
            cache_ttl_s=args.cache_ttl_s,
            cache_capacity=max(256, 2 * args.users),
            clock=VirtualClock(),
            admission=admission,
        )

    print(
        f"workload: {graph.num_vertices:,} vertices, "
        f"{args.users} users, {args.arrivals} arrivals "
        f"(peak {workload.arrivals.peak_rate:g} qps) over "
        f"{args.duration_s:g} virtual seconds"
    )

    open_loop = TrafficHarness(
        build_service(admission=None),
        workload,
        service_time_scale=args.service_time_scale,
    ).run_virtual(args.duration_s)
    base = open_loop.report

    admitted = TrafficHarness(
        build_service(AdmissionController(max_pending=args.max_pending)),
        workload,
        service_time_scale=args.service_time_scale,
    ).run_virtual(args.duration_s)
    rep = admitted.report

    print(f"\nwithout admission control ({base.arrivals} arrivals)")
    print(f"  queue depth max/mean    : {base.queue_depth_max} / "
          f"{base.queue_depth_mean:.1f}")
    print(f"  latency p50/p99         : "
          f"{base.traffic['latency_p50']:.3f} / "
          f"{base.traffic['latency_p99']:.3f} s")
    print(f"  utilization             : {base.utilization:.3f}")
    print(f"\nwith admission control (max_pending={args.max_pending})")
    print(f"  queue depth max/mean    : {rep.queue_depth_max} / "
          f"{rep.queue_depth_mean:.1f}")
    print(f"  latency p50/p99         : "
          f"{rep.traffic['latency_p50']:.3f} / "
          f"{rep.traffic['latency_p99']:.3f} s")
    print(f"  utilization             : {rep.utilization:.3f}")
    print(f"  shed                    : {rep.admission['shed']} "
          f"({rep.admission['shed_rate']:.1%} of offered)")
    print(f"  degraded                : {rep.admission['degraded']} "
          f"(all carrying error bounds: "
          f"{rep.traffic['degraded_with_bound'] == rep.traffic['degraded']})")
    print(f"  max degraded error bound: "
          f"{rep.traffic['max_error_bound']:.4f}")
    print(f"  cache hit rate          : "
          f"{rep.traffic['cache_hit_rate']:.1%}")
    if args.save_json:
        from .experiments import record_perf

        path = record_perf(
            "traffic-bench",
            {
                "arrivals": base.arrivals,
                "duration_s": args.duration_s,
                "offered_rate_qps": base.offered_rate_qps,
                "no_admission_queue_depth_max": base.queue_depth_max,
                "no_admission_latency_p99_s": base.traffic["latency_p99"],
                "no_admission_utilization": base.utilization,
                "max_pending": args.max_pending,
                "queue_depth_max": rep.queue_depth_max,
                "latency_p50_s": rep.traffic["latency_p50"],
                "latency_p99_s": rep.traffic["latency_p99"],
                "utilization": rep.utilization,
                "shed": rep.admission["shed"],
                "shed_rate": rep.admission["shed_rate"],
                "degraded": rep.traffic["degraded"],
                "degraded_with_bound": rep.traffic["degraded_with_bound"],
                "max_error_bound": rep.traffic["max_error_bound"],
                "cache_hit_rate": rep.traffic["cache_hit_rate"],
            },
            path=args.save_json,
        )
        print(f"perf record merged into {path}")
    return 0


def _cmd_chaos_bench(args) -> int:
    import math

    from .cluster import SharedArena
    from .graph.generators import twitter_like
    from .serving import ProcessPoolBackend, RankingQuery
    from .theory.bounds import config_error_bound
    from .traffic import (
        ChaosEvent,
        ChaosInjector,
        ChaosSchedule,
        PoissonArrivals,
        TrafficHarness,
        TrafficWorkload,
        UserPopulation,
    )

    if args.smoke:
        # The deterministic acceptance scenario the CI chaos lane pins:
        # steady Poisson load on a 4-worker pool, one SIGKILL landing
        # mid-batch on shard 1.
        for name, value in (
            ("n", 400), ("users", 64), ("seeds_per_user", 2),
            ("frogs", 2_000), ("iterations", 3), ("machines", 8),
            ("shards", 4), ("batch_size", 4), ("max_delay_ms", 20.0),
            ("qps", 40.0), ("duration_s", 3.0), ("timeout_s", 15.0),
            ("kill_shard", 1), ("kill_at_s", 1.0), ("top_k", 10),
            ("seed", 0),
        ):
            setattr(args, name, value)
    if not 0 <= args.kill_shard < args.shards:
        raise SystemExit(
            f"--kill-shard must name one of the {args.shards} shards"
        )

    if args.backend != "process":
        raise SystemExit(
            "chaos-bench SIGKILLs real shard workers; --backend must "
            "stay 'process'"
        )
    graph = twitter_like(n=args.n, seed=7)
    config = FrogWildConfig(
        num_frogs=args.frogs, iterations=args.iterations, seed=args.seed
    )
    store = store_from_args(args, graph)
    pool = ProcessPoolBackend(
        graph if store is None else None,
        num_shards=args.shards,
        num_machines=args.machines,
        seed=args.seed,
        timeout_s=args.timeout_s,
        on_shard_failure="partial",
        store=store,
    )
    # cache_capacity=0: every ask re-executes, so the post-recovery
    # probe measures the healed pool, not a cache line.
    service = service_from_args(
        graph if store is None else pool.graph,
        config,
        args,
        max_batch_size=args.batch_size,
        max_delay_s=args.max_delay_ms / 1000.0,
        cache_capacity=0,
        backend=pool,
        store=None,
    )
    probes = [
        RankingQuery(seeds=(2 * i, 2 * i + 1), k=args.top_k)
        for i in range(min(args.batch_size, 4))
    ]
    leaked = -1
    try:
        service.start()
        golden = service.query_batch(probes)
        healthy_bound = config_error_bound(
            config, args.top_k, graph.num_vertices
        )

        population = UserPopulation(
            num_users=args.users,
            num_vertices=graph.num_vertices,
            seeds_per_user=args.seeds_per_user,
            k=args.top_k,
            seed=1,
        )
        workload = TrafficWorkload(
            population, PoissonArrivals(rate_qps=args.qps, seed=2), seed=3
        )
        # The delay parks the victim's *next* batch reply for longer
        # than the window to the kill, so the SIGKILL deterministically
        # lands mid-batch (work computed, reply withheld).
        schedule = ChaosSchedule(
            events=(
                ChaosEvent(
                    time_s=max(0.0, args.kill_at_s - 0.5),
                    kind="delay",
                    shard=args.kill_shard,
                    duration_s=args.timeout_s / 2.0,
                ),
                ChaosEvent(
                    time_s=args.kill_at_s,
                    kind="kill",
                    shard=args.kill_shard,
                ),
            )
        )
        injector = ChaosInjector(service, schedule)
        harness = TrafficHarness(service, workload)
        result = harness.run_threaded(
            args.duration_s,
            chaos=injector,
            result_timeout_s=max(60.0, 4 * args.timeout_s),
        )

        answers = result.answers()
        partial = [a for a in answers if a.partial]
        partial_with_bound = [
            a
            for a in partial
            if a.error_bound is not None and math.isfinite(a.error_bound)
        ]
        kill_elapsed = next(
            (t for t, e in result.chaos_fired if e.kind == "kill"), None
        )
        supervisor = pool.supervisor
        recovery_s = float("nan")
        if kill_elapsed is not None and supervisor.stats.respawn_log:
            kill_abs = (injector._start or 0.0) + kill_elapsed
            after = [
                stamp
                for stamp, _, _ in supervisor.stats.respawn_log
                if stamp >= kill_abs
            ]
            if after:
                recovery_s = after[0] - kill_abs

        # Let any straggling revival finish, then probe: the healed
        # pool must answer bitwise identically to the never-crashed
        # golden run (same shares, same per-shard seeds).
        supervisor.check()
        healed = service.query_batch(probes)
        post_recovery_bitwise = float(
            all(
                list(h.vertices) == list(g.vertices)
                and list(h.scores) == list(g.scores)
                and not h.partial
                for h, g in zip(healed, golden)
            )
        )

        # Accuracy of the partial answers against a healthy re-run of
        # the same queries (top-k overlap); capped to bound runtime.
        overlaps = []
        for answer in partial[:8]:
            healthy = service.query_batch([answer.query])[0]
            got = set(int(v) for v in answer.vertices)
            want = set(int(v) for v in healthy.vertices)
            overlaps.append(len(got & want) / max(1, len(want)))
        mean_overlap = (
            sum(overlaps) / len(overlaps) if overlaps else float("nan")
        )
        max_partial_bound = max(
            (a.error_bound for a in partial_with_bound), default=float("nan")
        )
        prefix = pool.arena_prefix
    finally:
        service.close()
        pool.close()
    leaked = len(SharedArena.list_segments(prefix))

    print(
        f"chaos run: {result.report.arrivals} arrivals over "
        f"{args.duration_s:g}s, SIGKILL on shard {args.kill_shard} at "
        f"t={args.kill_at_s:g}s"
    )
    print(f"  answers served          : {len(answers)}")
    print(f"  partial answers         : {len(partial)} "
          f"(with finite bound: {len(partial_with_bound)})")
    print(f"  healthy error bound     : {healthy_bound:.4f}")
    print(f"  max partial error bound : {max_partial_bound:.4f}")
    print(f"  partial top-k overlap   : {mean_overlap:.3f} "
          f"(vs healthy re-run, k={args.top_k})")
    print(f"  recovery time           : {recovery_s:.3f}s "
          f"(kill -> worker re-attached)")
    print(f"  crashes/respawns        : "
          f"{supervisor.stats.crashes_detected}/"
          f"{supervisor.stats.respawns}")
    print(f"  post-recovery bitwise   : {post_recovery_bitwise == 1.0}")
    print(f"  leaked shm segments     : {leaked}")
    if args.save_json:
        from .experiments import record_perf

        path = record_perf(
            "chaos-bench",
            {
                "arrivals": result.report.arrivals,
                "duration_s": args.duration_s,
                "kill_shard": args.kill_shard,
                "kill_at_s": args.kill_at_s,
                "answers": len(answers),
                "partial": len(partial),
                "partial_with_bound": len(partial_with_bound),
                "healthy_bound": healthy_bound,
                "max_partial_bound": max_partial_bound,
                "partial_topk_overlap": mean_overlap,
                "recovery_s": recovery_s,
                "crashes_detected": supervisor.stats.crashes_detected,
                "respawns": supervisor.stats.respawns,
                "post_recovery_bitwise": post_recovery_bitwise,
                "leaked_segments": leaked,
            },
            path=args.save_json,
        )
        print(f"perf record merged into {path}")
    return 0


_COMMANDS = {
    "figure": _cmd_figure,
    "run": _cmd_run,
    "info": _cmd_info,
    "ppr": _cmd_ppr,
    "track": _cmd_track,
    "faults": _cmd_faults,
    "serve-bench": _cmd_serve_bench,
    "live-bench": _cmd_live_bench,
    "traffic-bench": _cmd_traffic_bench,
    "chaos-bench": _cmd_chaos_bench,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handler = _COMMANDS.get(args.command)
    if handler is None:  # pragma: no cover - argparse enforces choices
        return 2
    return handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
