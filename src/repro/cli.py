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
"""

from __future__ import annotations

import argparse
import sys
import time

from . import __version__
from .core import FrogWildConfig, run_frogwild
from .core.config import check_positive_int
from .experiments import (
    ALL_FIGURES,
    livejournal_workload,
    twitter_workload,
)
from .errors import ConfigError, GraphError, PartitionError
from .graph import read_edge_list, summarize
from .metrics import exact_identification, normalized_mass_captured
from .pagerank import exact_pagerank

__all__ = ["main", "build_parser"]


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
    return parser


def _load_graph(args):
    if args.edge_list:
        return read_edge_list(args.edge_list)
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


def _check_k(k: int, graph) -> None:
    """Refuse a list length the graph cannot fill, before running."""
    check_positive_int("k", k)
    if k > graph.num_vertices:
        raise ConfigError(
            f"k={k} exceeds the graph's {graph.num_vertices} vertices"
        )


def _cmd_run(args) -> int:
    graph = _load_graph(args)
    _check_k(args.top_k, graph)
    frogs = max(2_000, graph.num_vertices // 2) if args.frogs is None else args.frogs
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
    _check_k(args.top_k, graph)
    seeds = np.asarray(args.seeds, dtype=np.int64)
    frogs = max(4_000, graph.num_vertices) if args.frogs is None else args.frogs
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
    import numpy as np

    from .dynamic import ChurnGenerator
    from .experiments import format_table
    from .live import LiveRankingService
    from .metrics import top_k_jaccard

    if args.ticks < 0:
        raise ConfigError(f"ticks must be non-negative, got {args.ticks}")
    base = _load_graph(args)
    _check_k(args.k, base)
    frogs = max(2_000, base.num_vertices) if args.frogs is None else args.frogs
    service = LiveRankingService(
        base,
        config=FrogWildConfig(
            num_frogs=frogs, iterations=args.iterations, seed=args.seed
        ),
        num_machines=args.machines,
        seed=args.seed,
    )
    churn = ChurnGenerator(
        add_rate=args.add_rate, remove_rate=args.remove_rate, seed=args.seed
    )
    source = service.source
    # Tick 0 is the initial build: every edge is new and placed.
    added, removed = source.num_edges, 0
    placed = sum(ingress.num_edges for ingress in service.ingresses)
    rows, top = [], None
    for tick in range(args.ticks + 1):
        if tick:
            update = service.refresh(churn.step(source))
            added, removed = update.edges_added, update.edges_removed
            placed = update.new_placements
        # No seeds: frogs born uniformly on every vertex, global PageRank.
        answer = service.query(None, k=args.k)
        rows.append({
            "tick": tick,
            "edges": source.num_edges,
            "+edges": added,
            "-edges": removed,
            "jaccard": 1.0 if top is None else top_k_jaccard(top, answer.vertices),
            "ingress": placed,
            "net bytes": answer.network_bytes,
            "time (s)": answer.simulated_time_s,
        })
        top = answer.vertices
    stability = np.mean([row["jaccard"] for row in rows[1:]] or [1.0])
    print(format_table(rows, title=f"top-{args.k} tracking under churn"))
    print(f"list stability     : {stability:.3f}")
    print(f"total network      : {sum(r['net bytes'] for r in rows):,} bytes")
    print(f"current top-{args.k}: {top.tolist()}")
    return 0


def _cmd_faults(args) -> int:
    from .faults import (
        FaultSchedule,
        MachineCrash,
        MessageDrop,
        run_frogwild_with_faults,
    )

    graph = _load_graph(args)
    _check_k(args.top_k, graph)
    frogs = max(2_000, graph.num_vertices // 2) if args.frogs is None else args.frogs
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


_COMMANDS = {
    "figure": _cmd_figure,
    "run": _cmd_run,
    "info": _cmd_info,
    "ppr": _cmd_ppr,
    "track": _cmd_track,
    "faults": _cmd_faults,
}


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand; bad input is one error line and exit code 2.

    A :class:`~repro.errors.ConfigError` (a value the library rejects),
    a :class:`~repro.errors.GraphError` (a malformed edge list), a
    :class:`~repro.errors.PartitionError` (a fleet the vertex-cut
    refuses, e.g. ``--machines 0``) or a missing input file is the
    user's mistake, not a crash, so it is
    reported the way argparse reports a bad flag.  Anything else
    propagates with its traceback.
    """
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except FileNotFoundError as error:
        message = f"{error.strerror}: {error.filename}"
    except (ConfigError, GraphError, PartitionError) as error:
        message = str(error)
    print(f"frogwild {args.command}: error: {message}", file=sys.stderr)
    return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
