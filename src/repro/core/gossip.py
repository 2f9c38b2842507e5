"""Randomized rumor spreading on the partially-synchronized engine.

Section 3.3 of the paper argues the ``ps`` patch is useful beyond
PageRank: "any random walk or 'gossip' style algorithm (that sends a
single message to a random subset of its neighbors) can benefit by
exploiting ps".  This module substantiates that claim with the classic
push-gossip protocol: every informed vertex pushes the rumor along one
uniformly random *enabled* out-edge per round, where enabled means the
hosting mirror was synchronized — exactly FrogWild's coupling.

Lower ``ps`` reduces per-round synchronization traffic while the
at-least-one repair keeps every informed vertex pushing, so the rumor
still spreads in O(log n)-ish rounds — the trade-off
:func:`run_gossip` measures and ``benchmarks/bench_ablations.py``
exercises.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..cluster import CostModel, MessageSizeModel
from ..engine import ClusterState, MirrorSynchronizer, RunReport, build_cluster
from ..errors import ConfigError, EngineError
from ..graph import DiGraph, sorted_unique

__all__ = ["GossipResult", "run_gossip"]


@dataclass(frozen=True)
class GossipResult:
    """Outcome of one rumor-spreading execution."""

    informed: np.ndarray  # boolean per vertex
    rounds: int
    report: RunReport

    @property
    def informed_fraction(self) -> float:
        return float(self.informed.mean())


def run_gossip(
    graph: DiGraph,
    source: int = 0,
    ps: float = 1.0,
    target_fraction: float = 0.99,
    max_rounds: int = 200,
    num_machines: int = 16,
    partitioner: str = "random",
    cost_model: CostModel | None = None,
    size_model: MessageSizeModel | None = None,
    state: ClusterState | None = None,
    seed: int | None = 0,
) -> GossipResult:
    """Push-gossip a rumor from ``source`` until ``target_fraction`` of
    vertices are informed (or ``max_rounds`` elapse).

    Every round, each informed vertex synchronizes its mirrors with
    probability ``ps`` each (one sync record per fresh mirror) and
    pushes one rumor message along a uniformly random enabled out-edge
    (combined per machine pair, like frog messages).
    """
    if not 0 <= source < graph.num_vertices:
        raise ConfigError(f"source {source} out of range")
    if not 0.0 < target_fraction <= 1.0:
        raise ConfigError("target_fraction must lie in (0, 1]")
    if max_rounds < 1:
        raise ConfigError("max_rounds must be positive")
    if state is None:
        state = build_cluster(
            graph,
            num_machines,
            partitioner=partitioner,
            cost_model=cost_model,
            size_model=size_model,
            seed=seed,
        )
    if state.graph is not graph:
        raise EngineError("state was built for a different graph")

    rng = np.random.default_rng(seed if seed is None else [105, seed])
    synchronizer = MirrorSynchronizer(state, ps, rng)
    repl = state.replication
    og = repl.out_groups
    masters = repl.masters
    n = graph.num_vertices

    informed = np.zeros(n, dtype=bool)
    informed[source] = True
    rounds = 0
    for rounds in range(1, max_rounds + 1):
        active = np.flatnonzero(informed)
        fresh = synchronizer.synchronize(active)

        # One push per informed vertex along a random enabled out-edge;
        # vertices with no enabled out-group this round are repaired
        # (at-least-one), mirroring the FrogWild default.
        targets = np.full(active.size, -1, dtype=np.int64)
        hosts = np.zeros(active.size, dtype=np.int64)
        for row, v in enumerate(active):
            lo, hi = og.vertex_ptr[v], og.vertex_ptr[v + 1]
            if lo == hi:
                continue
            machines = og.group_machine[lo:hi].astype(np.int64)
            enabled = fresh[row, machines]
            if not enabled.any():
                pick = rng.integers(0, hi - lo)
                synchronizer.force_sync(
                    np.array([v]), machines[pick : pick + 1]
                )
                enabled[pick] = True
            groups = np.flatnonzero(enabled) + lo
            sizes = og.group_stop[groups] - og.group_start[groups]
            edge_pick = rng.integers(0, sizes.sum())
            cumulative = np.cumsum(sizes)
            g = int(np.searchsorted(cumulative, edge_pick, side="right"))
            offset = edge_pick - (cumulative[g - 1] if g else 0)
            edge = og.group_start[groups[g]] + offset
            targets[row] = og.sorted_other[edge]
            hosts[row] = og.edge_machine_sorted[edge]

        pushed = targets >= 0
        state.charge_many(
            np.bincount(hosts[pushed], minlength=state.num_machines),
            phase="scatter",
        )
        if pushed.any():
            pair_keys = sorted_unique(hosts[pushed] * n + targets[pushed])
            dest_master = masters[pair_keys % n].astype(np.int64)
            host_u = pair_keys // n
            remote = host_u != dest_master
            if remote.any():
                records = np.bincount(
                    host_u[remote] * state.num_machines + dest_master[remote],
                    minlength=state.num_machines**2,
                ).reshape(state.num_machines, state.num_machines)
                state.send_pair_matrix(records, kind="scatter")
            informed[targets[pushed]] = True

        state.end_superstep(int(active.size))
        if informed.mean() >= target_fraction:
            break

    stats = state.stats
    report = RunReport(
        algorithm=f"gossip(ps={ps:g})",
        num_machines=state.num_machines,
        supersteps=stats.num_supersteps,
        total_time_s=stats.total_seconds(),
        time_per_iteration_s=stats.seconds_per_step(),
        network_bytes=state.fabric.total_bytes(),
        cpu_seconds=state.cost_model.cpu_seconds(stats.total_cpu_ops()),
        extra={"ps": ps, "informed_fraction": float(informed.mean())},
    )
    return GossipResult(informed=informed, rounds=rounds, report=report)
