"""The baseline: GraphLab's built-in PageRank, superstep by superstep.

This reproduces the comparator the paper calls **GraphLab PR** — the
PageRank implementation shipped with GraphLab v2.2 (PowerGraph), run in
three regimes:

* ``iterations=None, tolerance=...`` — "GraphLab PR exact": dynamic
  scheduling; a vertex keeps iterating until its own rank moves by less
  than the tolerance, signalling successors whenever it changes.
* ``iterations=1`` / ``iterations=2`` — the reduced-iteration heuristic
  the paper uses as its fast approximate baseline.

One superstep of PowerGraph's gather → apply → sync → scatter, billed
on the :class:`~repro.engine.ClusterState`:

1. **Gather**: every machine hosting in-edges of an active vertex sums
   the random-surfer shares ``rank[u] / max(d_out(u), 1)`` of its local
   edges (one op per edge) and sends one partial-sum record to the
   vertex master, free if it *is* the master.
2. **Apply**: the master sets ``p_T / n + (1 - p_T) * gather`` (one op
   per vertex).
3. **Sync**: every changed vertex pushes one record to each of its
   mirrors — ``ps`` does not apply to the stock engine; this is the
   traffic FrogWild's patch randomizes.
4. **Scatter**: changed vertices signal their out-neighbours, activating
   them next superstep (one op per out-edge); signals to one target
   from one machine combine into one record.

This is exactly the traffic pattern whose cost Figure 1 demonstrates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..cluster import CostModel, EdgePartition, MessageSizeModel
from ..engine import ClusterState, RunReport, build_cluster
from ..errors import ConfigError
from ..graph import DiGraph, sorted_unique

__all__ = ["graphlab_pagerank", "GraphLabPageRankResult"]


@dataclass
class GraphLabPageRankResult:
    """Ranks plus the execution report of one run."""

    ranks: np.ndarray
    report: RunReport
    state: ClusterState
    #: L1 change of the rank vector per superstep.
    residuals: list[float]

    def distribution(self) -> np.ndarray:
        """Ranks renormalized to a probability vector."""
        total = self.ranks.sum()
        if total <= 0:
            return np.full(self.ranks.size, 1.0 / self.ranks.size)
        return self.ranks / total

    def top_k(self, k: int) -> np.ndarray:
        from ..core.estimator import top_k_indices

        return top_k_indices(self.ranks, k)


def graphlab_pagerank(
    graph: DiGraph,
    num_machines: int = 16,
    iterations: int | None = None,
    tolerance: float = 1e-3,
    p_teleport: float = 0.15,
    partitioner: str = "random",
    cost_model: CostModel | None = None,
    size_model: MessageSizeModel | None = None,
    partition: EdgePartition | None = None,
    state: ClusterState | None = None,
    max_supersteps: int = 200,
    seed: int | None = 0,
) -> GraphLabPageRankResult:
    """Run the GraphLab PR baseline on the simulated cluster.

    ``iterations=None`` gives the "exact" dynamically scheduled run,
    stopped after ``max_supersteps`` if it has not converged;
    ``iterations=k`` runs exactly k synchronous iterations.
    """
    if not 0.0 < p_teleport < 1.0:
        raise ConfigError("p_teleport must lie in (0, 1)")
    if tolerance <= 0:
        raise ConfigError("tolerance must be positive")
    if iterations is not None and iterations < 1:
        raise ConfigError("iterations must be positive when given")
    if max_supersteps < 1:
        raise ConfigError("max_supersteps must be positive")
    if iterations is not None and iterations > max_supersteps:
        raise ConfigError(
            f"iterations={iterations} exceeds max_supersteps={max_supersteps}"
        )
    if state is None:
        state = build_cluster(
            graph,
            num_machines,
            partitioner=partitioner,
            cost_model=cost_model,
            size_model=size_model,
            seed=seed,
            partition=partition,
        )
    else:
        state.check_graph(graph)

    n = state.num_vertices
    masters = state.replication.masters
    # The anchor vertex of every out-edge: m-sized, so built once per run.
    out_anchor = state.replication.out_groups.edge_anchor()
    ranks = np.full(n, 1.0 / n)
    active = np.ones(n, dtype=bool)
    residuals: list[float] = []
    for step in range(max_supersteps):
        active_idx = np.flatnonzero(active)
        if active_idx.size == 0:
            break
        gathered = _gather(state, active, ranks)[active_idx]
        new_values = p_teleport / n + (1.0 - p_teleport) * gathered
        delta = np.abs(new_values - ranks[active_idx])
        residuals.append(float(delta.sum()))
        ranks[active_idx] = new_values
        state.charge_many(
            np.bincount(masters[active_idx], minlength=state.num_machines),
            phase="apply",
        )
        if iterations is None:
            # Dynamic scheduling: only vertices that moved sync and
            # re-signal; convergence is reached when nothing moved.
            changed = active_idx[delta > tolerance / n]
            done = changed.size == 0
        else:
            # Fixed-iteration mode keeps the whole graph active: every
            # vertex syncs and signals until the final round, like
            # running the toolkit binary with --iterations.
            changed = active_idx
            done = step + 1 >= iterations
        _sync(state, changed)
        if not done:
            active = _scatter(state, changed, out_anchor)
        state.end_superstep()
        if done:
            break

    label = (
        f"graphlab_pr({iterations} iters)"
        if iterations is not None
        else f"graphlab_pr(tol={tolerance:g})"
    )
    report = state.report(label)
    if residuals:
        report.extra["final_residual"] = residuals[-1]
    return GraphLabPageRankResult(ranks, report, state, residuals)


def _gather(
    state: ClusterState, active: np.ndarray, ranks: np.ndarray
) -> np.ndarray:
    """Distributed gather over in-edges of the ``active`` frontier."""
    machines = state.num_machines
    gather_sums = np.zeros(state.num_vertices, dtype=np.float64)
    in_groups = state.replication.in_groups
    if in_groups.num_groups == 0:
        return gather_sums
    sources = in_groups.sorted_other
    out_deg = np.asarray(state.graph.out_degree(), dtype=np.float64)
    shares = ranks[sources] / np.maximum(out_deg[sources], 1.0)
    partials = np.add.reduceat(shares, in_groups.group_start)
    anchor = in_groups.group_anchor
    host = in_groups.group_machine
    group_active = active[anchor]
    if not group_active.any():
        return gather_sums
    np.add.at(gather_sums, anchor[group_active], partials[group_active])
    # CPU: one op per local in-edge scanned, on the hosting machine.
    state.charge_many(
        np.bincount(
            host[group_active],
            weights=in_groups.group_sizes()[group_active],
            minlength=machines,
        ).astype(np.int64),
        phase="gather",
    )
    # Network: one partial-sum record per remote (vertex, machine).
    masters = state.replication.masters
    remote = group_active & (host != masters[anchor])
    if remote.any():
        pair = host[remote].astype(np.int64) * machines + masters[anchor[remote]]
        counts = np.bincount(pair, minlength=machines**2)
        state.send_pair_matrix(counts.reshape(machines, machines), kind="gather")
    return gather_sums


def _sync(state: ClusterState, changed: np.ndarray) -> None:
    """Master-to-mirror synchronization of the ``changed`` vertices."""
    if changed.size == 0:
        return
    changed_mask = np.zeros(state.num_vertices, dtype=bool)
    changed_mask[changed] = True
    records = state.replication.sync_record_matrix(changed_mask)
    state.send_pair_matrix(records, kind="sync")
    # Mirrors apply the cached update: 1 op per record received.
    state.charge_many(records.sum(axis=0), phase="sync")


def _scatter(
    state: ClusterState, signalers: np.ndarray, out_anchor: np.ndarray
) -> np.ndarray:
    """Deliver signals along out-edges; return the next frontier."""
    n = state.num_vertices
    machines = state.num_machines
    next_active = np.zeros(n, dtype=bool)
    if signalers.size == 0:
        return next_active
    out_groups = state.replication.out_groups
    signaling = np.zeros(n, dtype=bool)
    signaling[signalers] = True
    edge_on = signaling[out_anchor]
    if not edge_on.any():
        return next_active
    hosts = out_groups.edge_machine_sorted[edge_on].astype(np.int64)
    targets = out_groups.sorted_other[edge_on]
    next_active[targets] = True

    # Signals to the same target from the same machine combine into
    # one record (PowerGraph's message combiner).
    pair_keys = sorted_unique(hosts * n + targets)
    host_u = pair_keys // n
    target_u = pair_keys % n
    dest = state.replication.masters[target_u].astype(np.int64)
    remote = host_u != dest
    if remote.any():
        counts = np.bincount(
            host_u[remote] * machines + dest[remote], minlength=machines**2
        )
        state.send_pair_matrix(counts.reshape(machines, machines), kind="scatter")
    # CPU: one op per scanned out-edge on its hosting machine.
    state.charge_many(
        np.bincount(hosts, minlength=machines).astype(np.int64),
        phase="scatter",
    )
    return next_active
