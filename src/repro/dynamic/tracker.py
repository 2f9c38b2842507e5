"""Continuous top-k PageRank tracking over a churning graph.

The paper's OSN pitch (Section 1): key users are few, the activity
graph changes constantly, and what matters is keeping the *top-k list*
fresh — not the full PageRank vector.  :class:`PageRankTracker` runs
FrogWild after every churn batch and reports, per update, the new list,
its overlap with the previous one, and the full network/time cost.

Two system points make the per-update cost realistic:

* **Stable hash ingress** — re-partitioning the whole graph per update
  would swamp the savings, so edges are placed by a deterministic hash
  of their endpoints: an edge that survives churn keeps its machine,
  and the per-update ingress cost is proportional to the *new* edges
  only.  The tracker accounts that cost separately (the paper excludes
  ingress from measurements; we report it so the dynamic story is
  honest).
* **Fresh run per snapshot** — frogs are cheap; restarting them beats
  any attempt to patch stale counters, and matches the paper's
  "recalculate constantly with a fast approximation" framing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..cluster import (
    CostModel,
    EdgePartition,
    MessageSizeModel,
    stable_hash_machines,
)
from ..core import FrogWildConfig, run_frogwild
from ..engine import build_cluster
from ..errors import ConfigError
from ..graph import DiGraph
from ..metrics import normalized_mass_captured, top_k_jaccard
from ..pagerank import exact_pagerank
from .graph import DynamicDiGraph, GraphDelta

__all__ = ["TrackerUpdate", "PageRankTracker", "stable_hash_partition"]


def stable_hash_partition(
    graph: DiGraph, num_machines: int, seed: int = 0
) -> EdgePartition:
    """Vertex-cut placement by endpoint-pair hash.

    Thin wrapper over :func:`~repro.cluster.stable_hash_machines` (the
    primitive now lives in the cluster layer, also registered with
    :func:`~repro.cluster.make_partitioner` as ``"stable-hash"``).
    Deterministic in ``(source, target, seed)``: the same edge always
    lands on the same machine, across snapshots, insertions and
    deletions — the property incremental ingress needs.  Unlike the
    registered partitioner this wrapper accepts edgeless graphs (a
    churned-to-empty snapshot still has a well-defined, empty ingress).
    """
    if num_machines < 1:
        raise ConfigError("num_machines must be positive")
    n = graph.num_vertices
    keys = graph.edge_sources().astype(np.int64) * n + graph.indices
    return EdgePartition(
        stable_hash_machines(keys, num_machines, seed), num_machines
    )


@dataclass(frozen=True)
class TrackerUpdate:
    """Cost and answer-quality record of one tracker refresh."""

    step: int
    num_edges: int
    edges_added: int
    edges_removed: int
    top_k: np.ndarray
    jaccard_vs_previous: float
    network_bytes: int
    total_time_s: float
    new_edge_placements: int
    mass_vs_exact: float | None = None


class PageRankTracker:
    """Keeps a fresh FrogWild top-k over a :class:`DynamicDiGraph`.

    Parameters
    ----------
    graph:
        The live graph; the tracker applies deltas to it.
    k:
        Size of the tracked top-k list.
    config:
        FrogWild parameters for every refresh.
    num_machines:
        Simulated cluster size.
    validate:
        When true, each refresh also solves exact PageRank on the
        snapshot and records the normalized captured mass — expensive,
        meant for experiments that grade tracking quality.
    """

    def __init__(
        self,
        graph: DynamicDiGraph,
        k: int = 100,
        config: FrogWildConfig | None = None,
        num_machines: int = 16,
        cost_model: CostModel | None = None,
        size_model: MessageSizeModel | None = None,
        seed: int = 0,
        validate: bool = False,
    ) -> None:
        if k < 1:
            raise ConfigError("k must be positive")
        if k > graph.num_vertices:
            raise ConfigError(
                f"k={k} exceeds the vertex count {graph.num_vertices}"
            )
        self.graph = graph
        self.k = k
        self.config = config or FrogWildConfig(seed=seed)
        self.num_machines = num_machines
        self.cost_model = cost_model
        self.size_model = size_model
        self.seed = seed
        self.validate = validate
        self.history: list[TrackerUpdate] = []
        self._step = 0
        self._known_keys = np.empty(0, dtype=np.int64)
        self._current_top: np.ndarray | None = None
        self._refresh(edges_added=graph.num_edges, edges_removed=0)

    # ------------------------------------------------------------------
    @property
    def current_top_k(self) -> np.ndarray:
        """Latest top-k vertex ids (most recent refresh)."""
        assert self._current_top is not None
        return self._current_top

    def update(self, delta: GraphDelta) -> TrackerUpdate:
        """Apply one churn batch and refresh the ranking."""
        added, removed = self.graph.apply(delta)
        return self._refresh(edges_added=added, edges_removed=removed)

    # ------------------------------------------------------------------
    def _refresh(self, edges_added: int, edges_removed: int) -> TrackerUpdate:
        snapshot = self.graph.snapshot()
        n = snapshot.num_vertices
        keys = snapshot.edge_sources() * n + snapshot.indices

        # Incremental ingress: only edges unseen so far need placement.
        fresh = ~np.isin(keys, self._known_keys)
        new_placements = int(fresh.sum())
        self._known_keys = keys

        partition = stable_hash_partition(
            snapshot, self.num_machines, seed=self.seed
        )
        state = build_cluster(
            snapshot,
            self.num_machines,
            cost_model=self.cost_model,
            size_model=self.size_model,
            seed=self.seed,
            partition=partition,
        )
        run_config = self.config.with_updates(
            seed=None if self.config.seed is None
            else self.config.seed + self._step
        )
        result = run_frogwild(snapshot, run_config, state=state)

        top = result.estimate.top_k(self.k)
        jaccard = (
            top_k_jaccard(self._current_top, top)
            if self._current_top is not None
            else 1.0
        )
        mass = None
        if self.validate:
            truth = exact_pagerank(snapshot)
            mass = normalized_mass_captured(
                result.estimate.vector(), truth, self.k
            )

        update = TrackerUpdate(
            step=self._step,
            num_edges=self.graph.num_edges,
            edges_added=edges_added,
            edges_removed=edges_removed,
            top_k=top,
            jaccard_vs_previous=jaccard,
            network_bytes=result.report.network_bytes,
            total_time_s=result.report.total_time_s,
            new_edge_placements=new_placements,
            mass_vs_exact=mass,
        )
        self.history.append(update)
        self._current_top = top
        self._step += 1
        return update

    # ------------------------------------------------------------------
    def total_network_bytes(self) -> int:
        """Cumulative refresh traffic over the tracker's lifetime."""
        return sum(u.network_bytes for u in self.history)

    def total_time_s(self) -> float:
        return sum(u.total_time_s for u in self.history)

    def churn_stability(self) -> float:
        """Mean consecutive-list Jaccard over all updates after the
        first — how steady the reported top-k is under churn."""
        if len(self.history) < 2:
            return 1.0
        return float(
            np.mean([u.jaccard_vs_previous for u in self.history[1:]])
        )
