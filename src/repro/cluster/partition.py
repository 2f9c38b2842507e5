"""Vertex-cut graph partitioning (PowerGraph-style ingress).

PowerGraph assigns *edges* to machines; a vertex is replicated on every
machine that hosts at least one of its incident edges.  One replica is
the *master*, the rest are read-only *mirrors* kept consistent by the
synchronization barrier — the traffic FrogWild's ``ps`` patch attacks.

Five ingress strategies are implemented:

* :class:`RandomVertexCut` — each edge is hashed to a uniformly random
  machine.  Simple, perfectly balanced, highest replication factor.
* :class:`ObliviousVertexCut` — PowerGraph's default greedy heuristic:
  place each edge on a machine that already hosts both endpoints if one
  exists, else one that hosts either endpoint, else the least-loaded
  machine; ties break toward lower load.
* :class:`GridVertexCut` — PowerGraph's constrained "grid" ingress:
  machines form a rows x cols grid, each vertex hashes to a home cell,
  and an edge may only land in the intersection of its endpoints'
  row+column constraint sets.  Caps the replication factor of any vertex
  at ``rows + cols - 1`` regardless of degree.
* :class:`HdrfVertexCut` — High-Degree-Replicated-First streaming
  heuristic (Petroni et al., CIKM 2015): like oblivious, but degree-aware
  — when an edge joins a high-degree and a low-degree endpoint it is
  placed with the *low*-degree one, concentrating the (inevitable)
  replication on hubs.  Power-law graphs get markedly lower replication
  factors, which directly shrinks the sync traffic FrogWild's ``ps``
  patch attacks.
* :class:`StableHashVertexCut` — placement by a deterministic hash of
  the edge's endpoint pair (SplitMix64-mixed).  Statistically equivalent
  to :class:`RandomVertexCut` but *stable across snapshots*: the same
  edge lands on the same machine no matter which other edges exist, so
  a churning graph only pays ingress for edges that actually changed.
  This is the placement primitive behind the incremental refresh
  subsystem in :mod:`repro.live`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import PartitionError
from ..graph import DiGraph

__all__ = [
    "EdgePartition",
    "Partitioner",
    "RandomVertexCut",
    "ObliviousVertexCut",
    "GridVertexCut",
    "HdrfVertexCut",
    "StableHashVertexCut",
    "stable_hash_machines",
    "make_partitioner",
    "grid_shape",
]


@dataclass(frozen=True)
class EdgePartition:
    """Result of a vertex-cut ingress.

    Attributes
    ----------
    edge_machine:
        Machine hosting each edge, aligned with the graph's CSR edge
        order, shape ``(m,)``.
    num_machines:
        Cluster size this partition targets.
    """

    edge_machine: np.ndarray
    num_machines: int

    def __post_init__(self) -> None:
        edge_machine = np.asarray(self.edge_machine, dtype=np.int32)
        object.__setattr__(self, "edge_machine", edge_machine)
        if edge_machine.size and (
            edge_machine.min() < 0 or edge_machine.max() >= self.num_machines
        ):
            raise PartitionError("edge_machine entries out of range")

    def edges_per_machine(self) -> np.ndarray:
        """Edge-count load vector, shape ``(num_machines,)``."""
        return np.bincount(self.edge_machine, minlength=self.num_machines)

    def load_imbalance(self) -> float:
        """Max / mean edge load (1.0 = perfectly balanced)."""
        loads = self.edges_per_machine()
        mean = loads.mean()
        if mean == 0:
            return 1.0
        return float(loads.max() / mean)


class Partitioner:
    """Base class for ingress strategies."""

    name = "base"

    def partition(self, graph: DiGraph, num_machines: int) -> EdgePartition:
        raise NotImplementedError


class RandomVertexCut(Partitioner):
    """Uniform random edge placement."""

    name = "random"

    def __init__(self, seed: int | None = 0) -> None:
        self._seed = seed

    def partition(self, graph: DiGraph, num_machines: int) -> EdgePartition:
        _validate(graph, num_machines)
        rng = np.random.default_rng(
            self._seed if self._seed is None else [102, self._seed]
        )
        placement = rng.integers(0, num_machines, size=graph.num_edges, dtype=np.int32)
        return EdgePartition(placement, num_machines)


class ObliviousVertexCut(Partitioner):
    """PowerGraph's greedy heuristic (Gonzalez et al., OSDI 2012).

    Processes edges in a random order; for edge ``(u, v)`` with current
    replica sets ``A(u)``, ``A(v)`` and machine loads ``L``:

    1. if ``A(u) ∩ A(v)`` non-empty, pick its least-loaded member;
    2. elif both sets non-empty, pick the least-loaded member of the set
       belonging to the endpoint with more *unplaced* edges (approximated
       here by total degree, the standard simplification);
    3. elif one set non-empty, pick its least-loaded member;
    4. else pick the globally least-loaded machine.
    """

    name = "oblivious"

    def __init__(self, seed: int | None = 0) -> None:
        self._seed = seed

    def partition(self, graph: DiGraph, num_machines: int) -> EdgePartition:
        _validate(graph, num_machines)
        rng = np.random.default_rng(
            self._seed if self._seed is None else [103, self._seed]
        )
        m = graph.num_edges
        src = graph.edge_sources()
        dst = graph.indices
        order = rng.permutation(m)

        n = graph.num_vertices
        # Replica sets as boolean bitmaps: n x num_machines is fine at
        # simulator scale (20k x 24 booleans = 480 KB).
        replicas = np.zeros((n, num_machines), dtype=bool)
        loads = np.zeros(num_machines, dtype=np.int64)
        degree = np.asarray(graph.out_degree()) + np.asarray(graph.in_degree())
        placement = np.empty(m, dtype=np.int32)

        for edge in order:
            u, v = int(src[edge]), int(dst[edge])
            a_u = replicas[u]
            a_v = replicas[v]
            both = a_u & a_v
            if both.any():
                candidates = both
            elif a_u.any() and a_v.any():
                candidates = a_u if degree[u] >= degree[v] else a_v
            elif a_u.any():
                candidates = a_u
            elif a_v.any():
                candidates = a_v
            else:
                candidates = None
            if candidates is None:
                machine = int(np.argmin(loads))
            else:
                cand_idx = np.flatnonzero(candidates)
                machine = int(cand_idx[np.argmin(loads[cand_idx])])
            placement[edge] = machine
            replicas[u, machine] = True
            replicas[v, machine] = True
            loads[machine] += 1
        return EdgePartition(placement, num_machines)


def grid_shape(num_machines: int) -> tuple[int, int]:
    """Most-square ``rows x cols`` factorization of ``num_machines``.

    PowerGraph's grid ingress wants the grid as square as possible: the
    replication cap is ``rows + cols - 1``, minimized at the squarest
    factorization.  Primes degenerate to ``1 x p`` (the cap then equals
    ``p``, i.e. no constraint) — callers wanting a real grid should pick
    composite cluster sizes, as the paper's 12/16/20/24 all are.
    """
    if num_machines < 1:
        raise PartitionError("num_machines must be positive")
    rows = int(np.sqrt(num_machines))
    while num_machines % rows != 0:
        rows -= 1
    return rows, num_machines // rows


class GridVertexCut(Partitioner):
    """Constrained 2D grid ingress (Gonzalez et al., OSDI 2012).

    Machines are arranged in a ``rows x cols`` grid.  Every vertex hashes
    to a home machine; its *constraint set* is the full row and column of
    that cell.  An edge ``(u, v)`` may only be placed inside
    ``S(u) ∩ S(v)``, which is never empty (the two "crossing" cells are
    always shared).  The least-loaded member of the intersection wins.

    Guarantees replication factor ≤ ``rows + cols - 1`` per vertex while
    keeping ingress embarrassingly parallel in the real system (placement
    depends only on the two endpoint hashes plus local load).
    """

    name = "grid"

    def __init__(self, seed: int | None = 0) -> None:
        self._seed = seed

    def partition(self, graph: DiGraph, num_machines: int) -> EdgePartition:
        _validate(graph, num_machines)
        rng = np.random.default_rng(
            self._seed if self._seed is None else [105, self._seed]
        )
        rows, cols = grid_shape(num_machines)
        n = graph.num_vertices
        home = rng.integers(0, num_machines, size=n, dtype=np.int64)
        home_row = home // cols
        home_col = home % cols

        # Constraint bitmap: machine (r, c) is in S(v) iff r == row(v) or
        # c == col(v).
        machine_row = np.arange(num_machines, dtype=np.int64) // cols
        machine_col = np.arange(num_machines, dtype=np.int64) % cols
        src = graph.edge_sources()
        dst = graph.indices
        m = graph.num_edges
        placement = np.empty(m, dtype=np.int32)
        loads = np.zeros(num_machines, dtype=np.int64)
        order = rng.permutation(m)
        for edge in order:
            u, v = int(src[edge]), int(dst[edge])
            in_su = (machine_row == home_row[u]) | (machine_col == home_col[u])
            in_sv = (machine_row == home_row[v]) | (machine_col == home_col[v])
            candidates = np.flatnonzero(in_su & in_sv)
            machine = int(candidates[np.argmin(loads[candidates])])
            placement[edge] = machine
            loads[machine] += 1
        return EdgePartition(placement, num_machines)


class HdrfVertexCut(Partitioner):
    """High-Degree-Replicated-First streaming vertex-cut.

    For each edge ``(u, v)`` every machine ``p`` gets the score

    ``C(p) = C_rep(p) + lam * C_bal(p)``

    where ``C_rep(p) = g(u, p) + g(v, p)`` with
    ``g(w, p) = 1 + (1 - theta_w)`` if ``p`` already replicates ``w``
    (else 0), ``theta_w`` the normalized partial degree of ``w`` within
    the pair, and ``C_bal`` the standard normalized slack term.  Higher
    ``lam`` trades replication factor for load balance.

    The effect on power-law graphs: hubs (high partial degree, small
    ``1 - theta``) are the endpoints allowed to replicate, while tail
    vertices stay compact — exactly the degree profile of the paper's
    Twitter/LiveJournal workloads.
    """

    name = "hdrf"

    def __init__(self, seed: int | None = 0, lam: float = 1.0) -> None:
        if lam < 0:
            raise PartitionError("lam must be non-negative")
        self._seed = seed
        self.lam = lam

    def partition(self, graph: DiGraph, num_machines: int) -> EdgePartition:
        _validate(graph, num_machines)
        rng = np.random.default_rng(
            self._seed if self._seed is None else [106, self._seed]
        )
        n = graph.num_vertices
        m = graph.num_edges
        src = graph.edge_sources()
        dst = graph.indices
        order = rng.permutation(m)

        replicas = np.zeros((n, num_machines), dtype=bool)
        partial_degree = np.zeros(n, dtype=np.int64)
        loads = np.zeros(num_machines, dtype=np.int64)
        placement = np.empty(m, dtype=np.int32)
        epsilon = 1.0

        for edge in order:
            u, v = int(src[edge]), int(dst[edge])
            partial_degree[u] += 1
            partial_degree[v] += 1
            du, dv = partial_degree[u], partial_degree[v]
            theta_u = du / (du + dv)
            theta_v = 1.0 - theta_u
            g_u = np.where(replicas[u], 1.0 + (1.0 - theta_u), 0.0)
            g_v = np.where(replicas[v], 1.0 + (1.0 - theta_v), 0.0)
            max_load = loads.max()
            min_load = loads.min()
            c_bal = (max_load - loads) / (epsilon + max_load - min_load)
            score = g_u + g_v + self.lam * c_bal
            machine = int(np.argmax(score))
            placement[edge] = machine
            replicas[u, machine] = True
            replicas[v, machine] = True
            loads[machine] += 1
        return EdgePartition(placement, num_machines)


def _mix64(keys: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer: deterministic high-quality 64-bit mixing."""
    z = keys.astype(np.uint64, copy=True)
    with np.errstate(over="ignore"):
        z += np.uint64(0x9E3779B97F4A7C15)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        z ^= z >> np.uint64(31)
    return z


def stable_hash_machines(
    keys: np.ndarray, num_machines: int, seed: int | None = 0
) -> np.ndarray:
    """Machine of each edge key under the stable endpoint-pair hash.

    ``keys`` are ``source * num_vertices + target`` edge identifiers (the
    canonical key encoding used by :class:`~repro.dynamic.DynamicDiGraph`).
    The result depends only on ``(key, seed)`` — never on which other
    edges exist — which is exactly the property incremental ingress
    maintenance needs: an edge that survives churn keeps its machine.
    ``seed=None`` degrades to seed 0 (the hash has no entropy source).
    """
    if num_machines < 1:
        raise PartitionError("num_machines must be positive")
    keys = np.asarray(keys).astype(np.uint64)
    with np.errstate(over="ignore"):
        salted = keys + np.uint64(
            (seed or 0) % (1 << 63)
        ) * np.uint64(0x5851F42D4C957F2D)
    hashed = _mix64(salted)
    return (hashed % np.uint64(num_machines)).astype(np.int32)


class StableHashVertexCut(Partitioner):
    """Vertex-cut placement by deterministic endpoint-pair hash.

    Deterministic in ``(source, target, seed)``: the same edge always
    lands on the same machine, across snapshots, insertions and
    deletions — the property incremental ingress needs.  Statistically
    equivalent to :class:`RandomVertexCut` (uniform, independent
    placements).
    """

    name = "stable-hash"

    def __init__(self, seed: int | None = 0) -> None:
        self._seed = seed

    def partition(self, graph: DiGraph, num_machines: int) -> EdgePartition:
        _validate(graph, num_machines)
        n = graph.num_vertices
        keys = graph.edge_sources().astype(np.int64) * n + graph.indices
        return EdgePartition(
            stable_hash_machines(keys, num_machines, self._seed),
            num_machines,
        )


_PARTITIONERS: dict[str, type[Partitioner]] = {
    "random": RandomVertexCut,
    "oblivious": ObliviousVertexCut,
    "grid": GridVertexCut,
    "hdrf": HdrfVertexCut,
    "stable-hash": StableHashVertexCut,
}


def make_partitioner(name: str, seed: int | None = 0) -> Partitioner:
    """Factory over the registered ingress strategies.

    Accepts ``"random"``, ``"oblivious"``, ``"grid"``, ``"hdrf"`` or
    ``"stable-hash"``.
    """
    try:
        cls = _PARTITIONERS[name]
    except KeyError:
        raise PartitionError(
            f"unknown partitioner {name!r}; "
            f"expected one of {sorted(_PARTITIONERS)}"
        ) from None
    return cls(seed)


def _validate(graph: DiGraph, num_machines: int) -> None:
    if num_machines < 1:
        raise PartitionError("num_machines must be positive")
    if graph.num_edges == 0:
        raise PartitionError("cannot partition a graph with no edges")
