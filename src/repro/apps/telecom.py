"""Influential-customer analysis on call graphs.

The paper's first motivating application (Section 1, citing Teradata's
"grow loyalty of influential customers"): a telecom ranks customers by
top-k PageRank on the call-activity graph and invests its retention
budget in the top k.  This module synthesizes a call-detail-record
(CDR) workload, builds the activity graph, and finds influencers with
FrogWild.

The synthetic CDR generator produces the two features that make the
problem PageRank-shaped: heavy-tailed calling activity (a few customers
interact very widely) and preferential receiving (popular customers
attract calls from other popular customers).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core import FrogWildConfig, run_frogwild
from ..errors import ConfigError
from ..graph import DiGraph, from_edges, sorted_unique

__all__ = [
    "generate_call_graph",
    "find_influencers",
    "campaign_reach",
    "InfluencerReport",
]


def generate_call_graph(
    num_customers: int = 5_000,
    num_calls: int = 60_000,
    activity_exponent: float = 2.3,
    popularity_mix: float = 0.7,
    seed: int | None = 0,
) -> DiGraph:
    """Synthesize a directed call graph (edge = "caller called callee").

    Callers are sampled proportionally to a Pareto activity weight;
    callees mix popularity-proportional choice (probability
    ``popularity_mix``) with uniform choice.  Repeat calls collapse to
    one edge (the builder dedups), mirroring how CDR piles are reduced
    to contact graphs.
    """
    if num_customers < 2:
        raise ConfigError("need at least two customers")
    if num_calls < 1:
        raise ConfigError("need at least one call")
    if not 0.0 <= popularity_mix <= 1.0:
        raise ConfigError("popularity_mix must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    activity = (1.0 - rng.random(num_customers)) ** (
        -1.0 / (activity_exponent - 1.0)
    )
    # Popularity correlates with calling activity (socially active people
    # both place and receive many calls) with lognormal individual noise.
    popularity = activity * np.exp(rng.normal(0.0, 0.5, num_customers))
    p_call = activity / activity.sum()
    p_recv = popularity / popularity.sum()

    callers = rng.choice(num_customers, size=num_calls, p=p_call)
    prefer = rng.random(num_calls) < popularity_mix
    callees = np.where(
        prefer,
        rng.choice(num_customers, size=num_calls, p=p_recv),
        rng.integers(0, num_customers, size=num_calls),
    )
    ok = callers != callees
    return from_edges(
        np.column_stack([callers[ok], callees[ok]]),
        num_vertices=num_customers,
    )


@dataclass(frozen=True)
class InfluencerReport:
    """Result of an influencer-identification run."""

    influencers: np.ndarray
    scores: np.ndarray
    network_bytes: int
    total_time_s: float

    def top(self, limit: int = 10) -> list[tuple[int, float]]:
        """(customer id, score) pairs, most influential first."""
        return [
            (int(v), float(s))
            for v, s in zip(self.influencers[:limit], self.scores[:limit])
        ]


def find_influencers(
    graph: DiGraph,
    k: int = 50,
    config: FrogWildConfig | None = None,
    num_machines: int = 8,
) -> InfluencerReport:
    """Top-k influential customers by approximate PageRank."""
    if k < 1:
        raise ConfigError("k must be positive")
    if config is None:
        config = FrogWildConfig(
            num_frogs=max(2_000, graph.num_vertices // 2),
            iterations=5,
            ps=0.7,
            seed=0,
        )
    result = run_frogwild(graph, config, num_machines=num_machines)
    chosen = result.estimate.top_k(k)
    distribution = result.estimate.distribution()
    return InfluencerReport(
        influencers=chosen,
        scores=distribution[chosen],
        network_bytes=result.report.network_bytes,
        total_time_s=result.report.total_time_s,
    )


def campaign_reach(graph: DiGraph, seeds: np.ndarray, hops: int = 2) -> float:
    """Fraction of customers within ``hops`` of the seed set.

    A loyalty campaign aimed at the seeds "reaches" everyone they can
    influence within a few referral hops — the payoff metric for
    choosing good influencers.
    """
    if hops < 0:
        raise ConfigError("hops must be non-negative")
    n = graph.num_vertices
    reached = np.zeros(n, dtype=bool)
    seeds = np.asarray(seeds, dtype=np.int64)
    reached[seeds] = True
    frontier = seeds
    for _ in range(hops):
        if frontier.size == 0:
            break
        nexts = []
        for v in frontier:
            nexts.append(graph.successors(int(v)))
        neighbours = sorted_unique(np.concatenate(nexts)) if nexts else frontier
        fresh = neighbours[~reached[neighbours]]
        reached[fresh] = True
        frontier = fresh
    return float(reached.mean())
