"""Synthetic user populations and the query streams they generate.

The workload layer turns arrival *instants* (:mod:`repro.traffic.arrivals`)
into arrival *queries*: each event is attributed to a user drawn from a
Zipf popularity law, and each user owns a persistent personalized seed
set (their "interests"), itself drawn from a Zipf law over vertices.

That double-Zipf structure is what makes the stream realistic for a
caching service: a heavy-tailed user law means the same hot users (and
hence the same cache keys) recur often enough for the TTL/LRU cache and
the in-flight coalescer to matter, while the long tail keeps producing
cold queries that must ride the cluster — the mixture every production
cache sees.  Everything is deterministic for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError
from ..serving.batching import RankingQuery
from .arrivals import ArrivalProcess

__all__ = ["UserPopulation", "QueryEvent", "TrafficWorkload"]


def _zipf_weights(n: int, exponent: float) -> np.ndarray:
    ranks = np.arange(1, n + 1, dtype=np.float64)
    weights = ranks ** (-exponent)
    return weights / weights.sum()


@dataclass(frozen=True)
class QueryEvent:
    """One scheduled arrival: when, who, and what they ask."""

    time_s: float
    user_id: int
    query: RankingQuery


class UserPopulation:
    """A fixed population of users with persistent Zipf interests.

    Parameters
    ----------
    num_users:
        Population size.  User ``u``'s query is a pure function of
        ``(seed, u)`` — ask twice, get the identical
        :class:`~repro.serving.RankingQuery` (and hence cache key).
    num_vertices:
        Vertex-id range queries may seed from (the served graph's
        ``num_vertices``).
    seeds_per_user:
        Size of each user's personalized seed set.
    vertex_exponent:
        Zipf exponent of vertex popularity: interests concentrate on a
        small popular core (vertex ids are rank-shuffled first so
        popularity is not correlated with graph construction order).
    k:
        Answer length every generated query requests.
    seed:
        Master seed for all population randomness.
    """

    def __init__(
        self,
        num_users: int,
        num_vertices: int,
        seeds_per_user: int = 1,
        vertex_exponent: float = 1.1,
        k: int = 10,
        seed: int = 0,
    ) -> None:
        if num_users < 1:
            raise ConfigError("num_users must be positive")
        if num_vertices < 1:
            raise ConfigError("num_vertices must be positive")
        if not 1 <= seeds_per_user <= num_vertices:
            raise ConfigError(
                "seeds_per_user must lie in [1, num_vertices]"
            )
        if vertex_exponent <= 0:
            raise ConfigError("vertex_exponent must be positive")
        if k < 1:
            raise ConfigError("k must be positive")
        self.num_users = int(num_users)
        self.num_vertices = int(num_vertices)
        self.seeds_per_user = int(seeds_per_user)
        self.vertex_exponent = float(vertex_exponent)
        self.k = int(k)
        self.seed = int(seed)
        rng = np.random.default_rng([37, self.seed])
        # Popularity rank r maps to a random vertex id; weight ~ r^-s.
        self._ranked_vertices = rng.permutation(self.num_vertices)
        self._vertex_weights = _zipf_weights(
            self.num_vertices, self.vertex_exponent
        )
        # Draw every user's interest set up front (one vectorizable
        # pass, then per-user slices) so query_for stays O(seeds).
        self._user_seeds = np.empty(
            (self.num_users, self.seeds_per_user), dtype=np.int64
        )
        for user in range(self.num_users):
            user_rng = np.random.default_rng([37, self.seed, user])
            ranks = user_rng.choice(
                self.num_vertices,
                size=self.seeds_per_user,
                replace=False,
                p=self._vertex_weights,
            )
            self._user_seeds[user] = self._ranked_vertices[ranks]

    def query_for(self, user_id: int) -> RankingQuery:
        """The (deterministic) query user ``user_id`` always issues."""
        if not 0 <= user_id < self.num_users:
            raise ConfigError(
                f"user_id must lie in [0, {self.num_users}), got {user_id}"
            )
        seeds = tuple(int(v) for v in sorted(self._user_seeds[user_id]))
        return RankingQuery(seeds=seeds, k=self.k)


class TrafficWorkload:
    """An arrival process crossed with a user population.

    ``events(duration_s)`` materializes the full open-loop schedule:
    arrival instants from the process, each attributed to a user drawn
    from a Zipf law over the population (``user_exponent`` controls how
    heavy the heavy users are), each carrying that user's persistent
    query.
    """

    def __init__(
        self,
        population: UserPopulation,
        arrivals: ArrivalProcess,
        user_exponent: float = 1.0,
        seed: int = 0,
    ) -> None:
        if user_exponent <= 0:
            raise ConfigError("user_exponent must be positive")
        self.population = population
        self.arrivals = arrivals
        self.user_exponent = float(user_exponent)
        self.seed = int(seed)

    def events(self, duration_s: float) -> list[QueryEvent]:
        """The deterministic arrival schedule on ``[0, duration_s)``."""
        times = self.arrivals.times(duration_s)
        rng = np.random.default_rng([41, self.seed])
        weights = _zipf_weights(
            self.population.num_users, self.user_exponent
        )
        users = rng.choice(
            self.population.num_users, size=len(times), p=weights
        )
        return [
            QueryEvent(
                time_s=float(t),
                user_id=int(u),
                query=self.population.query_for(int(u)),
            )
            for t, u in zip(times, users)
        ]
