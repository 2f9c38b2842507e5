"""Tests for the ranking service: cache, coalescing, cost accounting."""

import pickle

import numpy as np
import pytest

from repro.core import FrogWildConfig
from repro.errors import ConfigError
from repro.serving import (
    QueryCoalescer,
    RankingQuery,
    RankingService,
    ServiceConfig,
    TTLCache,
)
from repro.traffic import QueryTracer


class FakeClock:
    """Deterministic, manually advanced cache clock."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


@pytest.fixture(scope="module")
def graph():
    from repro.graph import twitter_like

    return twitter_like(n=800, seed=9)


def make_service(graph, **kwargs):
    defaults = dict(
        config=FrogWildConfig(num_frogs=1200, iterations=4, seed=0),
        num_machines=4,
        max_batch_size=4,
    )
    defaults.update(kwargs)
    return RankingService(graph, ServiceConfig(**defaults))


class TestTTLCache:
    def test_hit_miss_and_lru_touch(self):
        cache = TTLCache(capacity=2)
        assert cache.get("a") is None
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # touches "a": "b" becomes LRU
        cache.put("c", 3)
        assert "b" not in cache
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3
        assert cache.stats.evictions == 1
        assert cache.stats.hits == 3 and cache.stats.misses == 2

    def test_ttl_expiry(self):
        clock = FakeClock()
        cache = TTLCache(capacity=8, ttl_s=10.0, clock=clock)
        cache.put("key", "value")
        clock.advance(9.0)
        assert cache.get("key") == "value"
        clock.advance(2.0)
        assert cache.get("key") is None
        assert cache.stats.expirations == 1
        assert len(cache) == 0

    def test_put_refreshes_age_and_recency(self):
        clock = FakeClock()
        cache = TTLCache(capacity=8, ttl_s=10.0, clock=clock)
        cache.put("key", "old")
        clock.advance(8.0)
        cache.put("key", "new")
        clock.advance(8.0)
        assert cache.get("key") == "new"

    def test_validation(self):
        with pytest.raises(ConfigError):
            TTLCache(capacity=0)
        with pytest.raises(ConfigError):
            TTLCache(ttl_s=0.0)

    def test_len_counts_only_live_entries(self):
        """Regression: ``len`` used to report expired entries as live."""
        clock = FakeClock()
        cache = TTLCache(capacity=8, ttl_s=10.0, clock=clock)
        cache.put("a", 1)
        clock.advance(6.0)
        cache.put("b", 2)
        assert len(cache) == 2
        clock.advance(6.0)  # "a" dead at t=12, "b" live until t=16
        assert len(cache) == 1
        assert cache.stats.expirations == 1
        clock.advance(6.0)
        assert len(cache) == 0
        assert cache.stats.expirations == 2

    def test_put_purges_expired_before_evicting_live_lru(self):
        """Regression: a full-looking cache of dead entries must not
        evict a live LRU entry to make room."""
        clock = FakeClock()
        cache = TTLCache(capacity=2, ttl_s=10.0, clock=clock)
        cache.put("dead", 1)
        clock.advance(11.0)
        cache.put("live", 2)
        cache.put("new", 3)  # capacity 2: room exists once "dead" purges
        assert cache.get("live") == 2
        assert cache.get("new") == 3
        assert cache.stats.evictions == 0
        assert cache.stats.expirations == 1

    def test_overwrite_of_expired_counts_as_expiration(self):
        """Regression: refreshing a dead key is an expiration + insert,
        not a silent live overwrite."""
        clock = FakeClock()
        cache = TTLCache(capacity=8, ttl_s=10.0, clock=clock)
        cache.put("key", "old")
        clock.advance(11.0)
        cache.put("key", "new")
        assert cache.stats.expirations == 1
        assert cache.get("key") == "new"
        # A *live* overwrite is neither an expiration nor an eviction.
        cache.put("key", "newer")
        assert cache.stats.expirations == 1
        assert cache.stats.evictions == 0

    def test_hit_rate(self):
        cache = TTLCache(capacity=8)
        assert cache.stats.hit_rate() == 0.0
        cache.put("a", 1)
        for key in ("a", "a", "a", "b"):
            cache.get(key)
        assert cache.stats.hit_rate() == 0.75

    def test_membership_test_touches_nothing(self):
        """``in`` neither counts a lookup nor refreshes LRU recency."""
        cache = TTLCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert "a" in cache and "zzz" not in cache
        assert cache.stats.hits == 0 and cache.stats.misses == 0
        cache.put("c", 3)  # "a" is still the LRU entry
        assert "a" not in cache and "b" in cache

    def test_clear_keeps_stats(self):
        cache = TTLCache(capacity=8)
        cache.put("a", 1)
        cache.get("a")
        cache.clear()
        assert len(cache) == 0
        assert cache.get("a") is None
        assert cache.stats.hits == 1 and cache.stats.misses == 1


class TestCoalescer:
    def test_mixed_configs_never_share_a_batch(self):
        default = FrogWildConfig(seed=0)
        fast = FrogWildConfig(num_frogs=100, iterations=2, seed=0)
        coalescer = QueryCoalescer(max_batch_size=8)
        for vertex in range(3):
            coalescer.add(RankingQuery(seeds=(vertex,)), default)
        coalescer.add(RankingQuery(seeds=(9,), config=fast), default)
        coalescer.add(RankingQuery(seeds=(10,), config=fast), default)
        batches = coalescer.drain_entries()
        assert len(batches) == 2
        by_config = {config: queries for config, queries in batches}
        assert len(by_config[default]) == 3
        assert len(by_config[fast]) == 2
        assert coalescer.pending_count() == 0

    def test_batches_respect_max_size_fifo(self):
        default = FrogWildConfig(seed=0)
        coalescer = QueryCoalescer(max_batch_size=4)
        for vertex in range(10):
            coalescer.add(RankingQuery(seeds=(vertex,)), default)
        batches = coalescer.drain_entries()
        assert [len(queries) for _, queries in batches] == [4, 4, 2]
        order = [q.query.seeds[0] for _, queries in batches for q in queries]
        assert order == list(range(10))

    def test_query_validation(self):
        with pytest.raises(ConfigError):
            RankingQuery(seeds=())
        with pytest.raises(ConfigError):
            RankingQuery(seeds=(1,), k=0)
        with pytest.raises(ConfigError):
            RankingQuery(seeds=(1, 2), weights=(1.0,))
        with pytest.raises(ConfigError):
            RankingQuery(seeds=(3, 3))
        with pytest.raises(ConfigError):
            RankingQuery(seeds=(-1,))
        # A float k used to pass construction and then raise inside the
        # batch, stranding its batchmates; True was served as k = 1.
        for k in (2.5, 3.0, True, "3", None):
            with pytest.raises(ConfigError, match="k must be an integer"):
                RankingQuery(seeds=(1, 2), k=k)
        # int() used to truncate 1.9 to vertex 1 and read True as 1.
        for seeds in (
            (1.9,), (1, 2.5), (True,), (2, True),
            np.array([1.0, 2.0]), np.array([True, False]),
        ):
            with pytest.raises(ConfigError, match="seed ids must be integers"):
                RankingQuery(seeds=seeds)

    def test_numpy_integers_still_accepted(self):
        query = RankingQuery(
            seeds=np.array([5, 2], dtype=np.int32), k=np.int64(4)
        )
        assert query.seeds == (5, 2) and query.k == 4
        assert RankingQuery(seeds=(np.int64(7), 3)).seeds == (7, 3)
        assert RankingQuery(seeds=np.uint16(9)).seeds == (9,)

    def test_degenerate_weights_fail_at_construction(self):
        """A bad restart law must never reach dispatch: zero-mass or
        negative weights fail when the query is built (the one seed-set
        check every runner shares), so a batch cannot blow up
        mid-traversal on behalf of one malformed batchmate."""
        with pytest.raises(ConfigError):
            RankingQuery(seeds=(3,), weights=(0.0,))
        with pytest.raises(ConfigError):
            RankingQuery(seeds=(3, 4), weights=(1.0, -0.5))
        with pytest.raises(ConfigError):
            RankingQuery(seeds=(3,), weights=(float("nan"),))
        with pytest.raises(ConfigError):
            RankingQuery(seeds=(3, 4), weights=(float("inf"), 1.0))
        with pytest.raises(ConfigError, match="positive mass"):
            RankingQuery(seeds=(3, 4), weights=(1e308, 1e308))
        # A valid skewed law still constructs.
        assert RankingQuery(seeds=(3, 4), weights=(0.0, 2.0)).weights == (
            0.0, 2.0,
        )

    def test_cache_key_ignores_k_but_not_config(self):
        default = FrogWildConfig(seed=0)
        other = FrogWildConfig(num_frogs=123, seed=0)
        q10 = RankingQuery(seeds=(1, 2), k=10)
        q50 = RankingQuery(seeds=(1, 2), k=50)
        assert q10.cache_key(default) == q50.cache_key(default)
        assert q10.cache_key(default) != q10.cache_key(other)


class TestUniformQuery:
    """``RankingQuery(seeds=None)``: frogs born uniformly on all n
    vertices, global PageRank's birth law, held as no seeds at all."""

    def test_weights_need_a_seed_set(self):
        with pytest.raises(ConfigError, match="weights need a seed set"):
            RankingQuery(seeds=None, weights=(1.0,))
        query = RankingQuery(seeds=None, k=3)
        assert query.seeds is None and query.weights is None

    @staticmethod
    def _cache_key_bytes(n):
        from repro.graph import twitter_like

        service = make_service(twitter_like(n=n, seed=9))
        try:
            first = service.query(None, k=5)
            assert not first.cached and service.query(None, k=5).cached
            return len(pickle.dumps(list(service.cache._entries)))
        finally:
            service.close()

    def test_holds_nothing_n_sized(self):
        """``np.arange(n)`` seeds became an n-tuple of Python ints held
        by the query and its cache key (8.0 MB at n = 200 000); a query
        without seeds keys the cache in the same bytes at any n."""
        assert self._cache_key_bytes(500) == self._cache_key_bytes(4_000)

    @pytest.mark.parametrize("backend", ["local", "sharded", "process"])
    def test_answers_global_pagerank(self, graph, backend):
        from repro.metrics import normalized_mass_captured
        from repro.pagerank import exact_pagerank

        service = make_service(
            graph, backend=backend, num_shards=1 if backend == "local" else 2,
            tracer=QueryTracer(),
        )
        try:
            answer = service.query(None, k=10)
            trace = service.tracer.recent(1)[0]
        finally:
            service.close()
        assert trace.seeds is None and trace.as_dict()["seeds"] is None
        scores = np.zeros(graph.num_vertices)
        scores[answer.vertices] = answer.scores
        mass = normalized_mass_captured(scores, exact_pagerank(graph), 10)
        assert mass >= 0.9, mass


class TestRankingService:
    def test_miss_then_hit_returns_identical_answer(self, graph):
        service = make_service(graph)
        first = service.query([5, 9], k=6)
        second = service.query([5, 9], k=6)
        assert not first.cached and second.cached
        np.testing.assert_array_equal(first.vertices, second.vertices)
        np.testing.assert_array_equal(first.scores, second.scores)
        row = service.snapshot()
        assert row["cache_hits"] == 1.0 and row["cache_misses"] == 1.0

    def test_malformed_queries_are_refused_before_submission(self, graph):
        """Fractional seeds are not truncated, a bool is not a vertex,
        and a non-integer k never reaches a batch."""
        service = make_service(graph)
        for seeds, k in (([1.9], 5), ([True], 5), ([1, 2], 2.5), ([1, 2], True)):
            with pytest.raises(ConfigError):
                service.query(seeds, k=k)
            with pytest.raises(ConfigError):
                service.submit(seeds, k=k)
        assert service.stats.queries_submitted == 0
        assert service.stats.queries_served == 0

    def test_hit_answers_are_caller_owned_copies(self, graph):
        """A hit copies the entry's top-k: writing one answer changes
        neither the cache nor any other answer."""
        service = make_service(graph)
        first = service.query([4, 8], k=6)
        second = service.query([4, 8], k=6)
        assert second.cached
        for answer in (first, second):
            assert answer.vertices.flags.writeable
            assert answer.scores.flags.writeable
        assert not np.shares_memory(first.vertices, second.vertices)
        assert not np.shares_memory(first.scores, second.scores)
        expected = first.vertices.copy(), first.scores.copy()
        first.vertices[:] = -1
        second.scores[:] = 0.0
        third = service.query([4, 8], k=6)
        np.testing.assert_array_equal(third.vertices, expected[0])
        np.testing.assert_array_equal(third.scores, expected[1])

    def test_k_is_a_prefix_of_the_cached_estimate(self, graph):
        service = make_service(graph)
        wide = service.query([7], k=20)
        narrow = service.query([7], k=5)
        assert narrow.cached
        np.testing.assert_array_equal(wide.vertices[:5], narrow.vertices)

    def test_ttl_expiry_forces_reexecution(self, graph):
        clock = FakeClock()
        service = make_service(graph, cache_ttl_s=60.0, clock=clock)
        service.query([3])
        clock.advance(120.0)
        answer = service.query([3])
        assert not answer.cached
        assert service.stats.queries_executed == 2

    def test_lru_eviction_bounds_cache(self, graph):
        service = make_service(graph, cache_capacity=2)
        for vertex in (1, 2, 3):
            service.query([vertex])
        # vertex 1 was evicted; 3 is fresh.
        assert service.query([3]).cached
        assert not service.query([1]).cached
        assert service.cache.stats.evictions >= 1

    def test_coalescing_splits_mixed_configs(self, graph):
        service = make_service(graph)
        fast = FrogWildConfig(num_frogs=400, iterations=2, seed=0)
        queries = [RankingQuery(seeds=(v,)) for v in range(3)]
        queries.append(RankingQuery(seeds=(3,), config=fast))
        answers = service.query_batch(queries)
        assert service.stats.batches_run == 2
        assert sorted(service.stats.batch_size.recent) == [1, 3]
        assert answers[3].report.extra["num_frogs"] == 400.0
        for answer in answers[:3]:
            assert answer.batch_size == 3

    def test_batches_respect_max_batch_size(self, graph):
        service = make_service(graph, max_batch_size=3)
        answers = service.query_batch(
            [RankingQuery(seeds=(v,)) for v in range(7)]
        )
        assert list(service.stats.batch_size.recent) == [3, 3, 1]
        assert all(answer is not None for answer in answers)

    def test_duplicate_queries_collapse_into_one_population(self, graph):
        service = make_service(graph)
        answers = service.query_batch(
            [RankingQuery(seeds=(5,)), RankingQuery(seeds=(5,), k=3)]
        )
        assert service.stats.queries_executed == 1
        assert service.stats.queries_served == 2
        np.testing.assert_array_equal(
            answers[0].vertices[:3], answers[1].vertices
        )

    def test_cost_accounting_sums_across_batch(self, graph):
        service = make_service(graph)
        answers = service.query_batch(
            [RankingQuery(seeds=(v,)) for v in range(4)]
        )
        attributed = sum(answer.network_bytes for answer in answers)
        assert attributed == service.stats.attributed_network_bytes
        # Shared wire bytes never exceed the standalone-priced total.
        assert service.stats.shared_network_bytes <= attributed
        assert 0.0 < service.stats.amortization_ratio() <= 1.0
        total_cpu = sum(answer.cpu_seconds for answer in answers)
        assert total_cpu > 0.0

    def test_answers_in_query_order_with_personalized_mass(self, graph):
        service = make_service(
            graph,
            config=FrogWildConfig(num_frogs=4000, iterations=6, seed=0),
        )
        answers = service.query_batch(
            [RankingQuery(seeds=(2,), k=5), RankingQuery(seeds=(600,), k=5)]
        )
        assert answers[0].query.seeds == (2,)
        assert answers[1].query.seeds == (600,)
        # Frogs restart on the query's seeds, so the seed itself ranks.
        assert 2 in answers[0].vertices.tolist()
        assert 600 in answers[1].vertices.tolist()

    def test_malformed_query_fails_atomically(self, graph):
        """One out-of-range query rejects the whole call *before* any
        execution — its batchmates' work is never half-done."""
        service = make_service(graph)
        with pytest.raises(ConfigError):
            service.query_batch(
                [
                    RankingQuery(seeds=(1,)),
                    RankingQuery(seeds=(graph.num_vertices + 5,)),
                ]
            )
        assert service.stats.queries_executed == 0
        assert service.stats.batches_run == 0
        assert service.coalescer.pending_count() == 0
        # The valid query was neither cached nor lost; a retry executes.
        answer = service.query([1])
        assert not answer.cached

    def test_cache_disabled_service_always_executes(self, graph):
        service = make_service(graph, cache_capacity=0)
        service.query([4])
        answer = service.query([4])
        assert not answer.cached
        assert service.stats.queries_executed == 2
        assert not any(key.startswith("cache_") for key in service.snapshot())

    def test_deterministic_across_service_instances(self, graph):
        first = make_service(graph).query([8, 13], k=7)
        second = make_service(graph).query([8, 13], k=7)
        np.testing.assert_array_equal(first.vertices, second.vertices)
        np.testing.assert_array_equal(first.scores, second.scores)


class TestBackendContract:
    def test_lane_count_mismatch_fails_loudly_and_cleans_up(self, graph):
        """A backend that answers the wrong number of lanes must fail
        the call (and its futures) rather than silently truncating —
        and must not poison the in-flight dedup table."""
        from repro.errors import EngineError
        from repro.serving import BatchOutcome

        class TruncatingBackend:
            num_shards = 1

            def run_batch(self, config, queries):
                return BatchOutcome(
                    lanes=(), shared_network_bytes=0, simulated_time_s=0.0
                )

        service = make_service(graph, backend=TruncatingBackend())
        with pytest.raises(EngineError):
            service.query_batch([RankingQuery(seeds=(1,))])
        assert service._inflight == {}
        # The service recovers once a working backend is swapped in.
        from repro.serving import LocalBackend

        service.backend = LocalBackend(graph, num_machines=4, seed=0)
        assert service.query([1]).vertices.size > 0


class TestAtomicFailure:
    def test_fill_dispatch_error_abandons_the_calls_other_lanes(self, graph):
        """If a filled batch's dispatch raises mid-query_batch, the
        call's other already-enqueued lanes are abandoned (futures
        failed, coalescer and in-flight table clean) — no ghost work
        rides a later caller's flush."""
        from repro.serving import LocalBackend

        real = LocalBackend(graph, num_machines=4, seed=0)

        class Exploding:
            num_shards = 1

            def __init__(self):
                self.armed = True

            def run_batch(self, config, queries):
                if self.armed:
                    raise RuntimeError("backend down")
                return real.run_batch(config, queries)

        backend = Exploding()
        other = FrogWildConfig(num_frogs=300, iterations=2, seed=0)
        service = make_service(graph, backend=backend, max_batch_size=2)
        queries = [
            RankingQuery(seeds=(1,), config=other),  # partial group
            RankingQuery(seeds=(2,)),
            RankingQuery(seeds=(3,)),  # fills the default group -> boom
        ]
        with pytest.raises(RuntimeError, match="backend down"):
            service.query_batch(queries)
        assert service.coalescer.pending_count() == 0
        assert service._inflight == {}
        # Recovery: the same queries execute cleanly once the backend heals.
        backend.armed = False
        answers = service.query_batch(queries)
        assert [a.query.seeds[0] for a in answers] == [1, 2, 3]


class TestGenerationInvalidation:
    """Graph-generation counters as the cache's invalidation clock."""

    def test_version_bump_invalidates_cached_rankings(self, graph):
        from repro.dynamic import DynamicDiGraph

        dynamic = DynamicDiGraph.from_digraph(graph)
        service = make_service(graph, generation=lambda: dynamic.version)
        first = service.query([5])
        assert not first.cached
        assert service.query([5]).cached
        # Churn: the tracked graph moves, cached rankings must not serve.
        dynamic.add_edges([(1, 2)])
        stale = service.query([5])
        assert not stale.cached
        assert service.stats.queries_executed == 2
        # The new generation caches independently.
        assert service.query([5]).cached

    def test_stable_generation_keeps_cache_hot(self, graph):
        service = make_service(graph, generation=lambda: 7)
        service.query([4])
        assert service.query([4]).cached
        assert service.stats.queries_executed == 1

    def test_no_generation_means_plain_keys(self, graph):
        service = make_service(graph)
        query = RankingQuery(seeds=(3,))
        assert service._cache_key(query) == query.cache_key(
            service.default_config
        )

    def test_dynamic_graph_defaults_the_generation_provider(self, graph):
        """A DynamicDiGraph-backed service gets churn invalidation by
        default: no manual generation= plumbing required."""
        from repro.dynamic import DynamicDiGraph

        dynamic = DynamicDiGraph.from_digraph(graph)
        service = make_service(dynamic)
        assert service.generation is not None
        assert service.graph.num_vertices == graph.num_vertices
        service.query([5])
        assert service.query([5]).cached
        dynamic.add_edges([(1, 2)])
        assert not service.query([5]).cached
        assert service.stats.queries_executed == 2

    def test_explicit_generation_wins_over_the_dynamic_default(self, graph):
        from repro.dynamic import DynamicDiGraph

        dynamic = DynamicDiGraph.from_digraph(graph)
        service = make_service(dynamic, generation=lambda: 42)
        service.query([4])
        dynamic.add_edges([(1, 2)])  # pinned generation: still cached
        assert service.query([4]).cached


class TestShardAutotuning:
    """choose_num_shards and the num_shards=None constructor paths."""

    def test_bounds(self):
        from repro.serving import choose_num_shards

        # Fleet bound: shards need >= 2 machines each.
        assert choose_num_shards(6, num_frogs=10**6) == 3
        assert choose_num_shards(3, num_frogs=10**6) == 1
        # Replication bound caps full ingress copies at 4.
        assert choose_num_shards(32, num_frogs=10**6) == 4
        # Frog bound: a shard's share needs >= 2 000 frogs, so tiny
        # budgets do not fan out at all.
        assert choose_num_shards(16, num_frogs=1_000) == 1
        assert choose_num_shards(16, num_frogs=4_000) == 2
        assert choose_num_shards(16, num_frogs=5_999) == 2
        # No hint: frogs do not constrain.
        assert choose_num_shards(16) == 4
        with pytest.raises(ConfigError):
            choose_num_shards(0)

    def test_sharded_backend_autotunes_when_unset(self, graph):
        from repro.serving import ShardedBackend, choose_num_shards
        from repro.serving.backend import build_backend

        def build(num_frogs):
            return build_backend(
                ServiceConfig(
                    config=FrogWildConfig(num_frogs=num_frogs, seed=0),
                    num_machines=16, num_shards=None, backend="sharded",
                ),
                graph,
            )

        backend = build(100_000)
        assert isinstance(backend, ShardedBackend)
        assert backend.num_shards == choose_num_shards(
            16, num_frogs=100_000
        )
        assert build(500).num_shards == 1

    def test_service_num_shards_none_uses_the_config_budget(self, graph):
        big = make_service(
            graph,
            config=FrogWildConfig(num_frogs=8_000, iterations=3, seed=0),
            num_machines=8,
            num_shards=None,
        )
        assert big.num_shards == 4  # 8000 frogs fund four sub-clusters
        tiny = make_service(graph, num_shards=None, num_machines=8)
        assert tiny.num_shards == 1  # 1200-frog default stays local
        # An autotune that resolves to one shard gets the LocalBackend
        # path — identical to an explicit num_shards=1 service.
        from repro.serving import LocalBackend

        assert isinstance(tiny.backend, LocalBackend)
        explicit = make_service(graph, num_shards=1, num_machines=8)
        np.testing.assert_array_equal(
            tiny.query([3]).vertices, explicit.query([3]).vertices
        )
        answer = big.query([3])
        assert answer.vertices.size > 0


class TestServiceStatsGuards:
    def test_zero_traversal_stats_are_well_defined(self, graph):
        """A service that has executed nothing reports neutral numbers
        from every stats accessor — no division by zero."""
        service = make_service(graph)
        stats = service.stats
        assert stats.amortization_ratio() == 1.0
        assert stats.batch_size.mean() == 0.0
        assert stats.shard_breakdown() == {}
        row = service.snapshot()
        assert row["service_batch_size_mean"] == 0.0
        assert row["service_batch_size_p99"] == 0.0
        assert not any("shard" in key for key in row)

    def test_cache_only_service_keeps_neutral_ratio(self, graph):
        service = make_service(graph)
        service.query([2])
        service.query([2])  # pure cache hit: no new traversal
        row = service.snapshot()
        assert row["service_queries_served"] == 2.0
        assert row["service_batch_size_count"] == 1.0
        assert 0.0 < service.stats.amortization_ratio() <= 1.0
        assert row["service_batch_size_mean"] == 1.0

    def test_unsharded_as_dict_has_no_shard_keys(self, graph):
        service = make_service(graph)
        service.query([1])
        assert not any("shard" in key for key in service.snapshot())


# ----------------------------------------------------------------------
# The cache holds a ranked support; a hit is a prefix copy of it
# ----------------------------------------------------------------------
def _reachable_arrays(value, depth=4):
    """Every ndarray reachable from ``value`` through containers and
    the attributes of ``repro`` objects."""
    if isinstance(value, np.ndarray):
        yield value
    elif depth == 0:
        return
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _reachable_arrays(item, depth - 1)
    elif isinstance(value, dict):
        for item in value.values():
            yield from _reachable_arrays(item, depth - 1)
    elif type(value).__module__.startswith("repro."):
        for item in vars(value).values():
            yield from _reachable_arrays(item, depth - 1)


def _footprint(array):
    """Elements an array keeps alive: its own or its base's."""
    base = array.base
    return max(array.size, base.size if isinstance(base, np.ndarray) else 0)


def _largest_answer_array(call):
    """Run ``call()``; the largest array (by footprint) that any frame of
    the service, cache or estimator modules bound to a local name — or
    held inside a local cache entry, estimate or answer — while it ran."""
    import sys

    from repro.core import estimator
    from repro.serving import cache, service

    files = {module.__file__ for module in (estimator, cache, service)}
    carriers = (
        service._CacheEntry,
        service.RankingAnswer,
        estimator.PageRankEstimate,
    )
    largest = 0

    def trace_lines(frame, event, arg):
        nonlocal largest
        for value in list(frame.f_locals.values()) + [arg]:
            if isinstance(value, (np.ndarray, tuple) + carriers):
                for array in _reachable_arrays(value):
                    largest = max(largest, _footprint(array))
        return trace_lines

    def trace_calls(frame, event, arg):
        return trace_lines if frame.f_code.co_filename in files else None

    previous = sys.gettrace()
    sys.settrace(trace_calls)
    try:
        return call(), largest
    finally:
        sys.settrace(previous)


class TestRankedCache:
    CONFIG = FrogWildConfig(num_frogs=400, iterations=4, seed=0)

    @pytest.fixture(scope="class")
    def wide_graph(self):
        # Far more vertices than frogs: the regime the paper runs in.
        from repro.graph import twitter_like

        return twitter_like(n=4000, seed=3)

    def _dense_lane(self, service, seeds):
        """The lane's dense estimate, run the way LocalBackend runs it."""
        from repro.core import BatchQuery, run_frogwild_batch

        backend = service.backend
        result = run_frogwild_batch(
            backend.graph,
            [BatchQuery(seeds=seeds)],
            self.CONFIG,
            state=backend.fresh_state(),
        )
        return result.results[0].estimate

    def test_a_hit_neither_ranks_nor_touches_n_elements(
        self, wide_graph, monkeypatch
    ):
        n = wide_graph.num_vertices
        service = make_service(wide_graph, config=self.CONFIG)
        miss = service.query([5, 9], k=10)
        assert not miss.cached
        calls = {"flatnonzero": 0, "argsort": 0}
        for name in calls:
            real = getattr(np, name)

            def counted(*args, _real=real, _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(np, name, counted)
        hit, largest = _largest_answer_array(lambda: service.query([5, 9], k=10))
        assert hit.cached
        assert calls == {"flatnonzero": 0, "argsort": 0}
        assert 10 <= largest <= self.CONFIG.num_frogs < n
        np.testing.assert_array_equal(hit.vertices, miss.vertices)
        np.testing.assert_array_equal(hit.scores, miss.scores)

    @pytest.mark.parametrize("shards", [1, 2])
    def test_no_cache_entry_references_an_n_vector(self, wide_graph, shards):
        from dataclasses import fields

        n = wide_graph.num_vertices
        service = make_service(wide_graph, config=self.CONFIG, num_shards=shards)
        service.query_batch(
            [RankingQuery(seeds=(s, s + 7), k=5) for s in range(6)]
        )
        entries = [entry for _, entry in service.cache._entries.values()]
        assert len(entries) == 6
        for entry in entries:
            arrays = [
                array
                for field in fields(entry)
                for array in _reachable_arrays(getattr(entry, field.name))
            ]
            assert arrays  # the ranked support itself
            assert max(_footprint(array) for array in arrays) < n
            frogs = entry.estimate.num_frogs
            assert frogs == self.CONFIG.num_frogs
            assert sum(array.nbytes for array in arrays) <= 16 * frogs

    def test_writing_into_an_answer_leaves_the_next_hit_alone(self, wide_graph):
        service = make_service(wide_graph, config=self.CONFIG)
        first = service.query([11], k=8)
        vertices, scores = first.vertices.copy(), first.scores.copy()
        first.vertices[:] = -1
        first.scores[:] = -1.0
        for _ in range(2):
            hit = service.query([11], k=8)
            assert hit.cached
            np.testing.assert_array_equal(hit.vertices, vertices)
            np.testing.assert_array_equal(hit.scores, scores)
            hit.vertices[:] = -2
            hit.scores[:] = -2.0

    def test_a_hit_of_any_k_is_a_fresh_dense_ranking_of_the_lane(
        self, wide_graph
    ):
        from repro.core import top_k_indices

        service = make_service(wide_graph, config=self.CONFIG)
        assert not service.query([21, 40], k=10).cached
        dense = self._dense_lane(service, [21, 40])
        support = int(np.count_nonzero(dense.counts))
        assert 50 < support < wide_graph.num_vertices
        for k in (1, 50, support + 3):
            hit = service.query([21, 40], k=k)
            assert hit.cached
            expected = top_k_indices(dense.counts, k)
            assert hit.vertices.dtype == expected.dtype
            np.testing.assert_array_equal(hit.vertices, expected)
            expected_scores = dense.counts[expected] / dense.num_frogs
            assert hit.scores.tobytes() == expected_scores.tobytes()
        assert service.stats.queries_executed == 1

    @pytest.mark.parametrize("backend", ["local", "sharded", "process"])
    def test_the_serving_path_never_materialises_the_dense_vector(
        self, wide_graph, backend, monkeypatch
    ):
        from repro.core import PageRankEstimate

        def refuse(self):
            raise AssertionError("O(n) materialisation on the serving path")

        # vector(), distribution(), ... all read through .counts.
        monkeypatch.setattr(PageRankEstimate, "counts", property(refuse))
        service = make_service(
            wide_graph,
            config=self.CONFIG,
            backend=backend,
            num_shards=1 if backend == "local" else 2,
        )
        try:
            miss = service.query([3, 30], k=6)
            hit = service.query([3, 30], k=6)
        finally:
            service.close()
        assert not miss.cached and hit.cached
        entry = service.cache._entries.popitem()[1][1]
        assert type(entry.estimate) is PageRankEstimate
        np.testing.assert_array_equal(hit.vertices, miss.vertices)

    @pytest.mark.parametrize("backend", ["local", "sharded", "process"])
    def test_a_lane_is_ranked_once_before_its_entry_is_shared(
        self, wide_graph, backend, monkeypatch
    ):
        """The backend hands back unranked records; the service ranks
        each executed lane once, at resolve, and every later hit of any
        k is a prefix of that kept order."""
        from repro.core import estimator

        ranks = []
        real = estimator.top_k_indices

        def counted(values, k):
            ranks.append(k)
            return real(values, k)

        monkeypatch.setattr(estimator, "top_k_indices", counted)
        service = make_service(
            wide_graph,
            config=self.CONFIG,
            backend=backend,
            num_shards=1 if backend == "local" else 2,
        )
        try:
            miss = service.query([5, 50], k=6)
            assert len(ranks) == 1
            hits = [service.query([5, 50], k=k) for k in (6, 2, 40)]
        finally:
            service.close()
        assert not miss.cached and all(hit.cached for hit in hits)
        assert len(ranks) == 1
        np.testing.assert_array_equal(hits[0].vertices, miss.vertices)
        np.testing.assert_array_equal(hits[1].vertices, miss.vertices[:2])
        np.testing.assert_array_equal(hits[2].vertices[:6], miss.vertices)
