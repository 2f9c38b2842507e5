"""ServiceConfig: the one construction path of both services.

``RankingService(graph, config)`` takes a :class:`ServiceConfig` and
nothing else; :class:`~repro.live.LiveRankingService` forwards its
keywords into one, and :func:`~repro.serving.backend.build_backend`
builds every backend from one.  So a setting is validated once, in
``ServiceConfig``, for every layout — and a live service at epoch 0
answers bitwise like the static service with the same layout.
"""

import dataclasses
import multiprocessing

import numpy as np
import pytest

from repro.core import FrogWildConfig
from repro.dynamic import DynamicDiGraph
from repro.errors import ConfigError
from repro.graph import twitter_like
from repro.live import LiveRankingService
from repro.serving import (
    LocalBackend,
    RankingQuery,
    RankingService,
    ServiceConfig,
    ShardedBackend,
)

GRAPH = twitter_like(n=250, seed=4)
CONFIG = FrogWildConfig(num_frogs=600, iterations=3, seed=1)


class TestEquivalence:
    def test_normalized_config_is_exposed(self):
        cfg = ServiceConfig(
            config=CONFIG, num_machines=4, seed=7, kernel="fused"
        )
        service = RankingService(GRAPH, cfg)
        try:
            assert service.service_config is cfg
            assert service.default_config is CONFIG
        finally:
            service.close()

    def test_defaults_match_init_defaults(self):
        service = RankingService(GRAPH)
        try:
            assert service.service_config == ServiceConfig()
            assert service.default_config == FrogWildConfig(seed=0)
            assert isinstance(service.backend, LocalBackend)
        finally:
            service.close()


class TestConfigApi:
    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            ServiceConfig().num_machines = 3

    def test_backend_selection_flows_through(self):
        local = RankingService.from_config(
            GRAPH, ServiceConfig(config=CONFIG, num_machines=4)
        )
        sharded = RankingService.from_config(
            GRAPH,
            ServiceConfig(config=CONFIG, num_machines=4, num_shards=2),
        )
        try:
            assert isinstance(local.backend, LocalBackend)
            assert isinstance(sharded.backend, ShardedBackend)
        finally:
            local.close()
            sharded.close()

    def test_from_config_rejects_frogwild_config(self):
        with pytest.raises(ConfigError):
            RankingService.from_config(GRAPH, CONFIG)

    def test_constructor_rejects_frogwild_config(self):
        with pytest.raises(ConfigError, match="ServiceConfig"):
            RankingService(GRAPH, CONFIG)
        with pytest.raises(ConfigError, match="ServiceConfig"):
            RankingService(GRAPH, config=CONFIG)

    def test_constructor_takes_no_setting_keywords(self):
        with pytest.raises(TypeError):
            RankingService(GRAPH, num_machines=4)

    def test_autotuned_shard_count_picks_the_layout(self):
        cfg = ServiceConfig(config=CONFIG, num_machines=16, num_shards=None)
        assert cfg.shard_count == 1  # 600 frogs do not fan out
        assert cfg.layout == "local"
        big = dataclasses.replace(
            cfg, config=FrogWildConfig(num_frogs=8_000, seed=1)
        )
        assert big.shard_count == 4
        assert big.layout == "sharded"


#: Settings the parent accepted silently; each is a ConfigError now.
OUT_OF_RANGE = [
    {"num_shards": 0},
    {"num_shards": -3},
    {"cache_capacity": -5},
    {"on_shard_failure": "bogus"},
    {"num_machines": 0},
    {"backend": "quantum"},
]


class TestOutOfRangeSettings:
    @pytest.mark.parametrize("bad", OUT_OF_RANGE, ids=str)
    def test_service_config_rejects(self, bad):
        with pytest.raises(ConfigError):
            ServiceConfig(**{"config": CONFIG, "num_machines": 4, **bad})

    @pytest.mark.parametrize("num_shards", [0, -3])
    def test_static_service_builds_no_backend(self, num_shards):
        with pytest.raises(ConfigError, match="num_shards"):
            RankingService(
                GRAPH,
                ServiceConfig(
                    config=CONFIG, num_machines=4, num_shards=num_shards
                ),
            )

    @pytest.mark.parametrize("bad", OUT_OF_RANGE[:4], ids=str)
    def test_live_service_rejects(self, bad):
        with pytest.raises(ConfigError):
            LiveRankingService(
                DynamicDiGraph.from_digraph(GRAPH), CONFIG,
                num_machines=4, **bad,
            )

    @pytest.mark.parametrize("backend", ["local", "sharded"])
    def test_failure_policy_checked_for_every_layout(self, backend):
        with pytest.raises(ConfigError, match="on_shard_failure"):
            RankingService(
                GRAPH,
                ServiceConfig(
                    config=CONFIG, num_machines=4, num_shards=2,
                    backend=backend, on_shard_failure="bogus",
                ),
            )

    @pytest.mark.parametrize("backend", ["local", "sharded", "process"])
    def test_retry_is_not_a_failure_policy(self, backend):
        """A lost shard is respawned within its batch; what the batch
        does then is "fail" or "partial", and nothing re-runs it."""
        with pytest.raises(ConfigError, match="on_shard_failure"):
            ServiceConfig(
                config=CONFIG, num_machines=4, num_shards=2,
                backend=backend, on_shard_failure="retry",
            )

    @pytest.mark.parametrize("field", ["backend", "partitioner", "tracer"])
    def test_live_service_sets_its_layout_itself(self, field):
        with pytest.raises(ConfigError, match=field):
            LiveRankingService(
                DynamicDiGraph.from_digraph(GRAPH), CONFIG,
                num_machines=4, **{field: "sharded"},
            )


#: Settings the parent accepted, failing only later inside numpy (or,
#: for ``cache_capacity``, never); each is a ConfigError now.
MISTYPED = [
    ({"seed": -1}, "seed"),
    ({"seed": 1.5}, "seed"),
    ({"seed": True}, "seed"),
    ({"num_machines": 2.5}, "num_machines"),
    ({"num_machines": True}, "num_machines"),
    ({"num_shards": 1.5}, "num_shards"),
    ({"num_shards": True}, "num_shards"),
    ({"max_batch_size": 2.5}, "max_batch_size"),
    ({"max_batch_size": 0}, "max_batch_size"),
    ({"max_batch_size": True}, "max_batch_size"),
    ({"cache_capacity": 2.5}, "cache_capacity"),
    ({"cache_capacity": False}, "cache_capacity"),
]


class TestSettingTypes:
    @pytest.mark.parametrize("bad, name", MISTYPED, ids=str)
    def test_service_config_rejects(self, bad, name):
        with pytest.raises(ConfigError, match=name):
            ServiceConfig(**{"config": CONFIG, "num_machines": 4, **bad})

    def test_negative_seed_builds_no_service(self):
        """Was numpy's ``ValueError: expected non-negative integer`` when
        the query config carries its own seed."""
        with pytest.raises(ConfigError, match="seed"):
            RankingService(GRAPH, ServiceConfig(config=CONFIG, seed=-1))

    def test_fractional_batch_size_is_refused_before_a_batch(self):
        """Was built, then its first batch raised numpy's TypeError."""
        with pytest.raises(ConfigError, match="max_batch_size"):
            RankingService(
                GRAPH,
                ServiceConfig(config=CONFIG, num_machines=4, max_batch_size=2.5),
            )

    def test_integers_of_any_width_and_the_defaults_are_accepted(self):
        config = ServiceConfig(
            config=CONFIG, num_machines=np.int64(4), num_shards=np.int32(2),
            max_batch_size=np.int64(8), cache_capacity=np.int64(0),
            seed=np.int64(3),
        )
        assert config.shard_count == 2
        ServiceConfig(seed=None, num_shards=None, cache_capacity=0)

    def test_zero_capacity_still_disables_the_cache(self):
        service = RankingService(
            GRAPH, ServiceConfig(config=CONFIG, num_machines=4, cache_capacity=0)
        )
        try:
            query = RankingQuery(seeds=(3, 40), k=5)
            first, again = service.query_batch([query]), service.query_batch([query])
            assert not first[0].cached and not again[0].cached
            assert list(first[0].vertices) == list(again[0].vertices)
        finally:
            service.close()


class TestLiveMatchesStatic:
    """One factory builds both services' backends, so a live service at
    epoch 0 is the static service over a stable-hash partition."""

    QUERIES = [
        RankingQuery(seeds=(3, 40), k=10),
        RankingQuery(seeds=(7, 120, 200), k=10),
    ]

    @pytest.mark.parametrize("num_shards", [1, 2])
    def test_epoch_zero_answers_bitwise_like_static(self, num_shards):
        static = RankingService(
            GRAPH,
            ServiceConfig(
                config=CONFIG, num_machines=4, num_shards=num_shards,
                seed=3, partitioner="stable-hash",
            ),
        )
        live = LiveRankingService(
            DynamicDiGraph.from_digraph(GRAPH), CONFIG,
            num_machines=4, num_shards=num_shards, seed=3,
        )
        try:
            assert type(live.current_epoch.backend) is type(static.backend)
            for a, b in zip(
                static.query_batch(self.QUERIES),
                live.query_batch(self.QUERIES),
            ):
                assert list(a.vertices) == list(b.vertices)
                assert list(a.scores) == list(b.scores)
                assert a.network_bytes == b.network_bytes
        finally:
            static.close()
            live.close()


class TestKernelResolvedAtConstruction:
    """``"fused"`` is the only kernel: any other name — the removed
    ``"compiled"`` tier included — is refused in the parent, before an
    ingress or a worker exists, not by the first batch (on the process
    pool: by a worker, wrapped in EngineError)."""

    @pytest.mark.parametrize("kernel", ["simd", "lane-loop", "compiled"])
    @pytest.mark.parametrize("backend", ["local", "sharded", "process"])
    def test_service_rejects_unknown_kernel(self, backend, kernel):
        children = set(multiprocessing.active_children())
        with pytest.raises(ConfigError, match="kernel"):
            RankingService.from_config(
                GRAPH,
                ServiceConfig(
                    config=CONFIG, num_machines=4, num_shards=2,
                    backend=backend, kernel=kernel,
                ),
            )
        assert set(multiprocessing.active_children()) == children

    @pytest.mark.parametrize("kernel", ["simd", "lane-loop", "compiled"])
    @pytest.mark.parametrize("execution", ["simulated", "process"])
    def test_live_service_rejects_unknown_kernel(self, execution, kernel):
        children = set(multiprocessing.active_children())
        with pytest.raises(ConfigError, match="kernel"):
            LiveRankingService(
                DynamicDiGraph.from_digraph(GRAPH), CONFIG,
                num_machines=4, num_shards=2, execution=execution,
                kernel=kernel,
            )
        assert set(multiprocessing.active_children()) == children
