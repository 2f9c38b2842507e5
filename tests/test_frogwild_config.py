"""Unit tests for FrogWildConfig validation."""

import numpy as np
import pytest

from repro.core import BatchQuery, FrogWildConfig, run_frogwild_batch
from repro.errors import ConfigError
from repro.graph import twitter_like


class TestValidation:
    def test_defaults_valid(self):
        config = FrogWildConfig()
        assert config.num_frogs > 0
        assert config.p_teleport == pytest.approx(0.15)
        assert config.scatter_mode == "multinomial"
        assert config.erasure_model == "at-least-one"

    @pytest.mark.parametrize("frogs", [0, -5])
    def test_rejects_bad_frogs(self, frogs):
        with pytest.raises(ConfigError, match="num_frogs"):
            FrogWildConfig(num_frogs=frogs)

    @pytest.mark.parametrize("iters", [0, -1])
    def test_rejects_bad_iterations(self, iters):
        with pytest.raises(ConfigError, match="iterations"):
            FrogWildConfig(iterations=iters)

    @pytest.mark.parametrize("ps", [-0.1, 1.0001])
    def test_rejects_bad_ps(self, ps):
        with pytest.raises(ConfigError, match="ps"):
            FrogWildConfig(ps=ps)

    @pytest.mark.parametrize("pt", [0.0, 1.0, -0.2])
    def test_rejects_bad_teleport(self, pt):
        with pytest.raises(ConfigError, match="p_teleport"):
            FrogWildConfig(p_teleport=pt)

    def test_rejects_unknown_scatter_mode(self):
        with pytest.raises(ConfigError, match="scatter_mode"):
            FrogWildConfig(scatter_mode="quantum")

    def test_rejects_unknown_erasure_model(self):
        with pytest.raises(ConfigError, match="erasure_model"):
            FrogWildConfig(erasure_model="sometimes")

    def test_boundary_ps_values_allowed(self):
        assert FrogWildConfig(ps=0.0).ps == 0.0
        assert FrogWildConfig(ps=1.0).ps == 1.0

    @pytest.mark.parametrize("field", ["num_frogs", "iterations"])
    @pytest.mark.parametrize("value", [100.5, 2.0, True, "8", None])
    def test_counts_must_be_integers(self, field, value):
        """A float, a bool or a string used to pass and then fail inside
        ``rng.integers`` or ``range``."""
        with pytest.raises(ConfigError, match=field):
            FrogWildConfig(**{field: value})

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "0"])
    def test_seed_must_be_none_or_a_non_negative_integer(self, seed):
        """``seed=-1`` used to reach ``default_rng([104, -1])`` and fail
        there with a ValueError."""
        with pytest.raises(ConfigError, match="seed"):
            FrogWildConfig(seed=seed)

    def test_numpy_integers_and_a_missing_seed_are_accepted(self):
        config = FrogWildConfig(
            num_frogs=np.int64(10), iterations=np.int32(2), seed=np.int64(3)
        )
        assert (config.num_frogs, config.iterations, config.seed) == (10, 2, 3)
        assert FrogWildConfig(seed=None).seed is None
        assert FrogWildConfig(seed=0).seed == 0


class TestBatchQueryFields:
    """A query's own frog budget and seed are checked like the config's,
    when the runner reads them."""

    GRAPH = twitter_like(n=200, seed=1)
    CONFIG = FrogWildConfig(num_frogs=100, iterations=2)

    @pytest.mark.parametrize(
        "query, field",
        [
            (BatchQuery(num_frogs=0), "num_frogs"),
            (BatchQuery(num_frogs=10.5), "num_frogs"),
            (BatchQuery(num_frogs=True), "num_frogs"),
            (BatchQuery(seed=-1), "seed"),
            (BatchQuery(seed=2.5), "seed"),
        ],
        ids=["zero-frogs", "float-frogs", "bool-frogs", "negative-seed",
             "float-seed"],
    )
    def test_a_bad_query_field_is_a_config_error(self, query, field):
        with pytest.raises(ConfigError, match=field):
            run_frogwild_batch(
                self.GRAPH, [BatchQuery(), query], self.CONFIG, num_machines=2
            )

    def test_good_query_fields_run(self):
        result = run_frogwild_batch(
            self.GRAPH,
            [BatchQuery(num_frogs=np.int64(50), seed=np.int64(7))],
            self.CONFIG,
            num_machines=2,
        )
        assert result.results[0].estimate.num_frogs == 50


class TestWithUpdates:
    def test_returns_modified_copy(self):
        base = FrogWildConfig(num_frogs=100)
        updated = base.with_updates(ps=0.5, iterations=7)
        assert updated.ps == 0.5
        assert updated.iterations == 7
        assert updated.num_frogs == 100
        assert base.ps == 1.0  # original untouched

    def test_updates_are_validated(self):
        with pytest.raises(ConfigError):
            FrogWildConfig().with_updates(ps=2.0)

    def test_frozen(self):
        config = FrogWildConfig()
        with pytest.raises(Exception):
            config.ps = 0.5
