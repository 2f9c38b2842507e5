"""Unit tests for edge-erasure models (Appendix A) and how the runner
applies their repair rule."""

import numpy as np
import pytest

from repro.core import (
    AtLeastOneOutEdge,
    BatchQuery,
    FrogWildConfig,
    IndependentErasures,
    make_erasure_model,
    run_frogwild_batch,
)
from repro.engine import build_cluster
from repro.errors import ConfigError
from repro.graph import twitter_like

GRAPH = twitter_like(n=1500, seed=42)


def _run(erasure_model, ps):
    config = FrogWildConfig(
        num_frogs=3000, iterations=4, seed=7, ps=ps,
        erasure_model=erasure_model,
    )
    return run_frogwild_batch(
        GRAPH, [BatchQuery()], config,
        state=build_cluster(GRAPH, 4, seed=0),
    )


class TestFactory:
    def test_known_models(self):
        assert isinstance(make_erasure_model("independent"), IndependentErasures)
        assert isinstance(make_erasure_model("at-least-one"), AtLeastOneOutEdge)

    def test_unknown_model(self):
        with pytest.raises(ConfigError, match="unknown"):
            make_erasure_model("never")

    def test_repair_flags(self):
        assert AtLeastOneOutEdge().repairs_empty
        assert not IndependentErasures().repairs_empty


class TestRunnerRepair:
    """Example 9 strands frogs, Example 10 re-enables one group: the
    runner's repair records show which rule it applied."""

    @pytest.mark.parametrize("ps", [0.0, 0.5])
    def test_independent_erasures_never_repair(self, ps):
        result = _run("independent", ps)
        assert result.report.extra["repair_records"] == 0
        assert result.results[0].estimate.total_stopped == 3000

    def test_at_least_one_repairs_only_while_mirrors_can_be_stale(self):
        assert _run("at-least-one", 0.0).report.extra["repair_records"] > 0
        assert _run("at-least-one", 1.0).report.extra["repair_records"] == 0

    def test_full_sync_makes_the_models_agree(self):
        """At ps=1 no edge is erased, so the repair rule never matters:
        the two models run bitwise alike."""
        strand, repair = _run("independent", 1.0), _run("at-least-one", 1.0)
        assert np.array_equal(
            strand.results[0].estimate.counts,
            repair.results[0].estimate.counts,
        )
        assert strand.report.network_bytes == repair.report.network_bytes
