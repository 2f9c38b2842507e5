"""Clock-free work budgets of the superstep's deterministic passes.

The benchmark times the passes; this file counts what they do, so a
pass that falls back to a slower primitive fails here whatever the
host's clock reads:

* frog records come from the (lane, dest) x host bitmap whenever it is
  within ``count_keys``' cells per hop: a dense-range single-lane run
  sorts no hop key, while a served batch's sparse keys still sort once
  per superstep;
* every nonzero scan the superstep and the serving path make reads a
  bool mask: each array ``np.flatnonzero`` receives from a
  ``repro.core`` or ``repro.serving`` frame has dtype bool (numpy scans
  int32/int64/float64 several times slower than bool).
"""

import sys

import numpy as np
import pytest

from repro.core import FrogWildConfig, run_frogwild
from repro.core.kernels import fused as fk
from repro.graph import rmat, twitter_like
from repro.serving import RankingQuery, RankingService, ServiceConfig

GATED = ("repro.core", "repro.serving")


@pytest.fixture
def passes(monkeypatch):
    """Count ``frog_records`` calls and the hop-key sorts they make, and
    record the dtype of every array a gated frame scans for nonzeros."""
    seen = {"records": 0, "sorts": 0, "scans": []}
    real_records = fk.FusedPasses.frog_records
    real_sort = fk.sorted_unique
    real_scan = np.flatnonzero

    def records(self, frog_lane, host, dest):
        seen["records"] += 1
        return real_records(self, frog_lane, host, dest)

    def sort(keys):
        seen["sorts"] += 1
        return real_sort(keys)

    def scan(a):
        caller = sys._getframe(1).f_globals.get("__name__", "")
        if caller.startswith(GATED):
            seen["scans"].append((caller, np.asarray(a).dtype))
        return real_scan(a)

    monkeypatch.setattr(fk.FusedPasses, "frog_records", records)
    monkeypatch.setattr(fk, "sorted_unique", sort)
    monkeypatch.setattr(np, "flatnonzero", scan)
    return seen


def _assert_bool_scans(scans):
    assert scans, "no gated nonzero scan ran"
    assert all(dtype == np.bool_ for _, dtype in scans), sorted(
        {(caller, str(dtype)) for caller, dtype in scans if dtype != np.bool_}
    )


class TestPassBudgets:
    def test_a_dense_range_run_sorts_no_hop_key(self, passes):
        """20 000 frogs on 2 000 vertices at 16 machines: 32 000 bitmap
        cells against ~17 000 hops a superstep, well inside 4 per hop."""
        config = FrogWildConfig(num_frogs=20_000, iterations=4, ps=0.7)
        result = run_frogwild(
            twitter_like(n=2_000, seed=3), config, num_machines=16
        )
        assert result.estimate.total_stopped == config.num_frogs
        assert passes["records"] == config.iterations
        assert passes["sorts"] == 0
        _assert_bool_scans(passes["scans"])

    def test_a_served_batch_still_sorts_once_per_superstep(self, passes):
        """16 lanes x 1 024 vertices x 16 machines is 262 144 bitmap
        cells against at most 32 000 hops: the records sort."""
        graph = rmat(scale=10, edge_factor=8, seed=0)
        config = FrogWildConfig(num_frogs=2_000, iterations=4, ps=0.8)
        service = RankingService.from_config(
            graph,
            ServiceConfig(config, num_machines=16, max_batch_size=16),
        )
        rng = np.random.default_rng(2)
        try:
            answers = service.query_batch(
                [
                    RankingQuery(
                        seeds=tuple(
                            int(v) for v in rng.integers(0, graph.num_vertices, 3)
                        ),
                        k=10,
                    )
                    for _ in range(16)
                ]
            )
        finally:
            service.stop()
        assert all(answer.vertices.size == 10 for answer in answers)
        assert passes["records"] == config.iterations
        assert passes["sorts"] == passes["records"]
        _assert_bool_scans(passes["scans"])
