"""The one way to read the system's counters: ``Histogram``, ``flatten``
and ``RankingService.snapshot()`` on every layout."""

import math
from dataclasses import dataclass, field

import numpy as np
import pytest

from repro.cluster import TransportTally
from repro.core import FrogWildConfig
from repro.errors import ConfigError
from repro.graph import twitter_like
from repro.live import LiveRankingService
from repro.obs import Histogram, flatten
from repro.serving import RankingService, ServiceConfig
from repro.serving.cache import CacheStats
from repro.traffic import AdmissionStats

CONFIG = FrogWildConfig(num_frogs=300, iterations=3, seed=0)
#: The keys of ``ProcessPoolBackend.transport_summary()``; ``bench/``
#: reads ``reconciles``, ``received_measured_bytes`` and
#: ``received_messages``.
TRANSPORT_KEYS = {
    f"{side}_{counter}"
    for side in ("sent", "received")
    for counter in (
        "measured_bytes",
        "model_bytes",
        "messages",
        "records",
        "empty_frames",
    )
} | {"reconciles"}


class TestHistogram:
    def test_exact_until_capacity(self):
        hist = Histogram(capacity=100)
        values = np.arange(50, dtype=float)
        for v in values:
            hist.add(v)
        assert hist.count == 50
        assert hist.mean() == pytest.approx(values.mean())
        assert hist.quantile(0.5) == pytest.approx(np.quantile(values, 0.5))
        assert hist.min == 0.0 and hist.max == 49.0

    def test_bounded_memory_with_exact_moments(self):
        hist = Histogram(capacity=64)
        for v in range(10_000):
            hist.add(float(v))
        assert len(hist.recent) == 64
        assert hist.count == 10_000
        assert hist.mean() == pytest.approx(4999.5)
        assert hist.max == 9999.0
        # Quantiles read the most recent window only.
        assert hist.quantile(0.0) == 9936.0
        with pytest.raises(ConfigError):
            hist.quantile(-0.1)
        with pytest.raises(ConfigError):
            Histogram(capacity=0)


def _histogram(*values):
    hist = Histogram()
    for value in values:
        hist.add(value)
    return hist


@dataclass
class _Stats:
    hits: int = 3
    by_kind: dict = field(default_factory=lambda: {"a": 1, "b": 2})
    _window: list = field(default_factory=lambda: [1, 2, 3])
    sizes: Histogram = field(default_factory=lambda: _histogram(2))


FLATTEN_CASES = {
    "number": ({"arrivals": 100}, {"arrivals": 100.0}),
    "dataclass-fields-prefixed": (
        {"cache": CacheStats(hits=30, misses=10)},
        {
            "cache_hits": 30.0,
            "cache_misses": 10.0,
            "cache_evictions": 0.0,
            "cache_expirations": 0.0,
        },
    ),
    "dict-private-histogram-fields": (
        {"part": _Stats()},
        {
            "part_hits": 3.0,
            "part_by_kind_a": 1.0,
            "part_by_kind_b": 2.0,
            "part_sizes_count": 1.0,
            "part_sizes_mean": 2.0,
            "part_sizes_p50": 2.0,
            "part_sizes_p95": 2.0,
            "part_sizes_p99": 2.0,
            "part_sizes_max": 2.0,
        },
    ),
    "histogram-six-keys": (
        {"latency": _histogram(1.0, 3.0)},
        {
            "latency_count": 2.0,
            "latency_mean": 2.0,
            "latency_p50": 2.0,
            "latency_p95": 2.9,
            "latency_p99": 2.98,
            "latency_max": 3.0,
        },
    ),
    "empty-histogram-zeros": (
        {"latency": Histogram()},
        {
            f"latency_{stat}": 0.0
            for stat in ("count", "mean", "p50", "p95", "p99", "max")
        },
    ),
    "admission-ladder-levels": (
        {
            "admission": AdmissionStats(
                offered=2, degraded=1, degraded_by_level={2: 1}
            )
        },
        {
            "admission_offered": 2.0,
            "admission_admitted": 0.0,
            "admission_degraded": 1.0,
            "admission_shed": 0.0,
            "admission_degraded_by_level_2": 1.0,
        },
    ),
    "nested-dict-of-tallies": (
        {
            "transport": {
                "sent": TransportTally(messages=2),
                "reconciles": True,
            }
        },
        {
            "transport_sent_measured_bytes": 0.0,
            "transport_sent_model_bytes": 0.0,
            "transport_sent_messages": 2.0,
            "transport_sent_records": 0.0,
            "transport_sent_empty_frames": 0.0,
            "transport_reconciles": 1.0,
        },
    ),
}


@pytest.mark.parametrize(
    "parts, expected", FLATTEN_CASES.values(), ids=FLATTEN_CASES.keys()
)
def test_flatten_contract(parts, expected):
    row = flatten(parts)
    assert row == pytest.approx(expected)
    assert set(row) == set(expected)
    assert all(type(v) is float and math.isfinite(v) for v in row.values())


def test_flatten_raises_on_a_key_collision():
    with pytest.raises(ConfigError, match="cache_hits"):
        flatten({"cache": CacheStats(), "cache_hits": 1})


@pytest.fixture(scope="module")
def graph():
    return twitter_like(n=300, seed=5)


def _build(layout, graph):
    if layout.startswith("live"):
        execution = "process" if layout == "live-process" else "simulated"
        return LiveRankingService(
            graph,
            config=CONFIG,
            num_machines=4,
            num_shards=2 if execution == "process" else 1,
            execution=execution,
        )
    backend = None if layout == "local" else layout
    return RankingService(
        graph,
        ServiceConfig(
            config=CONFIG,
            num_machines=4,
            backend=backend,
            num_shards=1 if layout == "local" else 2,
        ),
    )


@pytest.mark.parametrize(
    "layout", ["local", "sharded", "process", "live", "live-process"]
)
def test_snapshot_parts_follow_the_layout(layout, graph):
    service = _build(layout, graph)
    try:
        service.query((1, 2), k=5)
        service.query((1, 2), k=5)
        row = service.snapshot()
        if layout == "process":
            assert set(service.backend.transport_summary()) == TRANSPORT_KEYS
    finally:
        service.close()
    assert all(type(v) is float and math.isfinite(v) for v in row.values())
    assert row["service_queries_submitted"] == 2
    assert row["service_queries_served"] == 2
    assert row["cache_hits"] == 1
    pool = layout.endswith("process")
    live = layout.startswith("live")
    for prefix in ("transport_", "supervisor_"):
        assert any(key.startswith(prefix) for key in row) == pool, prefix
    for prefix in ("epochs_", "refresh_build_s_", "refresh_publish_s_"):
        assert any(key.startswith(prefix) for key in row) == live, prefix
    if pool:
        assert {f"transport_{key}" for key in TRANSPORT_KEYS} <= set(row)
        assert row["transport_reconciles"] == 1.0
