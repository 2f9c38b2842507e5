"""Every future a service hands out resolves exactly once, correctly.

A deterministic schedule on a :class:`~repro.serving.VirtualClock`
service with a batching deadline, whose batches keep the server busy
for a few steps: hypothesis draws sequences of repeats of an answered
query (cache hits), duplicates of a query still in flight (joins onto
its lane), new queries (misses) and clock advances followed by
``pump()``, with and without a :class:`QueryTracer`.  After a final
``flush()``:

* every future is done, and none was resolved twice: one that was
  still waiting when ``submit`` returned took exactly one ``_resolve``
  or ``_fail``, and one done at once (a hit, born resolved) at most
  one;
* its answer is bitwise a fresh service's answer to the same query;
* ``queries_submitted == queries_served``, and the cache counted one
  lookup per submit;
* each query completed exactly one trace.

A pump on a free server dispatches at once, so a query waits only
while a batch runs; ``SERVICE_TIME_SCALE`` stretches each batch over a
few steps, and one fixed schedule checks that the join path is reached.
"""

from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import FrogWildConfig
from repro.graph import twitter_like
from repro.serving import RankingService, ServiceConfig, VirtualClock
from repro.serving.service import RankingFuture
from repro.traffic import QueryTracer

CONFIG = FrogWildConfig(num_frogs=600, iterations=3, ps=0.8, seed=5)
GRAPH = twitter_like(n=400, seed=11)
DELAY_S = 0.01
#: A batch's simulated makespan (about 2.5 ms here) times this is its
#: virtual service time: several DELAY_S / 4 steps.
SERVICE_TIME_SCALE = 4.0


def _service(**settings) -> RankingService:
    return RankingService(
        GRAPH,
        ServiceConfig(CONFIG, num_machines=4, max_batch_size=3, **settings),
    )


_fresh: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}


def fresh_answer(seeds: tuple[int, ...], k: int):
    """The answer of a service that has never seen ``seeds``."""
    if (seeds, k) not in _fresh:
        answer = _service(cache_capacity=0).query(seeds, k=k)
        _fresh[seeds, k] = (answer.vertices, answer.scores)
    return _fresh[seeds, k]


class CountingTracer(QueryTracer):
    def __init__(self):
        super().__init__()
        self.completions = Counter()

    def complete(self, trace):
        self.completions[trace.query_id] += 1
        super().complete(trace)


STEP = st.tuples(
    st.sampled_from(["hit", "join", "miss", "advance"]),
    st.integers(0, 1_000),
    st.sampled_from([3, 7]),
)


@settings(max_examples=40, deadline=None)
@given(steps=st.lists(STEP, min_size=1, max_size=30), traced=st.booleans())
def test_every_future_resolves_exactly_once(steps, traced):
    replay(steps, traced)


def test_a_duplicate_of_a_queued_miss_joins_its_lane():
    """The first miss runs; the second waits behind it, and its
    duplicate rides its lane instead of executing again."""
    service = replay([("miss", 0, 3), ("miss", 0, 3), ("join", 0, 7)], False)
    assert service.stats.queries_coalesced == 1
    assert service.stats.queries_executed == 2


def replay(steps, traced) -> RankingService:
    """Run one schedule and check every future it handed out."""
    clock = VirtualClock()
    tracer = CountingTracer() if traced else None
    service = _service(
        cache_capacity=64, max_delay_s=DELAY_S, clock=clock, tracer=tracer
    )
    service.service_time_scale = SERVICE_TIME_SCALE
    resolutions = Counter()
    real_resolve, real_fail = RankingFuture._resolve, RankingFuture._fail

    def resolve(future, answer):
        resolutions[id(future)] += 1
        real_resolve(future, answer)

    def fail(future, error):
        resolutions[id(future)] += 1
        real_fail(future, error)

    submitted: list[tuple[tuple[int, ...], int, RankingFuture]] = []
    waited = set()
    hits = 0
    next_seed = 0
    with mock.patch.object(RankingFuture, "_resolve", resolve), \
            mock.patch.object(RankingFuture, "_fail", fail):
        for kind, pick, k in steps:
            if kind == "advance":
                clock.advance(DELAY_S * (1 + pick % 3) / 2)
                service.pump()
                continue
            answered = sorted({s for s, _, f in submitted if f.done()})
            waiting = sorted({s for s, _, f in submitted if not f.done()})
            pool = {"hit": answered, "join": waiting}.get(kind)
            if pool:
                seeds = pool[pick % len(pool)]
            else:
                seeds = (next_seed % GRAPH.num_vertices,)
                next_seed += 1
            future = service.submit(seeds, k=k)
            if not future.done():
                waited.add(id(future))
            hits += seeds in answered
            submitted.append((seeds, k, future))
            clock.advance(DELAY_S / 4)
            service.pump()
        service.flush()

    for seeds, k, future in submitted:
        assert future.done()
        assert resolutions[id(future)] == 1 or (
            id(future) not in waited and resolutions[id(future)] == 0
        )
        answer = future.result(timeout=0)
        vertices, scores = fresh_answer(seeds, k)
        assert answer.vertices.dtype == vertices.dtype
        assert answer.scores.dtype == scores.dtype
        assert answer.vertices.tobytes() == vertices.tobytes()
        assert answer.scores.tobytes() == scores.tobytes()
    stats = service.stats
    assert stats.queries_submitted == stats.queries_served == len(submitted)
    assert stats.queries_failed == 0
    cache = service.cache.stats
    assert cache.hits + cache.misses == len(submitted)
    assert cache.hits == hits
    if traced:
        traces = [future.trace for _, _, future in submitted]
        assert all(trace.status == "served" for trace in traces)
        assert sorted(tracer.completions) == sorted(
            trace.query_id for trace in traces
        )
        assert all(count == 1 for count in tracer.completions.values())
    return service


def test_a_waiting_future_is_not_done_until_resolved():
    service = _service(cache_capacity=8, max_delay_s=DELAY_S,
                       clock=VirtualClock())
    future = service.submit((1,), k=3)
    assert not future.done()
    with pytest.raises(TimeoutError):
        future.result(timeout=0)
    service.flush()
    assert future.done()
    hit = service.submit((1,), k=3)
    assert hit.done() and hit.result(timeout=0).cached
