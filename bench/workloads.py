"""The five benchmark workloads.

Each workload generates its inputs from the seed, builds the system
under test through its public constructors, drives it for a fixed time
and checks its answers.  The program only ever receives generated
inputs (a graph, queries, an arrival schedule, deltas); the seed stays
here.  Why each workload exists is recorded in ``BENCHMARK.json`` and
``bench/README.md``.

Every layer is measured from outside: untraced passes time whole ops
with ``time.perf_counter``; the traced pass additionally wraps the
public callables at each layer boundary (see :mod:`tracing`).
"""

from __future__ import annotations

import contextlib
import shutil
import time
import traceback
from dataclasses import dataclass, field, replace

import numpy as np

from harness import (
    OP_TIMEOUT_S,
    RESULTS_DIR,
    answers_digest,
    median,
    percentile,
    quiet_median,
    quiet_rate,
)
from tracing import Tracer, span_totals

from repro.cluster import ReplicationTable, SharedArena, make_partitioner
from repro.core import FrogWildConfig, run_frogwild, seed_distribution
from repro.core.estimator import PageRankEstimate
from repro.dynamic import ChurnGenerator
from repro.engine import build_cluster
from repro.graph.generators import rmat, twitter_like
from repro.live import (
    EpochManager,
    IncrementalIngress,
    IncrementalReplication,
    LiveRankingService,
)
from repro.metrics.accuracy import normalized_mass_captured, optimal_mass
from repro.pagerank.exact import exact_pagerank
from repro.pagerank.graphlab_pr import graphlab_pagerank
from repro.serving import (
    BatchScheduler,
    LocalBackend,
    ProcessPoolBackend,
    RankingQuery,
    RankingService,
    ServiceConfig,
    ShardedBackend,
    TTLCache,
)
from repro.serving import backend as backend_module
from repro.serving import process_backend as process_backend_module
from repro.store import SegmentStore
from repro.traffic import (
    PoissonArrivals,
    QueryEvent,
    TrafficWorkload,
    UserPopulation,
)

MACHINES = 16
#: The graphs are fixtures: fixed size *and* fixed generator seed.  The
#: generators' own randomness (R-MAT's per-level jitter, preferential
#: attachment) moves edge count and skew enough to shift wire bytes by
#: 10-20% from one graph to the next, which would drown a 5-10% bound.
#: The workload seed drives everything the program is asked to do on
#: the graph: queries, frog seeds, arrivals, user draws and deltas.
GRAPH_SEED = 20150831
#: Ops whose answer digests are kept for the cross-repeat comparison.
DIGEST_OPS = 3
#: Warm-up answers per serving workload scored against ``exact_pagerank``.
ACCURACY_SAMPLE = 32
#: ``topk_mass_captured`` below this fails the run: a floor well under
#: every value measured on the seed code (>= 0.96 full size), so it
#: catches a broken estimator, not sampling noise.
MASS_FLOOR = 0.7


@dataclass
class Samples:
    """What one pass (warm-up, untraced or traced) observed."""

    primary_ms: list = field(default_factory=list)
    miss_ms: list = field(default_factory=list)
    hit_ms: list = field(default_factory=list)
    answers: int = 0
    wall_s: float = 0.0
    #: (wall_s, answers) per closed-loop op, in time order.
    ops: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: Deltas of the program's own public counters over the pass; every
    #: workload fills at least served / executed / shared_bytes.
    counters: dict = field(default_factory=dict)

    def count(self, key: str, amount: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def ratio(self, over: str, under: str) -> float:
        below = self.counters.get(under, 0)
        return self.counters.get(over, 0) / below if below else 0.0


class Workload:
    """Common life cycle: generate, setup/teardown, warm-up, measure, check."""

    name = ""
    #: Untimed leading ops.  Like the graph they are fixtures: wire
    #: bytes per query and top-k mass are taken on them, so both repeat
    #: exactly from run to run and do not wander with which
    #: neighbourhoods a seed's queries happen to hit.
    warmup_ops = 0
    #: Name of the span the benchmark opens around a whole op.
    op_span = "bench.op"

    def __init__(self, seed: int, smoke: bool) -> None:
        self.seed = int(seed)
        self.smoke = bool(smoke)
        self.tracer = Tracer()
        self.warm = Samples()
        self.plain = Samples()
        self.traced = Samples()
        self.digests: list[str] = []
        self.gates: list[str] = []
        self.errors: list[str] = []
        self.mass = 0.0
        #: Digest of op 0 on the first system built (set by the runner).
        self.reference = ""
        self._next_op = 0

    # -- helpers --------------------------------------------------------
    def span(self, name: str, op=None):
        if self.tracer.enabled:
            return self.tracer.span(name, op=op)
        return contextlib.nullcontext()

    def gate(self, ok: bool, message: str) -> None:
        """Record a correctness gate; a failed gate fails the run."""
        if not ok:
            self.gates.append(message)

    def note_error(self) -> None:
        if len(self.errors) < 5:
            self.errors.append(traceback.format_exc(limit=6))

    def keep_digest(self, op: int, digest: str) -> None:
        if op < DIGEST_OPS and len(self.digests) == op:
            self.digests.append(digest)

    # -- life cycle (overridden) ----------------------------------------
    def generate(self) -> None:
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        raise NotImplementedError

    def reference_digest(self) -> str:
        """Digest of op 0 on a freshly built system (determinism gate)."""
        raise NotImplementedError

    def run_op(self, op: int):
        """Execute op ``op``; whatever it returns goes to :meth:`record`."""
        raise NotImplementedError

    def record(self, op: int, result, samples: Samples) -> None:
        """Fold a finished op's result into ``samples``."""
        raise NotImplementedError

    def install_trace(self) -> None:
        """Patch the layer boundaries this workload crosses."""

    def check(self) -> None:
        """Untimed correctness gates and ``topk_mass_captured``."""
        raise NotImplementedError

    def per_layer(self) -> dict[str, float]:
        """Per-layer metrics of the traced pass (names of BENCHMARK.json)."""
        raise NotImplementedError

    def begin(self, samples: Samples) -> None:
        """Snapshot the program's counters before a pass."""

    def end(self, samples: Samples) -> None:
        """Fold the program's counter deltas into ``samples``."""

    # -- driving --------------------------------------------------------
    def one_op(self, op: int, samples: Samples) -> None:
        samples.attempted += 1
        start = time.perf_counter()
        try:
            with self.span(self.op_span, op=op):
                result = self.run_op(op)
        except Exception:
            samples.failed += 1
            self.note_error()
            return
        elapsed = time.perf_counter() - start
        if elapsed > OP_TIMEOUT_S:
            samples.failed += 1
            return
        samples.primary_ms.append(1e3 * elapsed)
        samples.miss_ms.append(1e3 * elapsed)
        samples.wall_s += elapsed
        before = samples.answers
        self.record(op, result, samples)
        samples.ops.append((elapsed, samples.answers - before))

    def run_ops(self, samples: Samples, keep_going) -> None:
        self.begin(samples)
        done = 0
        while keep_going(done):
            self.one_op(self._next_op, samples)
            self._next_op += 1
            done += 1
        self.end(samples)

    def warmup(self) -> None:
        self.run_ops(self.warm, lambda done: done < self.warmup_ops)
        self.gate(self.warm.failed == 0, "an op failed during warm-up")
        self.gate(
            bool(self.digests) and self.digests[0] == self.reference,
            "op 0 answered differently on two freshly built systems",
        )

    def measure(self, seconds: float, samples: Samples) -> None:
        """Closed loop, one client: the next op starts when one ends."""
        deadline = time.perf_counter() + seconds
        self.run_ops(
            samples,
            lambda done: done < 3 or time.perf_counter() < deadline,
        )

    # -- results --------------------------------------------------------
    def end_to_end(self, setup_s: float, rss_growth_mb: float) -> dict:
        s = self.plain
        return {
            "setup_s": setup_s,
            # Timings are those of the window's second-quietest slice
            # (harness.second_quietest says why).  The open loop's rate
            # is the offered one: taken over the whole window.
            "latency_p50_ms": quiet_median(s.primary_ms),
            "miss_latency_p50_ms": quiet_median(s.miss_ms),
            "throughput_qps": (
                quiet_rate(s.ops)
                if s.ops
                else s.answers / s.wall_s if s.wall_s else 0.0
            ),
            "executed_share": s.ratio("executed", "served"),
            "topk_mass_captured": self.mass,
            # Counted over the warm-up ops, a fixed set: repeats exactly.
            "network_bytes_per_query": self.warm.ratio(
                "shared_bytes", "executed"
            ),
            "rss_growth_mb": rss_growth_mb,
        }

    def trace_overhead(self) -> float:
        plain, traced = median(self.plain.primary_ms), median(
            self.traced.primary_ms
        )
        return traced / plain - 1.0 if plain else 0.0


class SpanTable:
    """Per-name totals of one traced pass, normalized per op."""

    def __init__(self, tracer: Tracer, ops: int) -> None:
        self.totals = span_totals(tracer.spans)
        self.ops = max(1, ops)

    def total_s(self, name: str) -> float:
        return self.totals.get(name, (0.0, 0.0, 0))[0]

    def busy_ms(self, name: str) -> float:
        """Mean time per op spent in spans called ``name``."""
        return 1e3 * self.total_s(name) / self.ops

    def self_ms(self, *names: str) -> float:
        """Mean time per op in those spans that no child span covers."""
        return 1e3 * sum(
            self.totals.get(name, (0.0, 0.0, 0))[1] for name in names
        ) / self.ops

    def call_us(self, name: str) -> float:
        """Mean duration of one call."""
        total, _, calls = self.totals.get(name, (0.0, 0.0, 0))
        return 1e6 * total / calls if calls else 0.0

    def coverage(self, op_span: str, *own: str) -> float:
        """Share of op wall time spent inside another layer's span.

        ``own`` are further spans that belong to the same layer as the
        op span (the service's dispatch target); what neither covers
        with a child is that layer's self time.
        """
        total = self.total_s(op_span)
        if not total:
            return 0.0
        return 1.0 - self.self_ms(op_span, *own) * self.ops / 1e3 / total


def time_ingress(graph) -> dict[str, float]:
    """Median direct timings of the two ingress calls every setup pays."""
    partition_s, table_s = [], []
    for _ in range(3):
        start = time.perf_counter()
        partition = make_partitioner("random", 0).partition(graph, MACHINES)
        mid = time.perf_counter()
        ReplicationTable(graph, partition, seed=0)
        partition_s.append(mid - start)
        table_s.append(time.perf_counter() - mid)
    return {
        "cluster.partition.partition_s": median(partition_s),
        "cluster.replication.build_s": median(table_s),
    }


def table_bytes(graph, replications) -> float:
    """Computed size of the arrays a batch traversal reads (CSR + tables)."""
    arrays = list(graph.csr_components().values())
    for table in replications:
        arrays.extend(table.shared_components().values())
    return float(sum(array.nbytes for array in arrays))


def ppr_mass(graph, answers) -> float:
    """Mean normalized top-k mass of personalized answers vs exact PPR."""
    scores = []
    for answer in answers:
        query = answer.query
        truth = exact_pagerank(
            graph,
            tolerance=1e-8,
            personalization=seed_distribution(
                graph.num_vertices,
                np.asarray(query.seeds, dtype=np.int64),
                None
                if query.weights is None
                else np.asarray(query.weights, dtype=np.float64),
            ),
        )
        scores.append(
            float(truth[answer.vertices].sum()) / optimal_mass(truth, query.k)
        )
    return float(np.mean(scores))


def digest_of(answers) -> str:
    return answers_digest((a.vertices, a.scores) for a in answers)


# ======================================================================
# global-topk
# ======================================================================
class GlobalTopK(Workload):
    name = "global-topk"
    warmup_ops = 5

    def generate(self) -> None:
        n, frogs = (3_000, 20_000) if self.smoke else (50_000, 400_000)
        self.graph = twitter_like(n=n, seed=GRAPH_SEED)
        self.config = FrogWildConfig(num_frogs=frogs, iterations=4, ps=0.7)
        self.truth = exact_pagerank(self.graph)
        self.masses: list[float] = []

    def setup(self) -> None:
        partition = make_partitioner("random", 0).partition(
            self.graph, MACHINES
        )
        self.replication = ReplicationTable(self.graph, partition, seed=0)

    def teardown(self) -> None:
        self.replication = None

    def fresh_state(self):
        return build_cluster(
            self.graph, MACHINES, seed=0, replication=self.replication
        )

    def run_op(self, op: int):
        with self.span("engine.state.build_cluster"):
            state = self.fresh_state()
        with self.span("core.frogwild.run"):
            return run_frogwild(
                self.graph,
                self.config.with_updates(seed=self.seed + op),
                state=state,
            )

    def _digest(self, result) -> str:
        top = result.estimate.top_k(100)
        return answers_digest([(top, result.estimate.counts[top])])

    def reference_digest(self) -> str:
        return self._digest(self.run_op(0))

    def record(self, op: int, result, samples: Samples) -> None:
        samples.answers += 1
        samples.count("served", 1)
        samples.count("executed", 1)
        samples.count("shared_bytes", result.report.network_bytes)
        self.keep_digest(op, self._digest(result))
        if samples is self.warm:
            self.masses.append(
                normalized_mass_captured(
                    result.estimate.vector(), self.truth, 100
                )
            )

    def check(self) -> None:
        self.mass = float(np.mean(self.masses)) if self.masses else 0.0
        self.gate(self.mass >= MASS_FLOOR, f"top-100 mass {self.mass:.3f}")

    def per_layer(self) -> dict[str, float]:
        table = SpanTable(self.tracer, len(self.traced.primary_ms))
        run_s = table.busy_ms("core.frogwild.run") / 1e3
        state = self.fresh_state()
        baseline = []
        for _ in range(3):
            start = time.perf_counter()
            graphlab_pagerank(self.graph, MACHINES, state=state, seed=0)
            baseline.append(time.perf_counter() - start)
        steps = self.config.num_frogs * self.config.iterations
        return {
            **time_ingress(self.graph),
            "engine.state.build_cluster_ms": table.busy_ms(
                "engine.state.build_cluster"
            ),
            "core.frogwild.run_ms": 1e3 * run_s,
            "core.frogwild.frog_steps_per_s": steps / run_s if run_s else 0.0,
            "pagerank.graphlab_pr.run_s": median(baseline),
            # Base: core.frogwild.run_ms of the same pass.
            "pagerank.graphlab_pr.speedup": (
                median(baseline) / run_s if run_s else 0.0
            ),
            "serving.service.span_coverage": table.coverage(self.op_span),
        }


# ======================================================================
# Serving workloads: shared machinery
# ======================================================================
class ServingTrace:
    """Span wrappers for the serving stack, plus queue-wait bookkeeping."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.queue_wait_ms: list[float] = []
        self._enqueued: dict[object, tuple[int, object, float]] = {}

    def install(self, service: RankingService) -> None:
        patch = self.tracer.patch
        patch(TTLCache, "get", "serving.cache.get")
        patch(TTLCache, "put", "serving.cache.put")
        patch(
            BatchScheduler, "enqueue", "serving.scheduler.enqueue",
            around=self._enqueue,
        )
        # The scheduler's dispatch target is the ``dispatch`` argument
        # its constructor was given; the service passes a bound method,
        # so the instance attribute is the only handle on it.
        patch(
            service.scheduler, "_dispatch", "serving.scheduler.dispatch",
            around=self._dispatch,
        )
        for backend in (LocalBackend, ShardedBackend):
            patch(backend, "run_batch", "serving.backend.run_batch")
            patch(backend, "fresh_state", "engine.state.build_cluster")
        patch(
            ProcessPoolBackend, "run_batch",
            "serving.process_backend.run_batch",
        )
        patch(backend_module, "run_frogwild_batch", "core.batched.run")
        for module in (backend_module, process_backend_module):
            patch(module, "merge_shard_results", "core.batched.merge")
        patch(PageRankEstimate, "top_k_with_scores", "core.estimator.topk")

    def _enqueue(self, tracer, call, args, kwargs):
        with tracer.span("serving.scheduler.enqueue") as span:
            result = call(*args, **kwargs)
        self._enqueued[kwargs["payload"]] = (span.span_id, span.op, span.end)
        return result

    def _dispatch(self, tracer, call, args, kwargs):
        entries = args[1]
        links = [self._enqueued.pop(e.payload, None) for e in entries]
        parent = op = None
        if tracer.current() is None and links[0] is not None:
            # On the scheduler's own thread: the batch belongs to the
            # op that enqueued its oldest query.
            parent, op = links[0][0], links[0][1]
        with tracer.span(
            "serving.scheduler.dispatch", op=op, parent=parent
        ) as span:
            self.queue_wait_ms.extend(
                1e3 * (span.start - link[2]) for link in links if link
            )
            return call(*args, **kwargs)


class ServingWorkload(Workload):
    """A :class:`RankingService` driven with batches of distinct queries."""

    op_span = "serving.service.op"
    batch = 16
    backend = None
    num_shards = 1
    max_delay_s = None
    frogs = 3_000

    def generate(self) -> None:
        self.graph = rmat(
            scale=10 if self.smoke else 15, edge_factor=16, seed=GRAPH_SEED
        )
        self.config = FrogWildConfig(
            num_frogs=max(500, self.frogs // 4) if self.smoke else self.frogs,
            iterations=5,
            ps=0.8,
        )
        self._seen: set = set()
        self._batches: dict[int, list[RankingQuery]] = {}
        #: Warm-up answers scored for accuracy, and the graph they were
        #: computed on (the live workload's graph moves afterwards).
        self.sample_answers: list = []
        self.sample_graph = self.graph
        self.service = None

    def queries(self, op: int) -> list[RankingQuery]:
        """Batch ``op``: never-repeated 3-seed queries.

        The warm-up batches are fixtures; every later batch is a pure
        function of the workload seed.
        """
        if op not in self._batches:
            source = GRAPH_SEED if op < self.warmup_ops else self.seed
            rng = np.random.default_rng([source, 11, op])
            out = []
            while len(out) < self.batch:
                seeds = tuple(
                    sorted(
                        int(v)
                        for v in rng.choice(
                            self.graph.num_vertices, 3, replace=False
                        )
                    )
                )
                if seeds not in self._seen:
                    self._seen.add(seeds)
                    out.append(RankingQuery(seeds=seeds, k=10))
            self._batches[op] = out
        return self._batches[op]

    def setup(self) -> None:
        self.service = RankingService.from_config(
            self.graph,
            ServiceConfig(
                config=self.config,
                num_machines=MACHINES,
                max_batch_size=self.batch,
                cache_capacity=256,
                backend=self.backend,
                num_shards=self.num_shards,
                max_delay_s=self.max_delay_s,
                on_shard_failure="fail",
                kernel="fused",
            ),
        )

    def teardown(self) -> None:
        if self.service is not None:
            self.service.close()
            self.service = None

    def run_op(self, op: int):
        return self.service.query_batch(self.queries(op))

    def reference_digest(self) -> str:
        return digest_of(self.run_op(0))

    def record(self, op: int, answers, samples: Samples) -> None:
        samples.answers += len(answers)
        self.keep_digest(op, digest_of(answers))
        if samples is self.warm:
            self.sample_answers.extend(answers)

    # -- program counters -------------------------------------------------
    def counters(self) -> dict[str, int]:
        """The service's public lifetime counters, flattened."""
        stats = self.service.stats
        cache = self.service.cache.stats
        scheduler = self.service.scheduler.stats
        return {
            "served": stats.queries_served,
            "executed": stats.queries_executed,
            "shared_bytes": stats.shared_network_bytes,
            "attributed_bytes": stats.attributed_network_bytes,
            "batches": stats.batch_size_count,
            "batch_lanes": stats.batch_size_sum,
            "cache_hits": cache.hits,
            "cache_misses": cache.misses,
            "cache_evictions": cache.evictions,
            "fill": scheduler.fill_dispatches,
            "deadline": scheduler.deadline_dispatches,
            "flush": scheduler.flush_dispatches,
        }

    def begin(self, samples: Samples) -> None:
        self._mark = self.counters()

    def end(self, samples: Samples) -> None:
        for key, value in self.counters().items():
            samples.count(key, value - self._mark[key])

    def replications(self) -> list:
        """The replication tables batches currently traverse."""
        backend = self.service.backend
        return getattr(backend, "replications", None) or [backend.replication]

    def install_trace(self) -> None:
        self.serving_trace = ServingTrace(self.tracer)
        self.serving_trace.install(self.service)

    def check(self) -> None:
        self.mass = ppr_mass(
            self.sample_graph, self.sample_answers[-ACCURACY_SAMPLE:]
        )
        self.gate(self.mass >= MASS_FLOOR, f"top-10 mass {self.mass:.3f}")

    def gate_no_hits(self) -> None:
        self.gate(
            self.service.cache.stats.hits == 0,
            "a never-repeated query hit the cache",
        )

    def per_layer(self) -> dict[str, float]:
        """Per-layer numbers every serving workload reports the same way."""
        samples = self.traced
        table = SpanTable(self.tracer, len(samples.primary_ms))
        kernel_s = table.total_s("core.batched.run")
        counted = samples.counters
        dispatch = "serving.scheduler.dispatch"
        return {
            **time_ingress(self.graph),
            "engine.state.build_cluster_ms": table.busy_ms(
                "engine.state.build_cluster"
            ),
            "core.batched.run_ms": table.busy_ms("core.batched.run"),
            "core.batched.frog_steps_per_s": (
                counted["executed"] * self.config.num_frogs
                * self.config.iterations / kernel_s
                if kernel_s
                else 0.0
            ),
            "core.batched.table_bytes": table_bytes(
                self.service.graph, self.replications()
            ),
            "core.batched.batch_size_mean": samples.ratio(
                "batch_lanes", "batches"
            ),
            "core.batched.amortization_ratio": samples.ratio(
                "shared_bytes", "attributed_bytes"
            ),
            "core.estimator.topk_ms": table.call_us("core.estimator.topk")
            / 1e3,
            "serving.service.self_ms": table.self_ms(self.op_span, dispatch),
            "serving.service.span_coverage": table.coverage(
                self.op_span, dispatch
            ),
            "serving.service.latency_p95_ms": percentile(
                samples.primary_ms, 95
            ),
            "serving.service.latency_p99_ms": percentile(
                samples.primary_ms, 99
            ),
            "serving.service.latency_samples": float(
                len(samples.primary_ms)
            ),
            "serving.service.hit_latency_p50_ms": median(samples.hit_ms),
            "serving.service.cache_served_share": (
                1.0 - samples.ratio("executed", "served")
                if counted["served"]
                else 0.0
            ),
            "serving.service.failed_share": (
                samples.failed / samples.attempted
                if samples.attempted
                else 0.0
            ),
            "serving.cache.get_us": table.call_us("serving.cache.get"),
            "serving.cache.hit_rate": (
                counted["cache_hits"]
                / max(1, counted["cache_hits"] + counted["cache_misses"])
            ),
            "serving.cache.evictions": float(counted["cache_evictions"]),
            "serving.scheduler.queue_wait_p50_ms": median(
                self.serving_trace.queue_wait_ms
            ),
            "serving.scheduler.dispatch_fill": float(counted["fill"]),
            "serving.scheduler.dispatch_deadline": float(
                counted["deadline"]
            ),
            "serving.scheduler.dispatch_flush": float(counted["flush"]),
            "serving.backend.run_batch_ms": table.busy_ms(
                "serving.backend.run_batch"
            ),
            "serving.backend.self_ms": table.self_ms(
                "serving.backend.run_batch"
            ),
        }


class ServeDistinct(ServingWorkload):
    name = "serve-distinct"
    warmup_ops = 5

    def check(self) -> None:
        super().check()
        self.gate_no_hits()


# ======================================================================
# serve-process
# ======================================================================
class ServeProcess(ServingWorkload):
    name = "serve-process"
    batch = 8
    warmup_ops = ACCURACY_SAMPLE // batch
    backend = "process"
    num_shards = 2
    frogs = 20_000

    def teardown(self) -> None:
        if self.service is None:
            return
        backend = self.service.backend
        reconciles = backend.transport_summary()["reconciles"]
        respawns = backend.supervisor.stats.respawns
        super().teardown()
        self.gate(
            reconciles == 1.0,
            "measured transport bytes do not reconcile with the size model",
        )
        self.gate(respawns == 0, f"{respawns} worker respawns")
        leaked = SharedArena.list_segments(backend.arena_prefix)
        self.gate(not leaked, f"segments left in /dev/shm: {leaked}")

    def check(self) -> None:
        super().check()
        self.gate_no_hits()
        # The repo's bitwise anchor: the pool must answer exactly as the
        # in-process sharded layout does on the same batches.
        start = time.perf_counter()
        sharded = ShardedBackend(
            self.graph,
            num_shards=self.num_shards,
            num_machines=MACHINES,
            seed=0,
            kernel="fused",
        )
        self.sharded_build_s = time.perf_counter() - start
        self.sharded_ms = []
        for op, digest in enumerate(self.digests):
            queries = self.queries(op)
            start = time.perf_counter()
            outcome = sharded.run_batch(self.config, queries)
            self.sharded_ms.append(1e3 * (time.perf_counter() - start))
            replay = answers_digest(
                lane.estimate.top_k_with_scores(query.k)
                for lane, query in zip(outcome.lanes, queries)
            )
            self.gate(
                replay == digest,
                f"batch {op} differs from the in-process ShardedBackend",
            )

    def per_layer(self) -> dict[str, float]:
        table = SpanTable(self.tracer, len(self.traced.primary_ms))
        pool_ms = table.busy_ms("serving.process_backend.run_batch")
        sharded_ms = median(self.sharded_ms)
        start = time.perf_counter()
        ProcessPoolBackend(
            self.graph,
            num_shards=self.num_shards,
            num_machines=MACHINES,
            seed=0,
            kernel="fused",
        ).close()
        pool_cycle_s = time.perf_counter() - start
        backend = self.service.backend
        batches = max(1, self.service.stats.batches_run)
        transport = backend.transport_summary()
        return {
            **super().per_layer(),
            "serving.backend.sharded_run_batch_ms": sharded_ms,
            "serving.process_backend.run_batch_ms": pool_ms,
            # Base: serving.backend.sharded_run_batch_ms.
            "serving.process_backend.overhead_ratio": (
                pool_ms / sharded_ms if sharded_ms else 0.0
            ),
            # One pool built and closed, beyond building the in-process
            # layout it extends.
            "serving.process_backend.spawn_s": (
                pool_cycle_s - self.sharded_build_s
            ),
            "cluster.transport.bytes_per_batch": (
                transport["received_measured_bytes"] / batches
            ),
            "cluster.transport.frames_per_batch": (
                transport["received_messages"] / batches
            ),
            "cluster.transport.reconciles": transport["reconciles"],
            "serving.supervisor.respawns": float(
                backend.supervisor.stats.respawns
            ),
        }


# ======================================================================
# serve-zipf-open
# ======================================================================
#: How long before an arrival is due the generator stops sleeping and spins.
SPIN_S = 0.0003


@dataclass
class Phase:
    """What the generator saw beside the latencies it put in ``Samples``."""

    late_ms: list = field(default_factory=list)
    backlog: list = field(default_factory=list)
    coalesced: int = 0


class ServeZipfOpen(ServingWorkload):
    name = "serve-zipf-open"
    op_span = "serving.service.submit"
    warmup_ops = ACCURACY_SAMPLE // ServingWorkload.batch
    max_delay_s = 0.005
    rates = (60.0, 120.0)
    prefill = 400

    def generate(self) -> None:
        super().generate()
        self.population = UserPopulation(
            num_users=200 if self.smoke else 800,
            num_vertices=self.graph.num_vertices,
            seeds_per_user=3,
            vertex_exponent=1.1,
            # The user base is a fixture; who arrives when is seeded.
            seed=GRAPH_SEED,
        )
        self._stream = 0
        self.phases: dict[str, Phase] = {}
        # Closed-loop prefill so the timed window starts on a warm
        # cache: the first ``prefill`` queries of an independent stream.
        self.prefill_queries = [
            event.query for event in self.schedule(60.0, self.prefill / 60.0)
        ]

    def schedule(self, rate_qps: float, seconds: float) -> list[QueryEvent]:
        """Poisson arrivals x Zipf users, conditioned on their count.

        A fresh stream per call.  The first ``rate * seconds`` arrivals
        are kept and their times scaled to end at ``seconds`` exactly,
        so every seed offers the same load and only the pattern varies.
        """
        self._stream += 1
        count = max(1, round(rate_qps * seconds))
        stream = self.seed * 1000 + self._stream
        events = TrafficWorkload(
            self.population,
            PoissonArrivals(rate_qps, seed=stream),
            user_exponent=1.0,
            seed=stream,
        ).events(2.0 * seconds + 10.0 / rate_qps)[:count]
        scale = seconds / events[-1].time_s
        return [replace(e, time_s=e.time_s * scale) for e in events]

    def warmup(self) -> None:
        # Fixture ops first, scheduler thread not yet running: a deadline
        # dispatch could otherwise split a batch after a stall and change
        # the bytes it shares.
        super().warmup()
        self.service.start()
        queries = self.prefill_queries
        for lo in range(0, len(queries), self.batch):
            self.service.query_batch(queries[lo : lo + self.batch])

    def drive(self, arrivals: list[QueryEvent], samples: Samples) -> Phase:
        """Send each query when due; time it from when it was due.

        One generator thread (this one) both sends and polls
        ``future.done()``; how late it ran is recorded per send.
        """
        service = self.service
        phase = Phase()
        pending: list[tuple[float, object, list, RankingQuery]] = []
        inflight: dict[RankingQuery, int] = {}
        origin = time.perf_counter() + 0.01
        cursor = 0

        def finish(future, due: float, bucket: list | None) -> None:
            try:
                future.result(timeout=0)
            except Exception:
                samples.failed += 1
                self.note_error()
                return
            latency = 1e3 * (time.perf_counter() - due)
            samples.primary_ms.append(latency)
            if bucket is not None:
                bucket.append(latency)

        while cursor < len(arrivals) or pending:
            now = time.perf_counter()
            while cursor < len(arrivals):
                due = origin + arrivals[cursor].time_s
                if due > now:
                    break
                query = arrivals[cursor].query
                phase.late_ms.append(1e3 * (now - due))
                with self.span(self.op_span, op=cursor):
                    future = service.submit_query(query)
                phase.backlog.append(service.scheduler.pending_count())
                if future.done():
                    finish(future, due, samples.hit_ms)
                else:
                    # A query already in flight rides that lane: it is
                    # neither a hit nor a miss of its own.
                    joined = inflight.get(query, 0) > 0
                    inflight[query] = inflight.get(query, 0) + 1
                    phase.coalesced += joined
                    pending.append(
                        (due, future, None if joined else samples.miss_ms,
                         query)
                    )
                cursor += 1
                now = time.perf_counter()
            still = []
            for entry in pending:
                due, future, bucket, query = entry
                if future.done():
                    inflight[query] -= 1
                    finish(future, due, bucket)
                elif now - due > OP_TIMEOUT_S:
                    inflight[query] -= 1
                    samples.failed += 1
                else:
                    still.append(entry)
            pending = still
            poll = now + 0.0005 if pending else float("inf")
            due = (
                origin + arrivals[cursor].time_s
                if cursor < len(arrivals)
                else float("inf")
            )
            if cursor < len(arrivals) and due <= poll:
                # Sleep short of the arrival and spin the rest: a timer
                # wake-up on this host is 0.1-0.2 ms late, a fifth of a
                # cache hit's latency, and as noisy as the host.
                time.sleep(max(0.0, due - SPIN_S - time.perf_counter()))
                while time.perf_counter() < due:
                    pass
            elif pending:
                time.sleep(max(0.0, poll - time.perf_counter()))
        samples.attempted += len(arrivals)
        samples.answers = len(samples.primary_ms)
        samples.wall_s += time.perf_counter() - origin
        return phase

    def run_phase(self, tag: str, rate: float, seconds: float,
                  samples: Samples) -> None:
        arrivals = self.schedule(rate, seconds)
        self.begin(samples)
        self.phases[tag] = self.drive(arrivals, samples)
        self.end(samples)

    def measure(self, seconds: float, samples: Samples) -> None:
        if not self.tracer.enabled:
            self.run_phase("plain", self.rates[0], seconds, samples)
            return
        # Traced pass: r60 carries the per-layer numbers; r120 runs
        # untraced into a scratch record so it never mixes into them.
        self.run_phase("r60", self.rates[0], 0.6 * seconds, samples)
        self.r120 = Samples()
        self.tracer.enabled = False
        self.run_phase("r120", self.rates[1], 0.4 * seconds, self.r120)
        self.tracer.enabled = True

    def per_layer(self) -> dict[str, float]:
        r60, r120 = self.phases["r60"], self.phases["r120"]

        def sustained(phase: Phase, samples: Samples) -> bool:
            half = len(phase.backlog) // 2
            growing = half > 0 and (
                np.mean(phase.backlog[half:])
                > 2.0 * np.mean(phase.backlog[:half]) + 1.0
            )
            return (
                samples.failed == 0
                and not growing
                and percentile(samples.primary_ms, 95) <= 100.0
            )

        rate = 0.0
        if sustained(r60, self.traced):
            rate = self.rates[0]
            if sustained(r120, self.r120):
                rate = self.rates[1]
        return {
            **super().per_layer(),
            "serving.batching.coalesced_share": (
                r60.coalesced / max(1, len(r60.late_ms))
            ),
            "serving.scheduler.backlog_max.r60": float(
                max(r60.backlog, default=0)
            ),
            "serving.scheduler.backlog_max.r120": float(
                max(r120.backlog, default=0)
            ),
            "traffic.generator.late_p99_ms": percentile(
                [v for phase in self.phases.values() for v in phase.late_ms],
                99,
            ),
            "traffic.sustained_rate_qps": rate,
            "traffic.latency_p50_ms.r120": median(self.r120.primary_ms),
        }


# ======================================================================
# live-churn
# ======================================================================
REFRESH_SPANS = {
    "store.segments.apply_ms": "store.segments.apply",
    "live.ingress.sync_ms": "live.ingress.sync",
    "store.segments.snapshot_ms": "store.segments.snapshot",
    "live.ingress.replication_refresh_ms": "live.ingress.replication_refresh",
    "store.segments.compact_ms": "store.segments.compact",
    "live.epoch.publish_us": "live.epoch.publish",
}


class LiveChurn(ServingWorkload):
    name = "live-churn"
    warmup_ops = 3

    def generate(self) -> None:
        super().generate()
        self.hot = self.queries(0)
        self.updates: list = []
        self.churn_ms: list[float] = []
        self._setups = 0
        self.directory = None

    def setup(self) -> None:
        self._setups += 1
        self.directory = RESULTS_DIR / (
            f"store-{self.seed}-{time.time_ns()}-{self._setups}"
        )
        self.store = SegmentStore.create(self.directory, source=self.graph)
        self.service = LiveRankingService(
            store=self.store,
            compact_threshold=256 if self.smoke else 2048,
            num_machines=MACHINES,
            config=self.config,
            kernel="fused",
        )
        # One delta stream per built system, so op i sees the same
        # delta on every system built from this seed.  The warm-up ticks
        # draw from a fixture stream: the exact counts taken on them
        # (wire bytes, captured mass) then repeat across seeds.
        self.warm_churn, self.churn = (
            ChurnGenerator(add_rate=0.001, remove_rate=0.001, seed=seed)
            for seed in (GRAPH_SEED, self.seed)
        )

    def teardown(self) -> None:
        if self.service is None:
            return
        super().teardown()
        orphans = set(self.store.list_segment_files()) - set(
            self.store.segment_files()
        )
        self.gate(not orphans, f"orphaned segment files: {sorted(orphans)}")
        shutil.rmtree(self.directory, ignore_errors=True)

    def tick(self, op: int):
        """Churn (untimed), refresh, a miss batch, a hit batch."""
        start = time.perf_counter()
        churn = self.warm_churn if op < self.warmup_ops else self.churn
        delta = churn.step(self.service.source)
        self.churn_ms.append(1e3 * (time.perf_counter() - start))
        t0 = time.perf_counter()
        with self.span("live.service.refresh", op=f"{op}:refresh"):
            self.updates.append(self.service.refresh(delta))
        t1 = time.perf_counter()
        with self.span(self.op_span, op=f"{op}:miss"):
            miss = self.service.query_batch(self.hot)
        t2 = time.perf_counter()
        with self.span("serving.service.hit_op", op=f"{op}:hit"):
            hit = self.service.query_batch(self.hot)
        t3 = time.perf_counter()
        self.gate(
            not any(a.cached for a in miss) and all(a.cached for a in hit),
            f"tick {op}: expected 16 misses then 16 hits after a refresh",
        )
        return (t0, t1, t2, t3), miss

    def reference_digest(self) -> str:
        return digest_of(self.tick(0)[1])

    def one_op(self, op: int, samples: Samples) -> None:
        samples.attempted += 3
        try:
            (t0, t1, t2, t3), miss = self.tick(op)
        except Exception:
            samples.failed += 3
            self.note_error()
            return
        samples.primary_ms.append(1e3 * (t1 - t0))
        samples.miss_ms.append(1e3 * (t2 - t1))
        samples.hit_ms.append(1e3 * (t3 - t2))
        samples.wall_s += t3 - t0
        samples.answers += 2 * len(miss)
        samples.ops.append((t3 - t0, 2 * len(miss)))
        self.keep_digest(op, digest_of(miss))
        if samples is self.warm:
            self.sample_answers = miss
            self.sample_graph = self.service.graph

    def replications(self) -> list:
        return [self.service.current_epoch.backend.replication]

    def install_trace(self) -> None:
        super().install_trace()
        patch = self.tracer.patch
        patch(SegmentStore, "apply", "store.segments.apply")
        patch(SegmentStore, "snapshot", "store.segments.snapshot")
        patch(SegmentStore, "maybe_compact", "store.segments.compact")
        patch(IncrementalIngress, "sync", "live.ingress.sync")
        # LiveRankingService drives IncrementalReplication.refresh as its
        # two public halves; both count as the table refresh.
        for half in ("plan_refresh", "apply_plan"):
            patch(
                IncrementalReplication, half,
                "live.ingress.replication_refresh",
            )
        patch(EpochManager, "publish", "live.epoch.publish")

    def per_layer(self) -> dict[str, float]:
        ticks = len(self.traced.primary_ms)
        table = SpanTable(self.tracer, ticks)
        spans = {
            metric: table.busy_ms(name) for metric, name in REFRESH_SPANS.items()
        }
        refresh_ms = float(np.mean(self.traced.primary_ms))
        covered = sum(spans.values()) / refresh_ms if refresh_ms else 0.0
        spans["live.epoch.publish_us"] *= 1e3
        updates = self.updates[-ticks:]
        return {
            **super().per_layer(),
            **spans,
            "live.service.refresh_p50_ms": median(self.traced.primary_ms),
            "live.service.refresh_span_coverage": covered,
            "live.ingress.table_rebuild_share": float(
                np.mean([u.table_rebuilds > 0 for u in updates])
            ),
            "live.ingress.vertices_patched_mean": float(
                np.mean([u.vertices_patched for u in updates])
            ),
            "live.ingress.reuse_ratio": float(
                np.mean([u.reuse_ratio for u in updates])
            ),
            "store.segments.compactions": float(self.service.compactions),
            "store.segments.disk_bytes_per_edge": (
                self.store.nbytes_on_disk() / self.store.num_edges
            ),
            "dynamic.churn.step_ms": median(self.churn_ms),
        }


WORKLOADS = {
    cls.name: cls
    for cls in (GlobalTopK, ServeDistinct, ServeZipfOpen, ServeProcess, LiveChurn)
}
