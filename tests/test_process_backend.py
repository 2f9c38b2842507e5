"""Multi-process execution backend: equivalence, transport, lifecycle.

:class:`ProcessPoolBackend` inherits its shard layout, replication
tables and per-shard seeding from :class:`ShardedBackend`, so its
results must be *bitwise* identical to the in-process sharded backend —
not merely statistically close.  These tests pin down:

* bitwise agreement with :class:`ShardedBackend` on counters, reports
  and per-shard cost attribution, and golden-tolerance agreement with
  :class:`LocalBackend` / exact PageRank at the thresholds of
  ``test_sharded_service``;
* the one-shard layout: :class:`LocalBackend`, a one-shard
  :class:`ShardedBackend` and a one-shard pool answer bit for bit alike;
* byte-exact reconciliation of the *measured* record transport against
  the simulated :class:`MessageSizeModel` pricing, across batches and
  epoch remaps;
* the shared-memory plumbing in isolation (arena roundtrip, wire codec,
  CSR / replication-table component serialization);
* the epoch-remap handshake and the close lifecycle;
* the parent-side gather loop against a *scripted* peer (a thread on
  the far end of real pipes): frames larger than the pipe buffer cost
  no polling tick, stale frames are not progress, and a peer that died
  after flushing its reply still answers.
"""

import multiprocessing as mp
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import FrogWildConfig, seed_distribution
from repro.cluster import (
    ArenaSpec,
    MessageSizeModel,
    RecordChannel,
    ReplicationTable,
    SharedArena,
    TransportTally,
    WireCodec,
)
from repro.errors import ConfigError, EngineError, WorkerCrashError
from repro.graph import rmat, twitter_like
from repro.pagerank import exact_pagerank
from repro.serving import (
    LocalBackend,
    PoolEpoch,
    ProcessPoolBackend,
    RankingQuery,
    RankingService,
    ServiceConfig,
    ShardedBackend,
)
from repro.serving.process_backend import _Worker, _worker_main

GRAPH = twitter_like(n=1000, seed=21)  # the golden regression graph
CONFIG = FrogWildConfig(num_frogs=12_000, iterations=6, seed=1, ps=0.8)
SEED_SETS = [np.array([7]), np.array([11, 42])]
QUERIES = [
    RankingQuery(seeds=tuple(seeds.tolist()), k=10) for seeds in SEED_SETS
]

SMALL = twitter_like(n=400, seed=3)
FAST = FrogWildConfig(num_frogs=2_000, iterations=4, seed=5)


def _overlap(estimated: np.ndarray, ranking: np.ndarray, k: int) -> float:
    exact_top = set(np.argsort(-ranking)[:k].tolist())
    return len(set(estimated.tolist()) & exact_top) / k


# ----------------------------------------------------------------------
# Shared-memory plumbing (single-process, no workers)
# ----------------------------------------------------------------------
class TestSharedArena:
    def test_roundtrip_and_readonly_attach(self):
        arrays = {
            "a": np.arange(10, dtype=np.int64),
            "b": np.ones((3, 4), dtype=np.float64) * 2.5,
        }
        arena = SharedArena.create(arrays, epoch=1)
        try:
            attached = SharedArena.attach(arena.spec)
            try:
                for key, expected in arrays.items():
                    view = attached.arrays[key]
                    np.testing.assert_array_equal(view, expected)
                    assert not view.flags.writeable
                with pytest.raises((ValueError, RuntimeError)):
                    attached.arrays["a"][0] = 99
            finally:
                attached.close()
        finally:
            arena.destroy()

    def test_spec_is_epoch_tagged(self):
        arena = SharedArena.create({"x": np.zeros(4)}, epoch=7)
        try:
            assert arena.spec.epoch == 7
        finally:
            arena.destroy()


class TestWireCodec:
    def test_encode_matches_size_model_and_decodes(self):
        model = MessageSizeModel()
        codec = WireCodec(model)
        vertices = np.array([3, 1, 4, 1, 5], dtype=np.int64)
        payloads = np.array([9, 2, 6, 5, 3], dtype=np.int64)
        frame = codec.encode("result", vertices, payloads, tag=11)
        assert len(frame) == model.batch_bytes(len(vertices))
        kind, tag, out_vertices, out_payloads = codec.decode(frame)
        assert kind == "result" and tag == 11
        np.testing.assert_array_equal(out_vertices, vertices)
        np.testing.assert_array_equal(out_payloads, payloads)

    def test_tally_reconciles_by_construction(self):
        model = MessageSizeModel()
        tally = TransportTally()
        tally.add(5, model.batch_bytes(5), model.batch_bytes(5))
        # An empty frame carries a real header the model prices at zero.
        tally.add(0, model.message_header_bytes, 0)
        assert tally.reconciles(model)
        assert tally.empty_frames == 1
        merged = TransportTally()
        merged.merge(tally)
        assert merged.reconciles(model)
        assert merged.records == 5 and merged.messages == 2


class TestSharedComponents:
    def test_graph_csr_roundtrip(self):
        arrays = SMALL.csr_components()
        rebuilt = type(SMALL).from_csr_arrays(arrays)
        assert rebuilt.num_vertices == SMALL.num_vertices
        assert rebuilt.num_edges == SMALL.num_edges
        np.testing.assert_array_equal(
            rebuilt.successors(17), SMALL.successors(17)
        )

    def test_replication_table_component_roundtrip(self):
        table = ShardedBackend(
            SMALL, num_shards=1, num_machines=4, seed=0
        ).replications[0]
        components = table.shared_components()
        rebuilt = ReplicationTable.from_shared_components(SMALL, components)
        np.testing.assert_array_equal(rebuilt.masters, table.masters)
        np.testing.assert_array_equal(
            rebuilt.replica_matrix, table.replica_matrix
        )


# ----------------------------------------------------------------------
# End-to-end worker execution
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def outcomes():
    local = LocalBackend(GRAPH, num_machines=8, seed=0)
    sharded = ShardedBackend(GRAPH, num_shards=2, num_machines=8, seed=0)
    process = ProcessPoolBackend(GRAPH, num_shards=2, num_machines=8, seed=0)
    try:
        yield (
            local.run_batch(CONFIG, QUERIES),
            sharded.run_batch(CONFIG, QUERIES),
            process.run_batch(CONFIG, QUERIES),
            process,
        )
    finally:
        process.close()


class TestProcessEquivalence:
    def test_bitwise_identical_to_sharded_backend(self, outcomes):
        """Same tables, same shares, same per-shard seeds ⇒ the worker
        processes must reproduce the in-process sharded merge exactly."""
        _, sharded, process, _ = outcomes
        for sharded_lane, process_lane in zip(sharded.lanes, process.lanes):
            np.testing.assert_array_equal(
                process_lane.estimate.counts, sharded_lane.estimate.counts
            )
            assert (
                process_lane.estimate.num_frogs
                == sharded_lane.estimate.num_frogs
            )
            assert (
                process_lane.report.network_bytes
                == sharded_lane.report.network_bytes
            )
        assert (
            process.shared_network_bytes == sharded.shared_network_bytes
        )
        assert process.simulated_time_s == sharded.simulated_time_s
        for shard_cost, expected in zip(process.shards, sharded.shards):
            assert (
                shard_cost.attributed_network_bytes
                == expected.attributed_network_bytes
            )

    def test_golden_topk_within_established_tolerance(self, outcomes):
        """Process top-k agrees with LocalBackend and exact PPR at the
        ``test_sharded_service`` thresholds."""
        local, _, process, _ = outcomes
        for seeds, local_lane, process_lane in zip(
            SEED_SETS, local.lanes, process.lanes
        ):
            personalization = seed_distribution(GRAPH.num_vertices, seeds)
            truth = exact_pagerank(GRAPH, personalization=personalization)
            top = process_lane.estimate.top_k(10)
            assert _overlap(top, truth, 10) >= 0.6
            assert (
                _overlap(top, local_lane.estimate.vector(), 10) >= 0.6
            )

    def test_every_worker_runs_a_share(self, outcomes):
        _, sharded, process, _ = outcomes
        assert len(sharded.shards) == 2
        assert [shard_cost.shard for shard_cost in process.shards] == [0, 1]
        for shard_cost in process.shards:
            assert shard_cost.attributed_network_bytes > 0

    def test_full_budget_spent(self, outcomes):
        _, _, process, _ = outcomes
        for lane in process.lanes:
            assert lane.estimate.num_frogs == CONFIG.num_frogs


# ----------------------------------------------------------------------
# One shard is the whole cluster
# ----------------------------------------------------------------------
ONE_SHARD_QUERIES = [
    RankingQuery(seeds=(5,), k=10),
    RankingQuery(seeds=(9, 17), weights=(0.3, 0.7), k=10),
    RankingQuery(seeds=(2, 40, 300), k=10),
]


def _assert_bitwise_alike(outcome, expected):
    """Records, rank order, lane reports, bytes, time, no shard rows."""
    assert len(outcome.lanes) == len(expected.lanes)
    for lane, reference in zip(outcome.lanes, expected.lanes):
        for mine, theirs in zip(
            lane.estimate.records, reference.estimate.records
        ):
            assert mine.dtype == theirs.dtype
            np.testing.assert_array_equal(mine, theirs)
        everything = lane.estimate.num_vertices
        np.testing.assert_array_equal(
            lane.estimate.top_k(everything),
            reference.estimate.top_k(everything),
        )
        assert lane.estimate.num_frogs == reference.estimate.num_frogs
        assert lane.report == reference.report
    assert outcome.shared_network_bytes == expected.shared_network_bytes
    assert outcome.simulated_time_s == expected.simulated_time_s
    assert outcome.shards == () and expected.shards == ()


@pytest.fixture(scope="module")
def one_shard_pool():
    with ProcessPoolBackend(
        SMALL, num_shards=1, num_machines=4, seed=0
    ) as pool:
        yield pool


class TestOneShardLayout:
    """A one-shard layout seeds its partition and frogs with the base
    seed, as the whole cluster does, so ``LocalBackend``,
    ``ShardedBackend(num_shards=1)`` and a one-shard pool are the same
    backend, bit for bit."""

    @pytest.mark.parametrize("ps", [1.0, 0.6, 0.1])
    @pytest.mark.parametrize("scatter_mode", ["multinomial", "binomial"])
    def test_local_sharded_and_pool_agree(
        self, one_shard_pool, ps, scatter_mode
    ):
        config = FrogWildConfig(
            num_frogs=1_500,
            iterations=4,
            seed=7,
            ps=ps,
            scatter_mode=scatter_mode,
        )
        local = LocalBackend(SMALL, num_machines=4, seed=0)
        sharded = ShardedBackend(SMALL, num_shards=1, num_machines=4, seed=0)
        expected = local.run_batch(config, ONE_SHARD_QUERIES)
        for backend in (sharded, one_shard_pool):
            _assert_bitwise_alike(
                backend.run_batch(config, ONE_SHARD_QUERIES), expected
            )

    @pytest.mark.parametrize("partitioner", ["oblivious", "grid"])
    def test_partitioners_seed_alike(self, partitioner):
        config = FrogWildConfig(num_frogs=1_500, iterations=4, seed=3, ps=0.5)
        layout = dict(num_machines=4, partitioner=partitioner, seed=11)
        local = LocalBackend(SMALL, **layout)
        sharded = ShardedBackend(SMALL, num_shards=1, **layout)
        assert sharded.replication.structurally_equal(local.replication)
        _assert_bitwise_alike(
            sharded.run_batch(config, ONE_SHARD_QUERIES),
            local.run_batch(config, ONE_SHARD_QUERIES),
        )


class TestTransportReconciliation:
    def test_measured_bytes_reconcile_with_size_model(self, outcomes):
        """Every byte the workers physically framed must price out to
        the simulated model's batch_bytes of the same record traffic."""
        _, _, _, backend = outcomes
        summary = backend.transport_summary()
        assert summary["reconciles"] == 1.0
        assert summary["sent_measured_bytes"] > 0
        assert (
            summary["sent_measured_bytes"]
            == summary["received_measured_bytes"]
        )
        assert summary["sent_records"] == summary["received_records"]

    def test_reconciliation_survives_repeated_batches(self):
        with ProcessPoolBackend(
            SMALL, num_shards=2, num_machines=4, seed=0
        ) as backend:
            reference = ShardedBackend(
                SMALL, num_shards=2, num_machines=4, seed=0
            )
            query = [RankingQuery(seeds=(5,), k=10)]
            expected = reference.run_batch(FAST, query)
            for _ in range(3):
                outcome = backend.run_batch(FAST, query)
                np.testing.assert_array_equal(
                    outcome.lanes[0].estimate.counts,
                    expected.lanes[0].estimate.counts,
                )
                assert backend.transport_summary()["reconciles"] == 1.0


class TestRefreshLifecycle:
    def test_a_remap_serves_the_new_snapshot(self):
        """After attaching a new epoch and retiring the old one, the
        workers serve the *new* graph's tables, bitwise-matching a
        sharded backend built fresh on it."""
        new_graph = twitter_like(n=400, seed=8)
        reference = ShardedBackend(
            new_graph, num_shards=2, num_machines=4, seed=0
        )
        query = [RankingQuery(seeds=(9,), k=10)]
        with ProcessPoolBackend(
            SMALL, num_shards=2, num_machines=4, seed=0
        ) as backend:
            backend.run_batch(FAST, query)
            old = PoolEpoch(backend)
            backend.attach_epoch(new_graph, reference.replications)
            old.retire()
            assert list(backend._arenas) == [backend._epoch]
            outcome = backend.run_batch(FAST, query)
            expected = reference.run_batch(FAST, query)
            np.testing.assert_array_equal(
                outcome.lanes[0].estimate.counts,
                expected.lanes[0].estimate.counts,
            )
            assert backend.transport_summary()["reconciles"] == 1.0

    def test_a_pool_epoch_keeps_its_arenas_after_a_newer_attach(self):
        """Attaching an epoch replaces nothing: batches on the older
        :class:`PoolEpoch` still run on the older graph's tables, and
        the newer one on its own, each bitwise like a sharded backend
        built on that graph."""
        new_graph = twitter_like(n=400, seed=8)
        query = [RankingQuery(seeds=(9,), k=10)]
        with ProcessPoolBackend(
            SMALL, num_shards=2, num_machines=4, seed=0
        ) as backend:
            old = PoolEpoch(backend)
            new_reference = ShardedBackend(
                new_graph, num_shards=2, num_machines=4, seed=0
            )
            new = backend.attach_epoch(
                new_graph, new_reference.replications
            )
            assert new.epoch > old.epoch
            assert sorted(backend._arenas) == [old.epoch, new.epoch]
            for epoch, graph in ((new, new_graph), (old, SMALL)):
                reference = ShardedBackend(
                    graph, num_shards=2, num_machines=4, seed=0
                )
                np.testing.assert_array_equal(
                    epoch.run_batch(FAST, query).lanes[0].estimate.counts,
                    reference.run_batch(FAST, query).lanes[0].estimate.counts,
                )

    def test_a_retired_pool_epoch_refuses_batches(self):
        query = [RankingQuery(seeds=(9,), k=10)]
        with ProcessPoolBackend(
            SMALL, num_shards=1, num_machines=2, seed=0
        ) as backend:
            old = PoolEpoch(backend)
            new = backend.attach_epoch(SMALL, backend.replications)
            old.retire()
            assert list(backend._arenas) == [new.epoch]
            with pytest.raises(EngineError, match="retired"):
                old.run_batch(FAST, query)
            old.retire()  # a no-op once gone
            assert new.run_batch(FAST, query).lanes[0].estimate is not None

    def test_attach_validates_table_count(self):
        with ProcessPoolBackend(
            SMALL, num_shards=2, num_machines=4, seed=0
        ) as backend:
            with pytest.raises(ConfigError, match="replication tables"):
                backend.attach_epoch(SMALL, backend.replications[:1])
            assert list(backend._arenas) == [0]

    def test_time_parameters_are_validated(self):
        """A non-positive timeout used to be accepted and made every
        batch "time out" instantly with a misleading crash error."""
        for timeout_s in (0, -1.0):
            with pytest.raises(ConfigError, match="timeout_s"):
                ProcessPoolBackend(
                    SMALL, num_shards=1, num_machines=2, timeout_s=timeout_s
                )

    def test_close_is_idempotent_and_final(self):
        backend = ProcessPoolBackend(
            SMALL, num_shards=1, num_machines=2, seed=0
        )
        backend.run_batch(FAST, [RankingQuery(seeds=(1,), k=5)])
        backend.close()
        backend.close()  # idempotent
        assert backend._arenas == {}
        with pytest.raises(EngineError, match="closed"):
            backend.run_batch(FAST, [RankingQuery(seeds=(1,), k=5)])


# ----------------------------------------------------------------------
# The gather loop against a scripted peer
# ----------------------------------------------------------------------
class _ScriptedPeer:
    """A worker's end of real pipes, driven by a thread.

    ``worker`` is the parent-side handle the gather waits on; its
    "process" is a sentinel pipe that reads ready (EOF) once the peer
    :meth:`die` s — what a real ``process.sentinel`` does at exit.
    """

    def __init__(self, size_model=None) -> None:
        control_parent, self.control = mp.Pipe(duplex=True)
        data_parent, data = mp.Pipe(duplex=False)
        sentinel, self._alive = mp.Pipe(duplex=False)
        self.channel = RecordChannel(data, size_model)
        self.worker = _Worker(
            0,
            SimpleNamespace(sentinel=sentinel),
            control_parent,
            RecordChannel(data_parent, size_model),
        )
        self._thread = None

    def play(self, script) -> None:
        self._thread = threading.Thread(
            target=script, args=(self,), daemon=True
        )
        self._thread.start()

    def die(self) -> None:
        self.control.close()
        self.channel.close()
        self._alive.close()

    def close(self) -> None:
        self._thread.join(timeout=10.0)
        assert not self._thread.is_alive()
        self.die()
        self.worker.control.close()
        self.worker.channel.close()
        self.worker.process.sentinel.close()


@pytest.fixture(scope="module")
def gather_backend():
    # 8192 vertices: room for lane frames larger than a pipe buffer.
    graph = rmat(scale=13, edge_factor=4, seed=1)
    with ProcessPoolBackend(
        graph, num_shards=1, num_machines=2, seed=0, timeout_s=0.5
    ) as backend:
        yield backend


@pytest.fixture
def peer():
    peer = _ScriptedPeer()
    yield peer
    peer.close()


class TestGather:
    LANES = 10
    STOPS = np.arange(0, 8192, 2)  # 4096 records = 82 kB > 64 kB buffer

    def _send_lanes(self, peer, task):
        for lane in range(self.LANES):
            peer.channel.send_records(
                "result", self.STOPS, self.STOPS + lane, tag=task
            )

    def test_frames_larger_than_the_pipe_buffer_cost_no_tick(
        self, gather_backend, peer
    ):
        """Each frame blocks the sender until the parent drains it and
        the reply only follows the last one.  A parent that sleeps on
        the (silent) control pipe between frames pays its polling
        interval per frame — 10 x 50 ms before the gather loop; waiting
        on both pipes at once pays nothing.  Kernel speed is not
        involved, so the bound is not a flaky wall-clock assertion."""

        def script(peer):
            _, task = peer.control.recv()
            self._send_lanes(peer, task)
            peer.control.send(("result", task, {"ok": True}))

        peer.play(script)
        started = time.monotonic()
        (wait,) = gather_backend._gather(
            [
                gather_backend._request(
                    peer.worker, ("run", 41), lanes=self.LANES
                )
            ]
        )
        elapsed = time.monotonic() - started
        assert wait.reply == ("result", 41, {"ok": True})
        # Frames are kept as the records they arrived as.
        for lane, (stops, stop_counts) in enumerate(wait.frames):
            np.testing.assert_array_equal(stops, self.STOPS)
            np.testing.assert_array_equal(stop_counts, self.STOPS + lane)
        assert elapsed < 0.25, elapsed

    def test_stale_task_flood_is_not_progress(self, gather_backend, peer):
        """Frames and replies of an older task keep arriving for longer
        than ``timeout_s``; none of them may reset the deadline."""
        stop = threading.Event()

        def script(peer):
            peer.control.recv()
            peer.control.send(("result", 6, {"stale": True}))
            while not stop.wait(0.01):
                peer.channel.send_records(
                    "result", self.STOPS[:8], self.STOPS[:8], tag=6
                )

        peer.play(script)
        started = time.monotonic()
        try:
            with pytest.raises(WorkerCrashError) as info:
                gather_backend._gather(
                    [gather_backend._request(peer.worker, ("run", 7), lanes=1)]
                )
        finally:
            stop.set()
        assert info.value.cause == "timeout"
        assert 0.5 <= time.monotonic() - started < 2.0

    def test_peer_that_died_after_flushing_still_answers(
        self, gather_backend, peer
    ):
        def script(peer):
            _, task = peer.control.recv()
            peer.channel.send_records(
                "result", self.STOPS[:8], self.STOPS[:8], tag=task
            )
            peer.control.send(("result", task, {}))
            peer.die()

        wait = gather_backend._request(peer.worker, ("run", 3), lanes=1)
        peer.play(script)
        peer._thread.join(timeout=10.0)  # dead before the gather starts
        assert gather_backend._gather([wait]) == [wait]
        assert len(wait.frames) == 1 and wait.reply[:2] == ("result", 3)

    def test_death_is_an_event_and_the_others_go_on(
        self, gather_backend, peer
    ):
        """A peer that dies with its reply unsent fails at once (no
        waiting out ``timeout_s``, no polling tick, no waiting for the
        other peer): ``recover`` hears of it while the other peer still
        withholds its reply, and that wait then completes in the same
        loop."""
        seen = threading.Event()

        def dies(peer):
            peer.control.recv()
            peer.die()

        def answers_once_seen(peer):
            _, task = peer.control.recv()
            seen.wait(timeout=5.0)
            peer.control.send(("result", task, {}))

        lost = []

        def recover(wait, error):
            lost.append((wait.worker, error.cause, time.monotonic() - started))
            seen.set()

        doomed = _ScriptedPeer()
        try:
            doomed.play(dies)
            peer.play(answers_once_seen)
            started = time.monotonic()
            done = gather_backend._gather(
                [
                    gather_backend._request(doomed.worker, ("run", 8)),
                    gather_backend._request(peer.worker, ("run", 9)),
                ],
                recover=recover,
            )
        finally:
            doomed.close()
        ((worker, cause, after),) = lost
        assert worker is doomed.worker and cause == "died"
        assert after < 0.25
        assert [wait.worker for wait in done] == [peer.worker]
        assert done[0].reply[:2] == ("result", 9)


class TestWorkerProtocol:
    def test_unknown_op_is_an_error_reply_and_the_worker_serves_on(self):
        """The worker answers an op it does not know (the supervisor's
        old ``ping`` probe among them) with an ``error`` reply that
        names it, and keeps serving its control loop."""
        control, control_child = mp.Pipe(duplex=True)
        data, data_child = mp.Pipe(duplex=False)
        worker = threading.Thread(
            target=_worker_main,
            args=(control_child, data_child, 0, 2, None, None, 0),
            daemon=True,
        )
        worker.start()
        try:
            control.send(("ping", 1))
            assert control.poll(5.0)
            assert control.recv() == ("error", None, "unknown op 'ping'", "")
            control.send(("stop",))
            assert control.poll(5.0)
            assert control.recv() == ("stopped",)
            worker.join(timeout=5.0)
            assert not worker.is_alive()
        finally:
            for end in (control, control_child, data, data_child):
                end.close()

    def test_a_missing_segment_is_an_error_reply_not_an_exit(self):
        """An op's own ``OSError`` (here ``FileNotFoundError``: the
        arena was unlinked before the worker mapped it) is answered
        with an ``error`` reply; only a broken pipe ends the worker."""
        control, control_child = mp.Pipe(duplex=True)
        data, data_child = mp.Pipe(duplex=False)
        worker = threading.Thread(
            target=_worker_main,
            args=(control_child, data_child, 0, 2, None, None, 0),
            daemon=True,
        )
        worker.start()
        gone = ArenaSpec(name="repro-arena-gone-0", epoch=3, size=8, entries=())
        try:
            control.send(("attach", 3, gone, gone))
            assert control.poll(5.0)
            kind, token, error, _ = control.recv()
            assert (kind, token) == ("error", 3)
            assert "FileNotFoundError" in error
            control.send(("stop",))
            assert control.poll(5.0)
            assert control.recv() == ("stopped",)
            worker.join(timeout=5.0)
            assert not worker.is_alive()
        finally:
            for end in (control, control_child, data, data_child):
                end.close()


class TestFrameChecks:
    """A worker's result frame goes into the record merge as it
    arrived, so the parent refuses a malformed one with a typed error
    that names the shard — no id wrapping onto vertex n - 1, no repeated
    id keeping only its last count, no bare ``IndexError``."""

    BAD_FRAMES = {
        "negative id": ([-1, 5], [2, 1]),
        "repeated id": ([3, 3], [2, 1]),
        "decreasing ids": ([5, 3], [2, 1]),
        "id beyond n": ([3, 8192], [2, 1]),
        "zero count": ([3, 5], [2, 0]),
        "negative count": ([3, 5], [-2, 1]),
    }

    @pytest.mark.parametrize("bad", sorted(BAD_FRAMES))
    def test_a_malformed_frame_is_refused(self, gather_backend, peer, bad):
        stops, stop_counts = self.BAD_FRAMES[bad]

        def script(peer):
            message = peer.control.recv()
            task, share = message[1], message[4]
            peer.channel.send_records(
                "result", np.array(stops), np.array(stop_counts), tag=task
            )
            peer.control.send(
                ("result", task, {"lanes": [(share, None, None)]})
            )

        peer.play(script)
        real, gather_backend._workers[0] = gather_backend._workers[0], peer.worker
        try:
            with pytest.raises(EngineError, match="shard 0 sent a malformed"):
                gather_backend.run_batch(
                    FAST, [RankingQuery(seeds=(1,), k=5)]
                )
        finally:
            gather_backend._workers[0] = real

    def test_the_pool_answers_after_a_refused_frame(self, gather_backend):
        outcome = gather_backend.run_batch(
            FAST, [RankingQuery(seeds=(1,), k=5)]
        )
        assert outcome.lanes[0].estimate.num_frogs == FAST.num_frogs


class TestServiceWiring:
    def test_backend_string_process_matches_sharded(self):
        answers = {}
        for kind in ("sharded", "process"):
            service = RankingService(
                SMALL,
                ServiceConfig(
                    config=FAST, num_machines=4, num_shards=2, backend=kind
                ),
            )
            try:
                answers[kind] = service.query([7, 12], k=8)
            finally:
                service.close()
        np.testing.assert_array_equal(
            answers["process"].vertices, answers["sharded"].vertices
        )
        np.testing.assert_allclose(
            answers["process"].scores, answers["sharded"].scores
        )

    def test_unknown_backend_string_rejected(self):
        with pytest.raises(ConfigError, match="unknown backend"):
            RankingService(
                SMALL, ServiceConfig(config=FAST, backend="quantum")
            )
