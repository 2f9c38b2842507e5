"""Unit tests for the randomized mirror-synchronization patch."""

import numpy as np
import pytest

from repro.engine import MirrorSynchronizer, build_cluster, sync_pair_records
from repro.errors import EngineError


@pytest.fixture
def state(small_twitter):
    return build_cluster(small_twitter, num_machines=4, seed=0)


def _vertices_with_mirrors(state, count=200):
    repl = state.replication
    has_mirror = repl.replica_counts > 1
    return np.flatnonzero(has_mirror)[:count]


def _bill_sync(state, sync, vertices):
    """Draw the coins of ``vertices`` and bill their sync records the
    way the superstep does: one record per synced mirror, counted per
    (master, mirror) pair and sent on ``state``."""
    fresh, synced = sync.draw_fresh(vertices)
    state.send_pair_matrix(
        sync_pair_records(
            state.replication.masters[vertices], synced, state.num_machines
        ),
        kind="sync",
    )
    return fresh


class TestCoins:
    def test_ps1_syncs_every_mirror(self, state):
        sync = MirrorSynchronizer(state, 1.0, np.random.default_rng(0))
        vertices = _vertices_with_mirrors(state)
        fresh, _ = sync.draw_fresh(vertices)
        repl = state.replication
        for row, v in enumerate(vertices):
            assert set(np.flatnonzero(fresh[row])) == set(repl.replicas_of(v))

    def test_ps0_syncs_only_master(self, state):
        sync = MirrorSynchronizer(state, 0.0, np.random.default_rng(0))
        vertices = _vertices_with_mirrors(state)
        fresh, _ = sync.draw_fresh(vertices)
        repl = state.replication
        for row, v in enumerate(vertices):
            assert list(np.flatnonzero(fresh[row])) == [repl.master_of(v)]

    def test_fraction_close_to_ps(self, state):
        ps = 0.4
        sync = MirrorSynchronizer(state, ps, np.random.default_rng(0))
        repl = state.replication
        vertices = _vertices_with_mirrors(state, count=10_000)
        fresh, _ = sync.draw_fresh(vertices)
        masters = repl.masters[vertices]
        fresh_mirrors = fresh.sum() - vertices.size  # subtract masters
        total_mirrors = (repl.replica_counts[vertices] - 1).sum()
        observed = fresh_mirrors / total_mirrors
        assert observed == pytest.approx(ps, abs=0.03)
        # Master column is always fresh.
        assert np.all(fresh[np.arange(vertices.size), masters])

    def test_empty_vertex_list(self, state):
        sync = MirrorSynchronizer(state, 0.5, np.random.default_rng(0))
        fresh, synced = sync.draw_fresh(np.array([], dtype=np.int64))
        assert fresh.shape == synced.shape == (0, state.num_machines)


class TestAccounting:
    def test_ps1_record_count_matches_mirrors(self, state):
        sync = MirrorSynchronizer(state, 1.0, np.random.default_rng(0))
        vertices = _vertices_with_mirrors(state, count=500)
        _bill_sync(state, sync, vertices)
        repl = state.replication
        expected_records = int((repl.replica_counts[vertices] - 1).sum())
        model = state.size_model
        # Every sync record costs record_bytes; headers per machine pair.
        sync_bytes = state.bytes_by_kind["sync"]
        header_bytes = (
            state.messages_by_kind["sync"] * model.message_header_bytes
        )
        assert sync_bytes - header_bytes == expected_records * model.record_bytes()

    def test_lower_ps_less_traffic(self, small_twitter):
        totals = []
        for ps in (1.0, 0.3):
            state = build_cluster(small_twitter, num_machines=4, seed=0)
            sync = MirrorSynchronizer(state, ps, np.random.default_rng(1))
            _bill_sync(state, sync, _vertices_with_mirrors(state, count=1000))
            totals.append(state.bytes_by_kind["sync"])
        assert totals[1] < 0.6 * totals[0]


class TestValidation:
    def test_ps_out_of_range(self, state):
        with pytest.raises(EngineError, match="ps"):
            MirrorSynchronizer(state, 1.5, np.random.default_rng(0))
        with pytest.raises(EngineError, match="ps"):
            MirrorSynchronizer(state, -0.1, np.random.default_rng(0))
