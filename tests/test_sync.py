"""Unit tests for the randomized mirror-synchronization patch."""

import numpy as np
import pytest

from repro.core import BatchQuery, FrogWildConfig, run_frogwild_batch
from repro.engine import (
    build_cluster,
    count_marks_by_key,
    mirror_matrix,
    sync_coins,
)
from repro.errors import ConfigError
from repro.graph import twitter_like


@pytest.fixture
def state(small_twitter):
    return build_cluster(small_twitter, num_machines=4, seed=0)


def _vertices_with_mirrors(state, count=200):
    repl = state.replication
    has_mirror = repl.replica_counts > 1
    return np.flatnonzero(has_mirror)[:count]


def _draw(state, vertices, ps, rng):
    """The coin pass of ``vertices`` as the superstep makes it: the
    synced mirrors, and the fresh replicas (synced mirrors plus the
    master column) that may scatter."""
    repl = state.replication
    synced = sync_coins(mirror_matrix(repl)[vertices], ps, rng)
    fresh = synced.copy()
    fresh[np.arange(vertices.size), repl.masters[vertices]] = True
    return fresh, synced


def _bill_sync(state, vertices, ps, rng):
    """Draw the coins of ``vertices`` and bill their sync records the
    way the superstep does: one record per synced mirror, counted per
    (master, mirror) pair and sent on ``state``."""
    fresh, synced = _draw(state, vertices, ps, rng)
    state.send_pair_matrix(
        count_marks_by_key(
            state.replication.masters[vertices], synced, state.num_machines
        ),
        kind="sync",
    )
    return fresh


class TestCoins:
    def test_ps1_syncs_every_mirror(self, state):
        vertices = _vertices_with_mirrors(state)
        fresh, _ = _draw(state, vertices, 1.0, np.random.default_rng(0))
        repl = state.replication
        for row, v in enumerate(vertices):
            assert np.array_equal(fresh[row], repl.replica_matrix[v])

    def test_ps0_syncs_only_master(self, state):
        vertices = _vertices_with_mirrors(state)
        fresh, _ = _draw(state, vertices, 0.0, np.random.default_rng(0))
        repl = state.replication
        for row, v in enumerate(vertices):
            assert list(np.flatnonzero(fresh[row])) == [repl.masters[v]]

    def test_fraction_close_to_ps(self, state):
        ps = 0.4
        repl = state.replication
        vertices = _vertices_with_mirrors(state, count=10_000)
        fresh, _ = _draw(state, vertices, ps, np.random.default_rng(0))
        masters = repl.masters[vertices]
        fresh_mirrors = fresh.sum() - vertices.size  # subtract masters
        total_mirrors = (repl.replica_counts[vertices] - 1).sum()
        observed = fresh_mirrors / total_mirrors
        assert observed == pytest.approx(ps, abs=0.03)
        # Master column is always fresh.
        assert np.all(fresh[np.arange(vertices.size), masters])

    def test_empty_vertex_list(self, state):
        fresh, synced = _draw(
            state, np.array([], dtype=np.int64), 0.5, np.random.default_rng(0)
        )
        assert fresh.shape == synced.shape == (0, state.num_machines)


class TestAccounting:
    def test_ps1_record_count_matches_mirrors(self, state):
        vertices = _vertices_with_mirrors(state, count=500)
        _bill_sync(state, vertices, 1.0, np.random.default_rng(0))
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
            _bill_sync(
                state,
                _vertices_with_mirrors(state, count=1000),
                ps,
                np.random.default_rng(1),
            )
            totals.append(state.bytes_by_kind["sync"])
        assert totals[1] < 0.6 * totals[0]


class TestSyncCoins:
    """``sync_coins`` is the paper's coin rule over a block of the bitmap."""

    @pytest.mark.parametrize("ps", [1.0, 1.5])
    def test_full_ps_copies_the_mirrors_without_drawing(self, state, ps):
        mirrors = mirror_matrix(state.replication)[_vertices_with_mirrors(state)]
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        synced = sync_coins(mirrors, ps, rng)
        np.testing.assert_array_equal(synced, mirrors)
        assert synced is not mirrors
        assert rng.bit_generator.state == before

    @pytest.mark.parametrize("ps", [0.0, -0.5])
    def test_zero_ps_marks_nothing_without_drawing(self, state, ps):
        mirrors = mirror_matrix(state.replication)[_vertices_with_mirrors(state)]
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        synced = sync_coins(mirrors, ps, rng)
        assert synced.shape == mirrors.shape and not synced.any()
        assert rng.bit_generator.state == before

    @pytest.mark.parametrize("ps", [0.25, 0.75])
    def test_partial_ps_is_one_random_call_of_the_block_shape(self, state, ps):
        """The draw is exactly ``rng.random(mirrors.shape) < ps`` under the
        mirrors, so a run that slices its frontier per lane replays the
        stream of the run alone."""
        mirrors = mirror_matrix(state.replication)[_vertices_with_mirrors(state)]
        rng, replay = np.random.default_rng(5), np.random.default_rng(5)
        synced = sync_coins(mirrors, ps, rng)
        np.testing.assert_array_equal(
            synced, mirrors & (replay.random(mirrors.shape) < ps)
        )
        assert rng.random() == replay.random()

    def test_coins_never_mark_a_non_mirror(self, state):
        mirrors = mirror_matrix(state.replication)[_vertices_with_mirrors(state)]
        synced = sync_coins(mirrors, 0.5, np.random.default_rng(2))
        assert not (synced & ~mirrors).any()
        assert 0 < synced.sum() < mirrors.sum()

    def test_empty_block(self, state):
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        synced = sync_coins(
            np.zeros((0, state.num_machines), dtype=bool), 0.5, rng
        )
        assert synced.shape == (0, state.num_machines)
        assert rng.bit_generator.state == before


class TestMirrorMatrix:
    def test_masters_are_never_mirrors(self, state):
        repl = state.replication
        matrix = mirror_matrix(repl)
        assert not matrix[np.arange(repl.masters.size), repl.masters].any()

    def test_mirrors_plus_masters_are_the_replicas(self, state):
        repl = state.replication
        matrix = mirror_matrix(repl)
        matrix[np.arange(repl.masters.size), repl.masters] = True
        np.testing.assert_array_equal(matrix, repl.replica_matrix)

    def test_row_counts_are_replica_counts_less_the_master(self, state):
        repl = state.replication
        np.testing.assert_array_equal(
            mirror_matrix(repl).sum(axis=1), repl.replica_counts - 1
        )

    def test_writing_it_leaves_the_replication_intact(self, state):
        repl = state.replication
        replicas = repl.replica_matrix.copy()
        matrix = mirror_matrix(repl)
        matrix[:] = False
        np.testing.assert_array_equal(repl.replica_matrix, replicas)
        assert mirror_matrix(repl).any()


class TestValidation:
    def test_ps_out_of_range(self):
        """With the synchronizer gone, ``ps`` is checked where it enters a
        run: the config and each batch lane's override."""
        graph = twitter_like(n=200, seed=1)
        for ps in (1.5, -0.1, float("nan")):
            with pytest.raises(ConfigError, match="ps"):
                FrogWildConfig(ps=ps)
            with pytest.raises(ConfigError, match="ps"):
                run_frogwild_batch(
                    graph,
                    [BatchQuery(ps=ps)],
                    FrogWildConfig(num_frogs=50, iterations=2, seed=0),
                )
