"""The fused superstep in (rows x machines) shape.

Between the sync coins and the edge pick the fused passes work on one
dense (frontier rows x machines) block of group widths instead of
ragged per-row group lists, and sync records are counted by one
grouped-count primitive instead of a 2-D ``np.nonzero``.  Pinned here:

* ``count_marks_by_key`` equals the ``np.nonzero`` + ``bincount``
  formulation it replaced — kept in this file as the reference — on
  empty frontiers, all-false masks, unused keys, one machine, one and
  sixteen lanes (property-based), and a batch bills its repair
  records as sync records;
* the dense tables are the ragged tables: ``size_vm[v, machine of g]``
  is the width of group g and 0 elsewhere, rows sum to the out-degree,
  ``start_vm`` holds the group starts;
* where the block is mostly empty (64 machines, out-degree ~10) every
  lane still equals its pinned run alone, under both erasure models and
  both scatter modes, for uniform and personalized laws;
* the tables cost what they should: int32, built once per ingress
  however many runs read them, warm after ``prime_ingress_caches``,
  spilled and mapped back with the other serving tables.

No test reads a clock.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from batch_reference import assert_lanes_match_standalone
from repro.cluster import ReplicationTable, StableHashVertexCut
from repro.core import (
    BatchQuery,
    FrogWildConfig,
    run_frogwild,
    run_frogwild_batch,
    seed_distribution,
)
from repro.core.frogwild import _kernel_tables, prime_ingress_caches
from repro.core.kernels import DenseGroupTables
from repro.engine import build_cluster, count_marks_by_key
from repro.errors import EngineError
from repro.graph import erdos_renyi, twitter_like
from repro.store import load_serving_tables, spill_serving_tables


# ----------------------------------------------------------------------
# count_marks_by_key vs np.nonzero + bincount
# ----------------------------------------------------------------------
def _reference_counts(keys, marks, num_keys):
    """The replaced formulation: list the marks, then count the pairs."""
    rows, cols = np.nonzero(marks)
    width = marks.shape[1]
    return np.bincount(
        keys.astype(np.int64)[rows] * width + cols, minlength=num_keys * width
    ).reshape(num_keys, width)


@st.composite
def _marked_rows(draw):
    machines = draw(st.sampled_from([1, 2, 5, 16]))
    lanes = draw(st.sampled_from([1, 16]))
    rows = draw(st.integers(0, 40))
    num_keys = lanes * machines
    # Keys from a subset of the range, so some keys go unused.
    pool = draw(
        st.lists(st.integers(0, num_keys - 1), min_size=1, max_size=4)
    )
    keys = np.array(
        [draw(st.sampled_from(pool)) for _ in range(rows)],
        dtype=draw(st.sampled_from([np.int32, np.int64])),
    )
    density = draw(st.sampled_from([0.0, 0.3, 1.0]))
    seed = draw(st.integers(0, 2**16))
    marks = np.random.default_rng(seed).random((rows, machines)) < density
    return keys, marks, num_keys


class TestCountMarksByKey:
    @settings(max_examples=300, deadline=None)
    @given(_marked_rows())
    def test_equals_the_nonzero_formulation(self, case):
        keys, marks, num_keys = case
        counts = count_marks_by_key(keys, marks, num_keys)
        assert counts.dtype == np.int64
        assert counts.shape == (num_keys, marks.shape[1])
        assert np.array_equal(counts, _reference_counts(keys, marks, num_keys))

    def test_sync_records_are_the_master_keyed_count(self):
        """Keyed by master machine, the count is the (master, mirror)
        sync record matrix a superstep sends."""
        rng = np.random.default_rng(4)
        masters = rng.integers(0, 8, size=200).astype(np.int32)
        synced = rng.random((200, 8)) < 0.4
        assert np.array_equal(
            count_marks_by_key(masters, synced, 8),
            _reference_counts(masters, synced, 8),
        )

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_a_key_outside_the_range_is_refused(self, bad):
        with pytest.raises(EngineError):
            count_marks_by_key(
                np.array([0, bad]), np.ones((2, 4), dtype=bool), 3
            )

    def test_repair_records_are_billed_as_sync_records(self):
        """At ps = 0 every mirror stays stale, so each sync record a
        batch bills is an At-Least-One repair (Example 10): one record
        per remote repaired group, priced and charged like any sync
        record."""
        result = run_frogwild_batch(
            twitter_like(n=400, seed=2),
            [BatchQuery(seed=s) for s in range(3)],
            FrogWildConfig(num_frogs=2000, iterations=3, ps=0.0, seed=1),
            num_machines=8,
        )
        extra = result.report.extra
        state = result.state
        size = state.size_model
        assert extra["sync_records"] == 0
        assert extra["repair_records"] > 0
        assert state.bytes_by_kind["sync"] == (
            state.messages_by_kind["sync"] * size.message_header_bytes
            + extra["repair_records"] * size.record_bytes()
        )
        assert state.ops_by_phase["sync"] == extra["repair_records"]


# ----------------------------------------------------------------------
# The dense tables are the ragged tables
# ----------------------------------------------------------------------
class TestDenseGroupTables:
    @pytest.mark.parametrize("machines", [1, 4, 64])
    def test_cells_are_the_groups(self, machines):
        graph = twitter_like(n=500, seed=3)
        state = build_cluster(graph, machines, seed=0)
        tables = _kernel_tables(state)
        dense = DenseGroupTables(tables, machines)
        n = graph.num_vertices
        group_vertex = np.repeat(np.arange(n), np.diff(tables.vertex_ptr))
        at = (group_vertex, tables.group_machine)
        assert dense.size_vm.shape == dense.start_vm.shape == (n, machines)
        assert np.array_equal(dense.size_vm[at], tables.group_sizes)
        assert np.array_equal(dense.start_vm[at], tables.group_start)
        assert np.count_nonzero(dense.size_vm) == tables.group_sizes.size
        assert np.array_equal(dense.size_vm.sum(axis=1), tables.out_degree)
        # Ascending machine order within a vertex: what makes the
        # row-major scan of a block enumerate groups in ragged order.
        same_vertex = group_vertex[1:] == group_vertex[:-1]
        assert (np.diff(tables.group_machine)[same_vertex] > 0).all()

    def test_int32_while_the_edge_count_fits(self):
        graph = twitter_like(n=300, seed=5)
        state = build_cluster(graph, 8, seed=0)
        dense = DenseGroupTables(_kernel_tables(state), 8)
        assert dense.size_vm.dtype == dense.start_vm.dtype == np.int32

    def test_repeated_runs_on_one_ingress_build_them_once(self, monkeypatch):
        """A single run is a one-lane batch, so it reads the dense tables
        too: the first run on an ingress builds the kernel tables, the
        dense tables and the mirror bitmap, and every later run on a
        fresh state of that ingress reuses them."""
        from repro.core import batched, frogwild

        graph = twitter_like(n=300, seed=5)
        replication = build_cluster(graph, 8, seed=0).replication
        builds = []

        def counting(name, build):
            def wrapper(*args, **kwargs):
                builds.append(name)
                return build(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            frogwild, "_KernelTables",
            counting("kernel_tables", frogwild._KernelTables),
        )
        monkeypatch.setattr(
            batched, "DenseGroupTables",
            counting("dense_groups", DenseGroupTables),
        )
        monkeypatch.setattr(
            batched, "mirror_matrix",
            counting("mirror_matrix", batched.mirror_matrix),
        )
        for seed in range(3):
            run_frogwild(
                graph,
                FrogWildConfig(num_frogs=500, iterations=3, seed=seed),
                state=build_cluster(graph, 8, seed=0, replication=replication),
            )
        assert sorted(builds) == ["dense_groups", "kernel_tables", "mirror_matrix"]
        cache = replication._ingress_cache
        assert {"kernel_tables", "dense_groups", "mirror_matrix"} <= set(cache)

    def test_priming_warms_them_for_the_first_batch(self):
        graph = twitter_like(n=300, seed=5)
        state = build_cluster(graph, 8, seed=0)
        prime_ingress_caches(state.replication, graph)
        primed = state.replication._ingress_cache["dense_groups"]
        run_frogwild_batch(
            graph,
            [BatchQuery()],
            FrogWildConfig(num_frogs=500, iterations=3, seed=1),
            state=build_cluster(
                graph, 8, seed=0, replication=state.replication
            ),
        )
        assert state.replication._ingress_cache["dense_groups"] is primed


class TestSpillRoundTrip:
    def _spill(self, tmp_path):
        graph = twitter_like(n=300, seed=11)
        replication = ReplicationTable(
            graph, StableHashVertexCut(seed=3).partition(graph, 4), seed=3
        )
        directory = spill_serving_tables(
            tmp_path / "spill", graph, [replication]
        )
        return graph, replication, directory

    def test_dense_tables_are_mapped_not_rebuilt(self, tmp_path):
        graph, replication, directory = self._spill(tmp_path)
        loaded_graph, (loaded,) = load_serving_tables(directory)
        dense = loaded._ingress_cache["dense_groups"]
        built = DenseGroupTables(
            loaded._ingress_cache["kernel_tables"], 4
        )
        for slot in DenseGroupTables.__slots__:
            mapped = getattr(dense, slot)
            assert isinstance(mapped, np.memmap)
            assert not mapped.flags.writeable
            assert mapped.dtype == np.int32
            assert np.array_equal(mapped, getattr(built, slot))
        # A batch on the loaded tables reuses the mapped entry and
        # answers exactly as one on the RAM tables does.
        config = FrogWildConfig(num_frogs=600, iterations=3, seed=2)
        queries = [BatchQuery(), BatchQuery(seed=9)]
        mapped_run = run_frogwild_batch(
            loaded_graph, queries, config,
            state=build_cluster(loaded_graph, 4, seed=3, replication=loaded),
        )
        assert loaded._ingress_cache["dense_groups"] is dense
        ram_run = run_frogwild_batch(
            graph, queries, config,
            state=build_cluster(graph, 4, seed=3, replication=replication),
        )
        for mapped_lane, ram_lane in zip(mapped_run.results, ram_run.results):
            assert np.array_equal(
                mapped_lane.estimate.counts, ram_lane.estimate.counts
            )
        assert mapped_run.report.network_bytes == ram_run.report.network_bytes

    def test_a_spill_without_them_still_loads(self, tmp_path):
        # What a spill written before the dense tables existed holds.
        _, _, directory = self._spill(tmp_path)
        meta = json.loads((directory / "meta.json").read_text())
        meta["arrays"] = [
            name for name in meta["arrays"] if not name.startswith("dg")
        ]
        (directory / "meta.json").write_text(json.dumps(meta))
        for path in directory.glob("dg*.npy"):
            path.unlink()
        graph, (loaded,) = load_serving_tables(directory)
        assert "dense_groups" not in loaded._ingress_cache
        run_frogwild_batch(
            graph,
            [BatchQuery()],
            FrogWildConfig(num_frogs=300, iterations=2, seed=2),
            state=build_cluster(graph, 4, seed=3, replication=loaded),
        )
        assert "dense_groups" in loaded._ingress_cache


# ----------------------------------------------------------------------
# Low fill, wide cluster: 64 machines, out-degree ~10
# ----------------------------------------------------------------------
SPARSE = erdos_renyi(n=400, avg_out_degree=10, seed=21)
WIDE = 64
_LOW_FILL_QUERIES = [
    BatchQuery(seed=1),
    BatchQuery(
        seed=2, num_frogs=500,
        start_distribution=seed_distribution(
            SPARSE.num_vertices, np.array([3, 77])
        ),
    ),
    BatchQuery(
        seed=3, ps=0.9,
        start_distribution=seed_distribution(
            SPARSE.num_vertices, np.array([5, 120, 301]),
            np.array([3.0, 1.0, 1.0]),
        ),
    ),
    BatchQuery(seed=4, ps=0.1),
]


def _low_fill_config(erasure_model, scatter_mode):
    return FrogWildConfig(
        num_frogs=900, iterations=5, ps=0.4, seed=6,
        erasure_model=erasure_model, scatter_mode=scatter_mode,
    )


# name -> (graph, machines, config, queries) whose runs alone are pinned
# in tests/data (see batch_reference.py).
STANDALONE = {
    f"low-fill-{erasure}-{scatter}": (
        SPARSE, WIDE, _low_fill_config(erasure, scatter), _LOW_FILL_QUERIES
    )
    for erasure in ("at-least-one", "independent")
    for scatter in ("multinomial", "binomial")
}


class TestLowFillParity:
    def test_the_block_really_is_mostly_empty(self):
        state = build_cluster(SPARSE, WIDE, seed=6)
        dense = DenseGroupTables(_kernel_tables(state), WIDE)
        assert np.count_nonzero(dense.size_vm) / dense.size_vm.size < 0.2

    @pytest.mark.parametrize("scatter_mode", ["multinomial", "binomial"])
    @pytest.mark.parametrize("erasure_model", ["at-least-one", "independent"])
    def test_every_lane_matches_its_standalone_run(
        self, erasure_model, scatter_mode
    ):
        config = _low_fill_config(erasure_model, scatter_mode)
        batch = run_frogwild_batch(
            SPARSE, _LOW_FILL_QUERIES, config,
            state=build_cluster(SPARSE, WIDE, seed=config.seed),
        )
        assert_lanes_match_standalone(
            f"low-fill-{erasure_model}-{scatter_mode}", batch
        )
