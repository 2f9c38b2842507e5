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
* the int32 accumulation of ``count_marks_by_key`` equals the int64
  one-hot product past int16's range;
* ``FusedPasses.frog_records`` equals a set of (lane, host, dest)
  triples on both sides of its size rule (bitmap count or sort), for
  one and three lanes, 1-16 machines, a single hop and all-local hops;
  ``_ranges_to_indices`` equals concatenated ``arange``s;
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
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from batch_reference import assert_lanes_match_standalone
from repro.cluster import ReplicationTable, StableHashVertexCut
from repro.core import (
    BatchQuery,
    FrogWildConfig,
    run_frogwild,
    run_frogwild_batch,
)
from repro.core.frogwild import _kernel_tables, prime_ingress_caches
from repro.core.kernels import DenseGroupTables, FusedPasses
from repro.core.kernels import fused as fk
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

    def test_int32_accumulation_equals_the_int64_product(self):
        """The product accumulates in int32 and widens its result: on
        counts far past the int8 mask's and int16's range it equals the
        int64 one-hot product it replaced, as int64."""
        rng = np.random.default_rng(6)
        rows, machines = 70_000, 4
        keys = np.where(rng.random(rows) < 0.9, 0, rng.integers(0, 3, rows))
        marks = rng.random((rows, machines)) < 0.95
        onehot64 = sparse.csc_matrix(
            (np.ones(rows, dtype=np.int64), keys, np.arange(rows + 1)),
            shape=(3, rows),
        )
        expected = onehot64 @ marks.view(np.int8)
        counts = count_marks_by_key(keys.astype(np.int32), marks, 3)
        assert counts.dtype == expected.dtype == np.int64
        assert counts.max() > 2**15
        assert np.array_equal(counts, expected)

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
# Frog records: bitmap count or sort, against a set of triples
# ----------------------------------------------------------------------
def _reference_records(lanes, hosts, dests, masters, num_lanes, machines):
    """One record per distinct remote (lane, host, dest) triple, counted
    per (lane, host, master of dest)."""
    records = np.zeros((num_lanes, machines, machines), dtype=np.int64)
    for lane, host, dest in set(zip(lanes, hosts, dests)):
        if host != masters[dest]:
            records[lane, host, masters[dest]] += 1
    return records


@st.composite
def _hops(draw):
    lanes = draw(st.sampled_from([1, 3]))
    machines = draw(st.sampled_from([1, 4, 16]))
    side = draw(st.sampled_from(["bitmap", "sort"]))
    cells_per_vertex = lanes * machines
    limit = fk._RANGE_PER_KEY_COUNT
    if side == "bitmap":
        # At least one vertex fits: hops >= lanes * machines / 4.
        hops = draw(st.integers(-(-cells_per_vertex // limit), 60))
        n = draw(st.integers(1, limit * hops // cells_per_vertex))
    else:
        hops = draw(st.integers(1, 60))
        n = draw(st.integers(limit * hops // cells_per_vertex + 1, 300))
    seed = draw(st.integers(0, 2**16))
    all_local = draw(st.booleans())
    rng = np.random.default_rng(seed)
    masters = rng.integers(0, machines, n).astype(np.int32)
    # A few hot destinations, so triples repeat.
    dests = rng.integers(0, min(n, draw(st.sampled_from([2, n]))), hops)
    hosts = masters[dests].astype(np.int64) if all_local else (
        rng.integers(0, machines, hops)
    )
    lanes_of = np.sort(rng.integers(0, lanes, hops))
    return side, lanes, machines, n, masters, lanes_of, hosts, dests


class TestFrogRecords:
    @settings(max_examples=300, deadline=None)
    @given(_hops())
    def test_equals_the_set_of_triples(self, case):
        side, lanes, machines, n, masters, lane_of, hosts, dests = case
        passes = FusedPasses(
            SimpleNamespace(masters=masters), None,
            num_lanes=lanes, num_machines=machines, num_vertices=n,
        )
        with mock.patch.object(
            fk, "sorted_unique", wraps=fk.sorted_unique
        ) as sort:
            records = passes.frog_records(
                None if lanes == 1 else lane_of, hosts, dests
            )
        assert records.dtype == np.int64
        assert np.array_equal(
            records,
            _reference_records(
                lane_of if lanes > 1 else np.zeros_like(lane_of),
                hosts, dests, masters, lanes, machines,
            ),
        )
        assert sort.call_count == (side == "sort")

    def test_a_single_hop_and_all_local_hops(self):
        masters = np.array([2, 0, 1], dtype=np.int32)
        passes = FusedPasses(
            SimpleNamespace(masters=masters), None,
            num_lanes=1, num_machines=4, num_vertices=3,
        )
        one = passes.frog_records(None, np.array([3]), np.array([1]))
        assert one.shape == (1, 4, 4)
        assert one.sum() == one[0, 3, 0] == 1
        local = passes.frog_records(
            None, np.array([2, 0, 1, 1]), np.array([0, 1, 2, 2])
        )
        assert not local.any()


class TestRangesToIndices:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 10**12), st.integers(1, 20)),
            max_size=30,
        ),
        st.sampled_from([np.int32, np.int64]),
    )
    def test_equals_concatenated_aranges(self, ranges, dtype):
        if dtype == np.int32:
            ranges = [(s % 2**30, length) for s, length in ranges]
        starts = np.array([s for s, _ in ranges], dtype=dtype)
        lengths = np.array([length for _, length in ranges], dtype=dtype)
        expected = np.concatenate(
            [np.arange(s, s + length) for s, length in ranges] + [[]]
        ).astype(np.int64)
        indices = fk._ranges_to_indices(starts, lengths)
        assert indices.dtype == np.int64
        assert np.array_equal(indices, expected)


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
    BatchQuery(seed=2, num_frogs=500, seeds=np.array([3, 77])),
    BatchQuery(
        seed=3, ps=0.9,
        seeds=np.array([5, 120, 301]),
        weights=np.array([3.0, 1.0, 1.0]),
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
