"""Half-width serving tables: one narrowing rule, the same answers.

Every index array of a :class:`~repro.cluster.ReplicationTable` is
int32 when its values fit and int64 otherwise
(``repro.cluster.replication._narrow``), the kernel tables alias them,
and the fused passes widen whatever they scale or index per frog.  So
the dtype of a table never changes a value:

* a table narrowed under a small span — some arrays int64, some int32 —
  answers exactly like the int32 build;
* a frog-record key past 2**31 is built in int64 from int32 inputs;
* int64 tables (an arena or a spill written before the rule) still
  attach, alias into the kernel tables and serve bitwise alike.
"""

import ast
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from repro.cluster import RandomVertexCut, ReplicationTable
from repro.cluster import replication as replication_module
from repro.core import FrogWildConfig, run_frogwild
from repro.core.frogwild import _kernel_tables
from repro.core.kernels.fused import FusedPasses
from repro.engine import build_cluster
from repro.graph import twitter_like
from repro.serving import LocalBackend, RankingQuery, RankingService, ServiceConfig
from repro.store import load_serving_tables, spill_serving_tables

GRAPH = twitter_like(n=600, seed=8)
MACHINES = 4
CONFIG = FrogWildConfig(num_frogs=4_000, iterations=4, ps=0.7, seed=5)
QUERIES = [
    RankingQuery(seeds=(3, 40), k=10),
    RankingQuery(seeds=(7, 120, 200), k=10),
    RankingQuery(seeds=(500,), k=10),
]
INDEX_SLOTS = (
    "sorted_other", "group_start", "group_stop", "group_anchor",
    "vertex_ptr", "anchor_edge_ptr",
)


def _table(graph=GRAPH):
    partition = RandomVertexCut(seed=2).partition(graph, MACHINES)
    return ReplicationTable(graph, partition, seed=2)


def _served(graph, table):
    backend = LocalBackend(graph, num_machines=MACHINES, replication=table)
    service = RankingService(
        graph,
        ServiceConfig(config=CONFIG, num_machines=MACHINES, backend=backend),
    )
    try:
        return [
            (a.vertices.tolist(), a.scores.tolist(), a.network_bytes)
            for a in service.query_batch(QUERIES)
        ]
    finally:
        service.close()


def _outputs(table):
    """Single-run counts and report, binomial included, and served
    answers of ``table``."""
    runs = []
    for mode in ("multinomial", "binomial"):
        config = FrogWildConfig(
            num_frogs=4_000, iterations=4, ps=0.7, seed=5, scatter_mode=mode
        )
        state = build_cluster(GRAPH, MACHINES, replication=table)
        result = run_frogwild(GRAPH, config, state=state)
        runs.append((result.estimate.counts.tolist(), result.report.as_dict()))
    return runs, _served(GRAPH, table)


def _widened(table):
    """``table``'s exported arrays with every integer array int64."""
    return {
        key: array.astype(np.int64) if array.dtype.kind == "i" else array
        for key, array in table.shared_components().items()
    }


class TestNarrowingRule:
    def test_a_built_table_is_int32_throughout(self):
        table = _table()
        groups = table.out_groups
        for slot in (*INDEX_SLOTS, "group_machine", "edge_machine_sorted"):
            assert getattr(groups, slot).dtype == np.int32, slot
        assert table.masters.dtype == np.int32
        assert table._master_ptr.dtype == np.int32
        assert table._master_sorted_vertices.dtype == np.int32

    def test_the_int64_fallback_answers_like_the_int32_build(self, monkeypatch):
        """Under a 2**10 span vertex ids (< 600) still narrow while edge
        offsets (up to m > 2**10) stay int64: both dtypes meet in one
        superstep, and every value is the int32 build's."""
        narrow = _table()
        expected = _outputs(narrow)
        monkeypatch.setattr(replication_module, "_INT32_SPAN", 2**10)
        mixed = _table()
        groups = mixed.out_groups
        assert GRAPH.num_edges > 2**10 > GRAPH.num_vertices
        assert groups.sorted_other.dtype == np.int32
        assert groups.group_anchor.dtype == np.int32
        for slot in ("group_start", "group_stop", "anchor_edge_ptr"):
            assert getattr(groups, slot).dtype == np.int64, slot
        assert mixed.structurally_equal(narrow)
        assert narrow.structurally_equal(mixed)
        assert _outputs(mixed) == expected

    def test_frog_record_keys_are_built_in_int64(self):
        """host * n + dest = 2**32 - 1 for n = 2**27, 32 machines: it
        wraps to -1 in int32.  One remote record, from host 31 to
        dest's master 0."""
        n, machines = 2**27, 32
        tables = SimpleNamespace(masters=np.broadcast_to(np.int32(0), (n,)))
        passes = FusedPasses(
            tables, None, num_lanes=1, num_machines=machines, num_vertices=n
        )
        records = passes.frog_records(
            None, np.array([31], dtype=np.int32),
            np.array([n - 1], dtype=np.int32),
        )
        assert records.shape == (1, machines, machines)
        assert records.sum() == 1
        assert records[0, 31, 0] == 1


class TestOldTablesStillServe:
    def test_an_int64_arena_attaches_and_serves_bitwise(self):
        table = _table()
        old = ReplicationTable.from_shared_components(GRAPH, _widened(table))
        assert old.out_groups.sorted_other.dtype == np.int64
        assert old.structurally_equal(table)
        kernel = _kernel_tables(build_cluster(GRAPH, MACHINES, replication=old))
        assert kernel.edge_target.dtype == kernel.edge_host.dtype == np.int64
        assert np.shares_memory(kernel.edge_host, old.out_groups.edge_machine_sorted)
        assert _outputs(old) == _outputs(table)

    def test_an_int64_spill_loads_and_serves_bitwise(self, tmp_path):
        table = _table()
        old = ReplicationTable.from_shared_components(GRAPH, _widened(table))
        directory = spill_serving_tables(tmp_path / "spill", GRAPH, [old])
        graph, (loaded,) = load_serving_tables(directory)
        kernel = loaded._ingress_cache["kernel_tables"]
        assert kernel.edge_host.dtype == kernel.group_machine.dtype == np.int64
        assert loaded.structurally_equal(table)
        assert _served(graph, loaded) == _served(GRAPH, table)


def test_the_cluster_layer_imports_nothing_from_core():
    """The rule lives in the cluster layer, which never imports core."""
    package = Path(replication_module.__file__).parent
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                assert "core" not in (node.module or "").split("."), path.name
