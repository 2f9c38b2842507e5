"""Unit tests for GraphBuilder and from_edges."""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph import GraphBuilder, from_edges


class TestAddEdges:
    def test_single_edge(self):
        g = GraphBuilder().add_edges([(0, 1)]).build()
        assert g.has_edge(0, 1)

    def test_batch_array(self):
        edges = np.array([[0, 1], [1, 2], [2, 0]])
        g = GraphBuilder().add_edges(edges).build()
        assert g.num_edges == 3

    def test_batch_iterable(self):
        g = GraphBuilder().add_edges((u, u + 1) for u in range(5)).build()
        assert g.num_vertices == 6

    def test_chaining(self):
        g = GraphBuilder().add_edges([(0, 1)]).add_edges([(1, 0)]).build()
        assert g.num_edges == 2

    def test_empty_batch_is_noop(self):
        builder = GraphBuilder()
        builder.add_edges([])
        assert builder.build().num_vertices == 0

    def test_batches_accumulate_until_build(self):
        builder = GraphBuilder(repair_dangling="none")
        builder.add_edges([(0, 1), (0, 1)])
        builder.add_edges(np.array([[2, 0]]))
        assert sorted(builder.build().edges()) == [(0, 1), (2, 0)]

    def test_rejects_negative_ids(self):
        with pytest.raises(GraphError, match="non-negative"):
            GraphBuilder().add_edges([(-1, 0)])

    def test_rejects_bad_shape(self):
        with pytest.raises(GraphError, match=r"\(k, 2\)"):
            GraphBuilder().add_edges(np.array([[0, 1, 2]]))

    def test_rejects_vertex_above_fixed_n(self):
        builder = GraphBuilder(num_vertices=2)
        builder.add_edges([(0, 5)])
        with pytest.raises(GraphError, match="num_vertices"):
            builder.build()

    def test_rejects_negative_num_vertices(self):
        with pytest.raises(GraphError, match="non-negative"):
            GraphBuilder(num_vertices=-1)


class TestDedupAndOrder:
    def test_duplicates_removed(self):
        g = from_edges([(0, 1), (0, 1), (0, 1), (1, 0)])
        assert g.num_edges == 2

    def test_successors_sorted(self):
        g = from_edges([(0, 3), (0, 1), (0, 2), (1, 0), (2, 0), (3, 0)])
        assert list(g.successors(0)) == [1, 2, 3]

    def test_order_of_insertion_irrelevant(self):
        a = from_edges([(0, 1), (1, 2), (2, 0)])
        b = from_edges([(2, 0), (0, 1), (1, 2)])
        assert a == b


class TestDanglingRepair:
    def test_self_loop_repair(self):
        g = from_edges([(0, 1)], repair_dangling="self-loop")
        assert g.has_edge(1, 1)
        assert g.dangling_vertices().size == 0

    def test_self_loop_only_on_dangling(self):
        g = from_edges([(0, 1), (1, 0)], repair_dangling="self-loop")
        assert not g.has_edge(0, 0)
        assert not g.has_edge(1, 1)

    def test_none_keeps_dangling(self):
        g = from_edges([(0, 1)], repair_dangling="none")
        assert list(g.dangling_vertices()) == [1]

    def test_drop_removes_dangling(self):
        # 2 is dangling; dropping it leaves 0 <-> 1.
        g = from_edges([(0, 1), (1, 0), (0, 2)], repair_dangling="drop")
        assert g.num_vertices == 2
        assert g.num_edges == 2

    def test_drop_cascades(self):
        # Dropping 3 makes 2 dangling, which makes 1 dangling.
        g = from_edges(
            [(0, 1), (1, 2), (2, 3), (1, 0)], repair_dangling="drop"
        )
        assert g.num_vertices == 2
        assert sorted(g.edges()) == [(0, 1), (1, 0)]

    def test_drop_entire_graph(self):
        g = from_edges([(0, 1), (1, 2)], repair_dangling="drop")
        assert g.num_vertices == 0

    def test_unknown_repair_rejected(self):
        with pytest.raises(GraphError, match="repair_dangling"):
            GraphBuilder(repair_dangling="magic")

    def test_fixed_n_adds_isolated_with_self_loops(self):
        g = from_edges([(0, 1)], num_vertices=5, repair_dangling="self-loop")
        assert g.num_vertices == 5
        for v in range(1, 5):
            assert g.has_edge(v, v)


class TestEmpty:
    def test_build_empty(self):
        g = GraphBuilder().build()
        assert g.num_vertices == 0

    def test_build_fixed_n_no_edges(self):
        g = GraphBuilder(num_vertices=3, repair_dangling="self-loop").build()
        assert g.num_vertices == 3
        assert g.num_edges == 3  # three self loops
