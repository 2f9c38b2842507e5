"""Unit tests for reading SNAP edge lists."""

import pytest

from repro.errors import GraphFormatError
from repro.graph import from_edges, read_edge_list


@pytest.fixture
def ring(tmp_path):
    return from_edges([(0, 1), (1, 2), (2, 0)])


class TestEdgeList:
    def test_snap_file_reads_back_the_graph(self, ring, tmp_path):
        path = tmp_path / "ring.txt"
        path.write_text("# ring\n# Nodes: 3 Edges: 3\n0\t1\n1\t2\n2\t0\n")
        assert read_edge_list(path) == ring

    def test_comments_skipped(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# a comment\n0 1\n# another\n1 0\n")
        g = read_edge_list(path)
        assert g.num_edges == 2

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n\n1 0\n")
        assert read_edge_list(path).num_edges == 2

    def test_tabs_and_spaces(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0\t1\n1  0\n")
        assert read_edge_list(path).num_edges == 2

    def test_noncontiguous_ids_compacted(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("100 205\n205 100\n")
        g, mapping = read_edge_list(path, return_mapping=True)
        assert g.num_vertices == 2
        assert list(mapping) == [100, 205]
        assert g.has_edge(0, 1)

    def test_negative_ids_compacted_in_sorted_order(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("5 -3\n-3 0\n0 5\n")
        g, mapping = read_edge_list(path, return_mapping=True)
        assert list(mapping) == [-3, 0, 5]
        assert g.has_edge(2, 0) and g.has_edge(0, 1) and g.has_edge(1, 2)

    def test_indented_comment_skipped(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n   # trailing note\n1 0\n")
        assert read_edge_list(path).num_edges == 2

    def test_repair_forwarded(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n")
        g = read_edge_list(path, repair_dangling="none")
        assert g.dangling_vertices().size == 1

    def test_extra_columns_ignored(self, tmp_path):
        """Weighted or timestamped SNAP files carry more columns."""
        path = tmp_path / "g.txt"
        path.write_text("0 1 0.5\n1 0 0.25\n")
        g = read_edge_list(path)
        assert g.num_edges == 2 and g.has_edge(0, 1) and g.has_edge(1, 0)

    def test_repeated_edge_counted_once(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n0 1\n1 0\n")
        assert read_edge_list(path).num_edges == 2

    def test_dangling_vertex_gets_a_self_loop_by_default(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n")
        g = read_edge_list(path)
        assert g.has_edge(1, 1) and g.dangling_vertices().size == 0

    def test_custom_comment_prefix(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("% KONECT header\n0 1\n1 0\n")
        assert read_edge_list(path, comments="%").num_edges == 2

    def test_error_names_the_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1\n2\n")
        with pytest.raises(GraphFormatError, match=r"bad\.txt:2:"):
            read_edge_list(path)

    def test_malformed_line_raises(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0\n")
        with pytest.raises(GraphFormatError, match="expected"):
            read_edge_list(path)

    def test_non_integer_raises(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("a b\n")
        with pytest.raises(GraphFormatError, match="non-integer"):
            read_edge_list(path)

    def test_empty_file_raises(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# nothing\n")
        with pytest.raises(GraphFormatError, match="no edges"):
            read_edge_list(path)
