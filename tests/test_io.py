"""Tests for graph serialization."""

import re

import pytest

from repro import io as graph_io
from repro.graphs import WeightedGraph


class TestEdgeList:
    def test_roundtrip(self, tmp_path, small_er):
        path = tmp_path / "g.txt"
        graph_io.write_edge_list(small_er, path)
        back = graph_io.read_edge_list(path)
        assert back == small_er

    def test_isolated_vertices_preserved(self, tmp_path):
        g = WeightedGraph([0, 1, 2])
        g.add_edge(0, 1, 2.5)
        path = tmp_path / "g.txt"
        graph_io.write_edge_list(g, path)
        back = graph_io.read_edge_list(path)
        assert back == g
        assert back.has_vertex(2)

    def test_string_vertex_ids(self, tmp_path):
        g = WeightedGraph()
        g.add_edge("alpha", "beta", 1.5)
        path = tmp_path / "g.txt"
        graph_io.write_edge_list(g, path)
        back = graph_io.read_edge_list(path)
        assert back.weight("alpha", "beta") == 1.5

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# header\n\n0 1 2.0  # trailing comment\n")
        g = graph_io.read_edge_list(path)
        assert g.weight(0, 1) == 2.0

    @pytest.mark.parametrize("bad", ["a b", "x#1", "", " ", "tab\tid", "new\nline"])
    def test_unwritable_vertex_id_raises(self, tmp_path, bad):
        """Ids whose string form would be mis-parsed on read must be
        rejected on write, not silently corrupted (round-trip hazard)."""
        g = WeightedGraph()
        g.add_edge(bad, "ok", 1.0)
        path = tmp_path / "g.txt"
        with pytest.raises(ValueError, match="round-trip|whitespace"):
            graph_io.write_edge_list(g, path)

    def test_unwritable_isolated_vertex_raises(self, tmp_path):
        g = WeightedGraph(["lonely vertex"])
        with pytest.raises(ValueError):
            graph_io.write_edge_list(g, tmp_path / "g.txt")

    def test_failed_write_leaves_no_partial_edges(self, tmp_path):
        """Validation happens before any edge line hits the file."""
        g = WeightedGraph()
        g.add_edge(0, 1, 1.0)
        g.add_edge("bad id", 2, 1.0)
        path = tmp_path / "g.txt"
        with pytest.raises(ValueError):
            graph_io.write_edge_list(g, path)
        assert not path.exists() or "bad id" not in path.read_text()

    def test_json_accepts_ids_edge_list_rejects(self, tmp_path):
        g = WeightedGraph()
        g.add_edge("a b", "c#d", 2.0)
        path = tmp_path / "g.json"
        graph_io.write_json(g, path)
        back = graph_io.read_json(path)
        assert back.weight("a b", "c#d") == 2.0

    def test_malformed_line_raises(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n")
        with pytest.raises(ValueError):
            graph_io.read_edge_list(path)

    @pytest.mark.parametrize("weight", ["heavy", "nan", "inf", "-inf", "0"])
    def test_bad_weight_raises(self, tmp_path, weight):
        path = tmp_path / "g.txt"
        path.write_text(f"0 1 2.0\n1 2 {weight}\n")
        with pytest.raises(ValueError, match=rf"g\.txt:2: .*{re.escape(weight)}"):
            graph_io.read_edge_list(path)


class TestJson:
    def test_roundtrip(self, tmp_path, small_er):
        path = tmp_path / "g.json"
        graph_io.write_json(small_er, path)
        assert graph_io.read_json(path) == small_er

    def test_missing_keys_raise(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text("{}")
        with pytest.raises(ValueError):
            graph_io.read_json(path)

    def test_weights_are_floats(self, tmp_path):
        g = WeightedGraph()
        g.add_edge(0, 1, 3)
        path = tmp_path / "g.json"
        graph_io.write_json(g, path)
        back = graph_io.read_json(path)
        assert isinstance(back.weight(0, 1), float)
