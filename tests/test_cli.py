"""Tests for the command-line interface."""

import pytest

from repro import io as graph_io
from repro.cli import main
from repro.graphs import erdos_renyi_graph, random_geometric_graph


@pytest.fixture
def er_file(tmp_path):
    g = erdos_renyi_graph(25, 0.25, seed=1)
    path = tmp_path / "g.txt"
    graph_io.write_edge_list(g, path)
    return str(path)


@pytest.fixture
def geo_file(tmp_path):
    g = random_geometric_graph(20, seed=2)
    path = tmp_path / "g.json"
    graph_io.write_json(g, path)
    return str(path)


class TestGenerate:
    @pytest.mark.parametrize("family", ["er", "geometric", "grid"])
    def test_generates_and_saves(self, tmp_path, family, capsys):
        out = tmp_path / "out.json"
        rc = main(["generate", "--family", family, "--n", "20", str(out)])
        assert rc == 0
        g = graph_io.read_json(out)
        assert g.n >= 16
        assert "wrote" in capsys.readouterr().out


class TestSpanner:
    def test_report_printed(self, er_file, capsys):
        rc = main(["spanner", er_file, "--k", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "stretch" in out and "lightness" in out and "rounds" in out

    def test_output_file(self, er_file, tmp_path, capsys):
        out = tmp_path / "spanner.txt"
        rc = main(["spanner", er_file, "--output", str(out)])
        assert rc == 0
        h = graph_io.read_edge_list(out)
        assert h.m > 0


class TestSLT:
    def test_default_root(self, er_file, capsys):
        rc = main(["slt", er_file, "--alpha", "5.0"])
        assert rc == 0
        assert "root-stretch" in capsys.readouterr().out

    def test_explicit_root(self, er_file, capsys):
        rc = main(["slt", er_file, "--alpha", "5.0", "--root", "3"])
        assert rc == 0

    def test_bad_root_exits(self, er_file):
        with pytest.raises(SystemExit):
            main(["slt", er_file, "--root", "nope"])


class TestNet:
    def test_prints_points(self, er_file, capsys):
        rc = main(["net", er_file, "--scale", "25"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "points" in out and "iterations" in out


class TestDoubling:
    def test_runs_on_geometric(self, geo_file, capsys):
        rc = main(["doubling", geo_file, "--eps", "0.1"])
        assert rc == 0
        assert "stretch" in capsys.readouterr().out


class TestEstimate:
    def test_prints_ratio(self, er_file, capsys):
        rc = main(["estimate", er_file])
        assert rc == 0
        assert "ratio" in capsys.readouterr().out


class TestParser:
    def test_no_command_exits(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestOracle:
    def test_build_and_query(self, er_file, tmp_path, capsys):
        pkl = tmp_path / "oracle.pkl"
        rc = main(["oracle", "build", er_file, str(pkl),
                   "--landmarks", "4", "--spot-check", "10"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "spot-check" in out and "wrote oracle" in out
        assert pkl.exists()

        rc = main(["oracle", "query", str(pkl), "0", "3", "0", "3",
                   "--k-nearest", "0", "--k", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "d(0, 3)" in out
        assert "1 hit(s)" in out  # the repeated pair hit the LRU
        assert "3-nearest of 0" in out

    def test_query_answers_match_oracle_api(self, er_file, tmp_path, capsys):
        import pickle

        from repro import io as gio

        pkl = tmp_path / "oracle.pkl"
        main(["oracle", "build", er_file, str(pkl)])
        capsys.readouterr()
        main(["oracle", "query", str(pkl), "1", "7"])
        printed = capsys.readouterr().out.splitlines()[0]
        with open(pkl, "rb") as fh:
            oracle = pickle.load(fh)
        want = oracle.query(1, 7)
        assert f"{want:.6g}" in printed
        # and the oracle serves the structure that was in the file
        g = gio.read_edge_list(er_file)
        assert set(oracle.csr.verts) == set(g.vertices())

    def test_degree_strategy_flag(self, er_file, tmp_path, capsys):
        pkl = tmp_path / "oracle.pkl"
        rc = main(["oracle", "build", er_file, str(pkl),
                   "--strategy", "degree", "--landmarks", "2"])
        assert rc == 0
        assert "strategy='degree'" in capsys.readouterr().out

    def test_unknown_vertex_exits(self, er_file, tmp_path, capsys):
        pkl = tmp_path / "oracle.pkl"
        main(["oracle", "build", er_file, str(pkl)])
        with pytest.raises(SystemExit, match="not a vertex"):
            main(["oracle", "query", str(pkl), "0", "zzz"])

    def test_odd_pair_list_exits(self, er_file, tmp_path):
        pkl = tmp_path / "oracle.pkl"
        main(["oracle", "build", er_file, str(pkl)])
        with pytest.raises(SystemExit, match="pairs"):
            main(["oracle", "query", str(pkl), "0"])

    def test_build_without_subcommand_exits(self):
        with pytest.raises(SystemExit):
            main(["oracle"])
