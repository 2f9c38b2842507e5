"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_figure_args(self):
        args = build_parser().parse_args(["figure", "2", "--twitter-n", "500"])
        assert args.command == "figure"
        assert args.number == "2"
        assert args.twitter_n == 500

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.algorithm == "frogwild"
        assert args.ps == 1.0
        assert args.machines == 16

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "9"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_subcommands(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        assert (
            "{figure,run,info,ppr,track,faults,serve-bench,live-bench,"
            "traffic-bench,chaos-bench}"
        ) in capsys.readouterr().out


class TestInfoCommand:
    def test_synthetic_workload(self, capsys):
        assert main(["info", "--workload", "twitter", "--n", "400"]) == 0
        out = capsys.readouterr().out
        assert "num_vertices" in out
        assert "400" in out

    def test_edge_list_file(self, capsys, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n1 2\n2 0\n")
        assert main(["info", "--edge-list", str(path)]) == 0
        assert "num_vertices" in capsys.readouterr().out


class TestRunCommand:
    def test_frogwild_run(self, capsys):
        code = main([
            "run", "--workload", "twitter", "--n", "500",
            "--frogs", "800", "--iterations", "3", "--top-k", "5",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "frogwild" in out
        assert "top-5 vertices" in out

    def test_accuracy_flag(self, capsys):
        main([
            "run", "--workload", "twitter", "--n", "500",
            "--frogs", "800", "--accuracy", "--top-k", "10",
        ])
        out = capsys.readouterr().out
        assert "mass captured" in out

    def test_graphlab_run(self, capsys):
        code = main([
            "run", "--workload", "twitter", "--n", "500",
            "--algorithm", "graphlab", "--iterations", "2",
        ])
        assert code == 0
        assert "graphlab_pr" in capsys.readouterr().out

    def test_graphlab_exact_run(self, capsys):
        code = main([
            "run", "--workload", "twitter", "--n", "500",
            "--algorithm", "graphlab-exact",
        ])
        assert code == 0
        assert "tol" in capsys.readouterr().out


class TestFigureCommand:
    def test_tiny_figure8(self, capsys):
        code = main(["figure", "8", "--livejournal-n", "600"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Figure 8" in out
        assert "network_bytes" in out


class TestNewRunModes:
    def test_partitioner_flag(self, capsys):
        code = main([
            "run", "--workload", "twitter", "--n", "400",
            "--frogs", "500", "--partitioner", "hdrf", "--machines", "4",
        ])
        assert code == 0

    def test_bad_partitioner_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--partitioner", "magic"])


class TestFigureExtras:
    def test_save_json_and_csv(self, capsys, tmp_path):
        json_path = tmp_path / "fig.json"
        csv_path = tmp_path / "fig.csv"
        code = main([
            "figure", "8", "--livejournal-n", "600",
            "--save-json", str(json_path),
            "--save-csv", str(csv_path),
        ])
        assert code == 0
        assert json_path.exists()
        assert csv_path.exists()

    def test_saved_json_loads_back(self, capsys, tmp_path):
        from repro.experiments import load_figure_json

        json_path = tmp_path / "fig.json"
        main([
            "figure", "8", "--livejournal-n", "600",
            "--save-json", str(json_path),
        ])
        figure = load_figure_json(json_path)
        assert figure.figure_id == "8"
        assert figure.rows


class TestTrackCommand:
    def test_track_run(self, capsys):
        code = main([
            "track", "--n", "500", "--k", "5", "--ticks", "2",
            "--machines", "4", "--frogs", "1000",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "tracking under churn" in out
        assert "list stability" in out


class TestFaultsCommand:
    def test_faults_run(self, capsys):
        code = main([
            "faults", "--n", "500", "--crash", "0", "--drop", "0.1",
            "--machines", "4", "--frogs", "1000", "--top-k", "5",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "crashed machines      : [0]" in out
        assert "mass captured" in out

    def test_no_faults_run(self, capsys):
        code = main([
            "faults", "--n", "500", "--machines", "4", "--frogs", "800",
        ])
        assert code == 0
        assert "none" in capsys.readouterr().out


class TestPprCommand:
    def test_ppr_run(self, capsys):
        code = main([
            "ppr", "7", "42",
            "--workload", "twitter", "--n", "500",
            "--frogs", "2000", "--top-k", "5",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "personalized PageRank for seeds [7, 42]" in out
        assert "#  1" in out or "# 1" in out

    def test_ppr_parser(self):
        args = build_parser().parse_args(["ppr", "3", "--ps", "0.5"])
        assert args.seeds == [3]
        assert args.ps == 0.5
