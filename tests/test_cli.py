"""Tests for the command-line interface."""

import subprocess
import sys
from pathlib import Path

import pytest

import repro.cli
from repro.cli import build_parser, main

DATA = Path(__file__).parent / "data"


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
            "{figure,run,info,ppr,track,faults}" in capsys.readouterr().out
        )


class TestBadInput:
    """A value the library rejects, a malformed edge list or a missing
    file is one ``frogwild <command>: error:`` line and exit code 2,
    the way argparse reports a bad flag — never a traceback."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["faults", "--crash", "9", "--machines", "4", "--n", "300",
              "--frogs", "300"],
             "frogwild faults: error: crash targets machine 9 but the "
             "cluster has 4"),
            (["ppr", "999999", "--n", "300"],
             "frogwild ppr: error: seed ids out of range"),
            (["run", "--ps", "1.5", "--n", "300"],
             "frogwild run: error: ps must lie in [0, 1], got 1.5"),
            (["faults", "--top-k", "0", "--n", "300", "--frogs", "300"],
             "frogwild faults: error: k must be positive"),
            (["run", "--algorithm", "graphlab", "--iterations", "201",
              "--n", "300"],
             "frogwild run: error: iterations=201 exceeds "
             "max_supersteps=200"),
            (["run", "--seed", "-1", "--n", "300"],
             "frogwild run: error: seed must be non-negative, got -1"),
            (["run", "--n", "500", "--machines", "0"],
             "frogwild run: error: num_machines must be positive"),
            (["ppr", "1", "2", "--n", "500", "--machines", "0"],
             "frogwild ppr: error: num_machines must be positive"),
            (["run", "--n", "300", "--frogs", "0"],
             "frogwild run: error: num_frogs must be positive"),
            (["ppr", "1", "--n", "300", "--frogs", "0"],
             "frogwild ppr: error: num_frogs must be positive"),
            (["track", "--n", "300", "--frogs", "0"],
             "frogwild track: error: num_frogs must be positive"),
            (["faults", "--n", "300", "--frogs", "0"],
             "frogwild faults: error: num_frogs must be positive"),
            (["track", "--n", "300", "--ticks", "-1"],
             "frogwild track: error: ticks must be non-negative, got -1"),
            (["run", "--n", "300", "--top-k", "1000", "--frogs", "500"],
             "frogwild run: error: k=1000 exceeds the graph's 300 vertices"),
            (["ppr", "1", "--n", "300", "--top-k", "301"],
             "frogwild ppr: error: k=301 exceeds the graph's 300 vertices"),
            (["track", "--n", "300", "--k", "301"],
             "frogwild track: error: k=301 exceeds the graph's 300 vertices"),
            (["run", "--n", "300", "--top-k", "0"],
             "frogwild run: error: k must be positive"),
        ],
        ids=["crash-machine", "ppr-seed", "run-ps", "faults-top-k",
             "graphlab-iterations", "run-negative-seed", "run-no-machines",
             "ppr-no-machines", "run-no-frogs", "ppr-no-frogs",
             "track-no-frogs", "faults-no-frogs", "track-negative-ticks",
             "run-top-k-past-n", "ppr-top-k-past-n", "track-k-past-n",
             "run-no-top-k"],
    )
    def test_config_error_is_one_line(self, argv, message, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == message + "\n"
        assert "Traceback" not in captured.err

    def test_missing_edge_list(self, capsys, tmp_path):
        missing = tmp_path / "nope.txt"
        assert main(["info", "--edge-list", str(missing)]) == 2
        assert capsys.readouterr().err == (
            f"frogwild info: error: No such file or directory: {missing}\n"
        )

    def test_malformed_edge_list(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1\nfoo bar\n")
        assert main(["run", "--edge-list", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"frogwild run: error: {path}:2: non-integer vertex id in "
            "'foo bar'\n"
        )

    def test_other_exceptions_still_propagate(self, monkeypatch):
        def broken(graph):
            raise ValueError("a bug, not bad input")

        monkeypatch.setattr(repro.cli, "summarize", broken)
        with pytest.raises(ValueError, match="a bug"):
            main(["info", "--n", "200"])

    def test_module_entry_point_prints_no_traceback(self, tmp_path):
        src = Path(__file__).resolve().parent.parent / "src"
        result = subprocess.run(
            [sys.executable, "-m", "repro", "info", "--edge-list",
             str(tmp_path / "nope.txt")],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin"},
        )
        assert result.returncode == 2
        assert result.stderr.startswith("frogwild info: error: ")
        assert "Traceback" not in result.stderr


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

    def test_churn_columns_match_the_pin(self, capsys):
        """``track`` keeps its columns, and the churn stream they show
        (``edges``, ``+edges``, ``-edges``) depends only on the churn
        seed.  ``tests/data/track_1d70273.txt`` is this command's output
        at commit 1d70273; the other columns (list overlap, ingress,
        bytes, simulated time) belong to the ranker and may move."""
        argv = ["track", "--n", "600", "--k", "5", "--ticks", "3",
                "--machines", "4", "--frogs", "2000", "--seed", "0"]
        assert main(argv) == 0
        out = capsys.readouterr().out.splitlines()
        pin = (DATA / "track_1d70273.txt").read_text().splitlines()
        # Title, header, rule, then one row per tick (the initial build
        # is tick 0).
        assert out[:3] == pin[:3]
        rows, pinned = out[3:7], pin[3:7]
        assert [r.split()[:4] for r in rows] == [
            p.split()[:4] for p in pinned
        ]
        assert [len(r.split()) for r in rows] == [8] * 4
        assert out[7].startswith("list stability")


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
