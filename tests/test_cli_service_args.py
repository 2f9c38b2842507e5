"""The shared service flags: one spelling across every bench command.

``add_service_args`` installs ``--machines`` / ``--backend`` /
``--store`` / ``--store-dir`` identically on
serve-bench, live-bench, traffic-bench and chaos-bench, and
``service_from_args`` / ``store_from_args`` resolve them identically.
The golden ``--help`` snapshots under ``tests/data/`` pin the exact
flag surface (rendered at COLUMNS=80) so a drive-by flag edit on one
command can't silently fork the CLI contract.

Regenerate after an intentional change with::

    for c in serve-bench live-bench traffic-bench chaos-bench; do
      COLUMNS=80 python -m repro $c --help > tests/data/help_$c.txt
    done
"""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, store_from_args
from repro.graph import twitter_like

BENCHES = ["serve-bench", "live-bench", "traffic-bench", "chaos-bench"]
DATA = Path(__file__).parent / "data"
SHARED_FLAGS = ("--machines", "--backend", "--store", "--store-dir")


class TestGoldenHelp:
    @pytest.mark.parametrize("command", BENCHES)
    def test_help_matches_snapshot(self, command):
        result = subprocess.run(
            [sys.executable, "-m", "repro", command, "--help"],
            capture_output=True,
            text=True,
            env={"COLUMNS": "80", "PYTHONPATH": "src",
                 "PATH": "/usr/bin:/bin"},
            cwd=Path(__file__).parent.parent,
        )
        assert result.returncode == 0, result.stderr
        golden = (DATA / f"help_{command}.txt").read_text()
        assert result.stdout == golden

    @pytest.mark.parametrize("command", BENCHES)
    def test_shared_flags_present_everywhere(self, command):
        golden = (DATA / f"help_{command}.txt").read_text()
        for flag in SHARED_FLAGS:
            assert flag in golden, (command, flag)

    def test_shared_flag_help_is_identical_across_commands(self):
        parser = build_parser()
        subparsers = next(
            a for a in parser._actions
            if isinstance(a, type(parser._subparsers._group_actions[0]))
        )
        texts = {}
        for command in BENCHES:
            sub = subparsers.choices[command]
            for action in sub._actions:
                for flag in SHARED_FLAGS:
                    if flag in action.option_strings:
                        texts.setdefault(flag, set()).add(
                            (action.help, tuple(action.choices or ()))
                        )
        for flag, variants in texts.items():
            assert len(variants) == 1, (flag, variants)


class TestStoreFromArgs:
    def test_ram_default_resolves_to_none(self):
        args = build_parser().parse_args(["serve-bench"])
        assert args.store == "ram"
        assert store_from_args(args, None) is None

    def test_segment_store_created_then_reopened(self, tmp_path):
        graph = twitter_like(n=120, seed=2)
        directory = tmp_path / "cli-seg"
        args = build_parser().parse_args([
            "serve-bench", "--store", "segment",
            "--store-dir", str(directory), "--machines", "4",
        ])
        created = store_from_args(args, graph)
        assert created.num_edges == graph.num_edges
        reopened = store_from_args(args, graph)
        assert reopened.directory == created.directory
        assert reopened.version == created.version

    def test_defaults_differ_only_where_documented(self):
        parser = build_parser()
        serve = parser.parse_args(["serve-bench"])
        live = parser.parse_args(["live-bench"])
        chaos = parser.parse_args(["chaos-bench"])
        # Fleet sizes are per-command; tier/selection defaults are not.
        assert serve.machines == 16 and live.machines == 8
        for args in (serve, live, chaos):
            assert args.store == "ram"
        assert serve.backend == "auto"
        assert chaos.backend == "process"
