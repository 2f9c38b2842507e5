"""The public surface: every exported name resolves, and the command
line rejects the subcommands and flags that no longer exist."""

import importlib

import pytest

from repro.cli import build_parser

PACKAGES = (
    "repro",
    "repro.cluster",
    "repro.core",
    "repro.core.kernels",
    "repro.dynamic",
    "repro.engine",
    "repro.experiments",
    "repro.faults",
    "repro.graph",
    "repro.live",
    "repro.metrics",
    "repro.pagerank",
    "repro.serving",
    "repro.store",
    "repro.theory",
    "repro.traffic",
)


@pytest.mark.parametrize("package", PACKAGES)
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    exported = module.__all__
    assert len(exported) == len(set(exported)), "duplicate __all__ entries"
    missing = [name for name in exported if not hasattr(module, name)]
    assert missing == []


@pytest.mark.parametrize(
    "argv",
    [
        ["adaptive", "--k", "10"],
        ["chart", "fig.json"],
        ["figure", "8", "--render-x", "num_frogs"],
        ["figure", "8", "--render-y", "network_bytes"],
        ["figure", "8", "--kind", "line"],
        ["figure", "8", "--log-x"],
        ["figure", "8", "--log-y"],
        ["run", "--algorithm", "async"],
        ["serve-bench"],
        ["live-bench"],
        ["traffic-bench", "--smoke"],
        ["chaos-bench", "--smoke"],
    ],
    ids=["adaptive", "chart", "render-x", "render-y", "kind", "log-x",
         "log-y", "run-async", "serve-bench", "live-bench", "traffic-bench",
         "chaos-bench"],
)
def test_removed_cli_surface_is_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        build_parser().parse_args(argv)
    assert exit_info.value.code == 2
    assert "error:" in capsys.readouterr().err


def test_cli_exports_only_its_entry_points():
    import repro.cli

    assert repro.cli.__all__ == ["main", "build_parser"]
    for name in ("add_service_args", "service_from_args", "store_from_args"):
        assert not hasattr(repro.cli, name), name


def test_perf_records_are_gone():
    import repro.experiments

    for name in ("record_perf", "load_perf", "default_perf_path"):
        assert not hasattr(repro.experiments, name), name
    with pytest.raises(ImportError):
        importlib.import_module("repro.experiments.perf")


def test_traffic_harness_has_one_driver():
    from repro.traffic import TrafficHarness, TrafficRunResult

    assert not hasattr(TrafficHarness, "run_threaded")
    assert "chaos_fired" not in TrafficRunResult.__dataclass_fields__
