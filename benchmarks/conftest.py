"""Shared fixtures and helpers for the figure benchmarks.

Every ``bench_figure*.py`` module reproduces one figure of the paper at
the calibrated workload scale, asserts the figure's *shape criteria*
(written in that module's docstring), and writes the numeric series to
``benchmarks/results/figure<N>.txt`` for inspection.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.experiments import (
    FigureResult,
    livejournal_workload,
    twitter_workload,
)

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def tw_workload():
    """Full-scale Twitter-like workload (50k vertices, 24k frogs)."""
    return twitter_workload()


@pytest.fixture(scope="session")
def lj_workload():
    """Full-scale LiveJournal-like workload (20k vertices, 24k frogs)."""
    return livejournal_workload()


def run_once(benchmark, fn):
    """Benchmark a figure reproduction exactly once (they are minutes of
    work at paper-shape scale; statistical repetition adds nothing)."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)


def write_figure_text(result: FigureResult) -> Path:
    """Persist a figure's series for the experiment log."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"figure{result.figure_id}.txt"
    path.write_text(result.to_text() + "\n", encoding="utf-8")
    return path


def by_algorithm(result: FigureResult, label: str, machines: int | None = None):
    """First row matching an exact algorithm label (and cluster size)."""
    for row in result.rows:
        if row.algorithm == label and (
            machines is None or row.num_machines == machines
        ):
            return row
    raise AssertionError(f"no row {label!r} (machines={machines})")
