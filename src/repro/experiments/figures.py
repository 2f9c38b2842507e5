"""Reproduction of every figure in the paper's evaluation (Section 3).

Each ``figure*`` function re-runs the corresponding experiment on the
simulated cluster and returns a :class:`FigureResult` whose rows carry
the exact series the paper plots.  Parameters default to the scaled
workloads of :mod:`repro.experiments.workloads`; passing smaller graphs
or fewer sweep points gives quick versions for tests.

The paper has no numbered tables — Figures 1–8 are the whole
evaluation.  Each figure's shape criteria are written in the module
docstring of its ``benchmarks/bench_figure<N>.py``, which asserts them
and writes the measured series to ``benchmarks/results/``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .harness import ExperimentHarness, ExperimentRow
from .reporting import format_rows
from .workloads import Workload, livejournal_workload, twitter_workload

__all__ = [
    "FigureResult",
    "figure1",
    "figure2",
    "figure3",
    "figure4",
    "figure5",
    "figure6",
    "figure7",
    "figure8",
    "ALL_FIGURES",
]

_PS_SWEEP = (1.0, 0.7, 0.4, 0.1)


@dataclass
class FigureResult:
    """Rows backing one paper figure, plus context for reporting."""

    figure_id: str
    title: str
    rows: list[ExperimentRow] = field(default_factory=list)
    notes: str = ""

    def to_text(self) -> str:
        text = format_rows(
            self.rows, title=f"Figure {self.figure_id}: {self.title}"
        )
        if self.notes:
            text += f"\n  note: {self.notes}"
        return text

    def series(self, algorithm_prefix: str) -> list[ExperimentRow]:
        """Rows whose algorithm label starts with the given prefix."""
        return [
            row for row in self.rows if row.algorithm.startswith(algorithm_prefix)
        ]


def _default_twitter(workload: Workload | None) -> Workload:
    return workload if workload is not None else twitter_workload()


def _default_livejournal(workload: Workload | None) -> Workload:
    return workload if workload is not None else livejournal_workload()


def figure1(
    workload: Workload | None = None,
    machine_counts: tuple[int, ...] = (12, 16, 20, 24),
    ps_values: tuple[float, ...] = _PS_SWEEP,
    iterations: int = 4,
    seed: int = 0,
) -> FigureResult:
    """Figures 1a–1d: time/iteration, total time, network, CPU vs
    cluster size (Twitter, 800K-equivalent frogs, 4 iterations).

    One row per (cluster size, algorithm); the four sub-figures read
    different columns of the same rows.
    """
    workload = _default_twitter(workload)
    harness = ExperimentHarness(workload, seed=seed)
    result = FigureResult(
        "1",
        "PageRank performance vs number of nodes (Twitter-like)",
        notes=(
            "1a: time_per_iteration_s; 1b: total_time_s; "
            "1c: network_bytes; 1d: cpu_seconds"
        ),
    )
    for machines in machine_counts:
        result.rows.append(
            harness.run_graphlab(num_machines=machines, tolerance=1e-6)
        )
        for its in (2, 1):
            result.rows.append(
                harness.run_graphlab(iterations=its, num_machines=machines)
            )
        for ps in ps_values:
            result.rows.append(
                harness.run_frogwild(
                    num_machines=machines,
                    ps=ps,
                    iterations=iterations,
                    seed=seed,
                )
            )
    return result


def figure2(
    workload: Workload | None = None,
    ks: tuple[int, ...] = (30, 100, 300, 1000),
    ps_values: tuple[float, ...] = _PS_SWEEP,
    num_machines: int = 16,
    iterations: int = 4,
    seed: int = 0,
) -> FigureResult:
    """Figures 2a/2b: mass captured and exact identification vs k
    (Twitter, 16 nodes)."""
    workload = _default_twitter(workload)
    harness = ExperimentHarness(workload, num_machines=num_machines, seed=seed)
    result = FigureResult(
        "2",
        "Approximation accuracy vs k (Twitter-like, 16 nodes)",
        notes="2a: mass@k columns; 2b: exact@k columns",
    )
    for its in (2, 1):
        result.rows.append(harness.run_graphlab(iterations=its, ks=ks))
    for ps in ps_values:
        result.rows.append(
            harness.run_frogwild(ks=ks, ps=ps, iterations=iterations, seed=seed)
        )
    return result


def figure3(
    workload: Workload | None = None,
    num_machines: int = 24,
    iteration_values: tuple[int, ...] = (3, 4, 5),
    ps_values: tuple[float, ...] = _PS_SWEEP,
    k: int = 100,
    seed: int = 0,
) -> FigureResult:
    """Figures 3a/3b: accuracy (mu_100) vs total time and vs network
    bytes (Twitter, 24 nodes); FrogWild iters x ps grid vs GraphLab PR."""
    workload = _default_twitter(workload)
    harness = ExperimentHarness(workload, num_machines=num_machines, seed=seed)
    result = FigureResult(
        "3",
        "Accuracy vs total time / network (Twitter-like, 24 nodes)",
        notes="3a: (total_time_s, mass@k); 3b: (network_bytes, mass@k)",
    )
    result.rows.append(harness.run_graphlab(ks=(k,), tolerance=1e-6))
    for its in (2, 1):
        result.rows.append(harness.run_graphlab(iterations=its, ks=(k,)))
    for its in iteration_values:
        for ps in ps_values:
            result.rows.append(
                harness.run_frogwild(ks=(k,), ps=ps, iterations=its, seed=seed)
            )
    return result


def figure4(
    workload: Workload | None = None,
    num_machines: int = 24,
    seed: int = 0,
) -> FigureResult:
    """Figure 4: the Figure 3a scatter with circle area proportional to
    network bytes — identical data, bubble-size column included."""
    result = figure3(workload, num_machines=num_machines, seed=seed)
    return FigureResult(
        "4",
        "Accuracy vs time, bubble area = network bytes (Twitter-like)",
        rows=result.rows,
        notes="plot (total_time_s, mass@100) with size network_bytes",
    )


def figure5(
    workload: Workload | None = None,
    num_machines: int = 12,
    keep_probabilities: tuple[float, ...] = (0.4, 0.7, 1.0),
    ps_values: tuple[float, ...] = (0.4, 0.7, 1.0),
    iterations: int = 4,
    k: int = 100,
    seed: int = 0,
) -> FigureResult:
    """Figure 5: FrogWild vs the uniform-sparsification baseline
    (GraphLab PR, 2 iterations on an edge-deleted graph; q = 1 - r)."""
    workload = _default_twitter(workload)
    harness = ExperimentHarness(workload, num_machines=num_machines, seed=seed)
    result = FigureResult(
        "5",
        "FrogWild vs uniform sparsification (Twitter-like, 12 nodes)",
        notes="plot (total_time_s, mass@100) per q / ps",
    )
    for q in keep_probabilities:
        result.rows.append(
            harness.run_sparsified(q, iterations=2, ks=(k,))
        )
    for ps in ps_values:
        result.rows.append(
            harness.run_frogwild(ks=(k,), ps=ps, iterations=iterations, seed=seed)
        )
    return result


def figure6(
    workload: Workload | None = None,
    paper_frog_counts: tuple[int, ...] = (
        400_000,
        600_000,
        800_000,
        1_000_000,
        1_200_000,
        1_400_000,
    ),
    iteration_values: tuple[int, ...] = (2, 3, 4, 5, 6),
    ps_values: tuple[float, ...] = _PS_SWEEP,
    k: int = 100,
    seed: int = 0,
) -> FigureResult:
    """Figures 6a–6d: accuracy and total time vs number of walkers (at 4
    iterations) and vs iterations (at 800K-equivalent walkers), on
    LiveJournal with 20 nodes, for each ps.

    Paper frog counts are translated through
    :meth:`Workload.frogs_scaled`; rows carry both in ``params``.
    """
    workload = _default_livejournal(workload)
    harness = ExperimentHarness(workload, seed=seed)
    result = FigureResult(
        "6",
        "Walker-count and iteration sweeps (LiveJournal-like, 20 nodes)",
        notes=(
            "6a/6c: rows with iterations=4 grouped by num_frogs; "
            "6b/6d: rows with default frogs grouped by iterations"
        ),
    )
    result.rows.append(harness.run_graphlab(ks=(k,), tolerance=1e-6))
    for its in (2, 1):
        result.rows.append(harness.run_graphlab(iterations=its, ks=(k,)))
    for ps in ps_values:
        for paper_frogs in paper_frog_counts:
            result.rows.append(
                harness.run_frogwild(
                    ks=(k,),
                    ps=ps,
                    iterations=4,
                    num_frogs=workload.frogs_scaled(paper_frogs),
                    seed=seed,
                )
            )
        for its in iteration_values:
            result.rows.append(
                harness.run_frogwild(ks=(k,), ps=ps, iterations=its, seed=seed)
            )
    return result


def figure7(
    workload: Workload | None = None,
    num_machines: int = 20,
    iteration_values: tuple[int, ...] = (3, 4, 5),
    ps_values: tuple[float, ...] = _PS_SWEEP,
    k: int = 100,
    seed: int = 0,
) -> FigureResult:
    """Figures 7a/7b: accuracy vs total time / network bytes on
    LiveJournal with 20 nodes (the Figure 3 analysis on the second
    dataset)."""
    workload = _default_livejournal(workload)
    result = figure3(
        workload,
        num_machines=num_machines,
        iteration_values=iteration_values,
        ps_values=ps_values,
        k=k,
        seed=seed,
    )
    return FigureResult(
        "7",
        "Accuracy vs total time / network (LiveJournal-like, 20 nodes)",
        rows=result.rows,
        notes="7a: (total_time_s, mass@100); 7b: (network_bytes, mass@100)",
    )


def figure8(
    workload: Workload | None = None,
    paper_frog_counts: tuple[int, ...] = (
        400_000,
        600_000,
        800_000,
        1_000_000,
        1_200_000,
        1_400_000,
    ),
    iterations: int = 4,
    seed: int = 0,
) -> FigureResult:
    """Figure 8: network bytes vs number of walkers (ps=1, LiveJournal)
    — the linear-in-N traffic claim."""
    workload = _default_livejournal(workload)
    harness = ExperimentHarness(workload, seed=seed)
    result = FigureResult(
        "8",
        "Network usage vs initial walkers (LiveJournal-like, ps=1)",
        notes="plot (num_frogs, network_bytes); expect linear growth",
    )
    for paper_frogs in paper_frog_counts:
        result.rows.append(
            harness.run_frogwild(
                ps=1.0,
                iterations=iterations,
                num_frogs=workload.frogs_scaled(paper_frogs),
                seed=seed,
            )
        )
    return result


#: Registry used by the CLI.
ALL_FIGURES = {
    "1": figure1,
    "2": figure2,
    "3": figure3,
    "4": figure4,
    "5": figure5,
    "6": figure6,
    "7": figure7,
    "8": figure8,
}
