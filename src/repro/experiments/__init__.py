"""Per-figure reproduction harness for the paper's evaluation."""

from .figures import (
    ALL_FIGURES,
    FigureResult,
    figure1,
    figure2,
    figure3,
    figure4,
    figure5,
    figure6,
    figure7,
    figure8,
)
from .harness import ExperimentHarness, ExperimentRow
from .persistence import (
    load_figure_json,
    load_rows_json,
    row_from_dict,
    row_to_dict,
    save_figure_json,
    save_rows_csv,
    save_rows_json,
)
from .reporting import format_rows, format_table, format_value
from .sweep import pareto_front
from .workloads import (
    PAPER_FROGS,
    PAPER_LIVEJOURNAL_VERTICES,
    PAPER_TWITTER_VERTICES,
    Workload,
    livejournal_workload,
    rmat_workload,
    twitter_workload,
)

__all__ = [
    "Workload",
    "twitter_workload",
    "livejournal_workload",
    "rmat_workload",
    "PAPER_FROGS",
    "PAPER_TWITTER_VERTICES",
    "PAPER_LIVEJOURNAL_VERTICES",
    "ExperimentHarness",
    "ExperimentRow",
    "pareto_front",
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
    "format_table",
    "format_rows",
    "format_value",
    "row_to_dict",
    "row_from_dict",
    "save_rows_json",
    "load_rows_json",
    "save_figure_json",
    "load_figure_json",
    "save_rows_csv",
]
