"""The cost/accuracy front of a set of experiment rows.

The figure functions cover the paper's exact grids; this summarizes
any set of their rows (the Figure 3/7 trade-off clouds) by the rows no
other row beats on both cost and accuracy.
"""

from __future__ import annotations

from collections.abc import Sequence

from ..errors import ExperimentError
from .harness import ExperimentRow

__all__ = ["pareto_front"]


def pareto_front(
    rows: Sequence[ExperimentRow],
    cost_attr: str = "total_time_s",
    k: int = 100,
) -> list[ExperimentRow]:
    """Rows not dominated in (lower cost, higher mass@k).

    Useful for summarizing the Figure 3/7 trade-off clouds: a row is on
    the front when no other row is both cheaper and more accurate.
    """
    front = []
    for row in rows:
        cost = getattr(row, cost_attr)
        acc = row.mass_captured.get(k)
        if acc is None:
            raise ExperimentError(f"row lacks mass@{k}: {row.algorithm}")
        dominated = any(
            getattr(other, cost_attr) <= cost
            and other.mass_captured.get(k, -1.0) >= acc
            and (
                getattr(other, cost_attr) < cost
                or other.mass_captured.get(k, -1.0) > acc
            )
            for other in rows
        )
        if not dominated:
            front.append(row)
    front.sort(key=lambda row: getattr(row, cost_attr))
    return front
