"""The simulated cluster: state, its one bill and FrogWild's sync coins.

FrogWild (:mod:`repro.core`) and the GraphLab PR baseline
(:mod:`repro.pagerank.graphlab_pr`) each drive their own supersteps on it.
"""

from .breakdown import PhaseBreakdown, traffic_breakdown
from .state import ClusterState, build_cluster
from .stats import CostLedger, RunReport
from .sync import count_marks_by_key, mirror_matrix, sync_coins

__all__ = [
    "ClusterState",
    "build_cluster",
    "CostLedger",
    "RunReport",
    "count_marks_by_key",
    "mirror_matrix",
    "sync_coins",
    "PhaseBreakdown",
    "traffic_breakdown",
]
