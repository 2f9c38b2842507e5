"""Simulated GAS/BSP graph engine with byte-exact traffic accounting."""

from .breakdown import PhaseBreakdown, traffic_breakdown
from .bsp import BSPEngine
from .program import ApplyResult, BulkVertexProgram
from .state import ClusterState, build_cluster
from .stats import CostLedger, RunReport
from .sync import count_marks_by_key, mirror_matrix, sync_coins

__all__ = [
    "ApplyResult",
    "BulkVertexProgram",
    "BSPEngine",
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
