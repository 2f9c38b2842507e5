"""Simulated GAS/BSP graph engine with byte-exact traffic accounting."""

from .breakdown import PhaseBreakdown, traffic_breakdown
from .bsp import BSPEngine
from .program import ApplyResult, BulkVertexProgram
from .state import ClusterState, build_cluster
from .stats import CostLedger, RunReport, apportion_records
from .sync import MirrorSynchronizer, count_marks_by_key, sync_pair_records

__all__ = [
    "ApplyResult",
    "BulkVertexProgram",
    "BSPEngine",
    "ClusterState",
    "build_cluster",
    "CostLedger",
    "apportion_records",
    "RunReport",
    "MirrorSynchronizer",
    "count_marks_by_key",
    "sync_pair_records",
    "PhaseBreakdown",
    "traffic_breakdown",
]
