"""Simulated PowerGraph cluster: vertex-cuts, replication, wire sizes,
the cost model and the process transport."""

from .costmodel import CostModel, SuperstepCost
from .network import MessageSizeModel
from .partition import (
    EdgePartition,
    GridVertexCut,
    HdrfVertexCut,
    ObliviousVertexCut,
    Partitioner,
    RandomVertexCut,
    StableHashVertexCut,
    grid_shape,
    make_partitioner,
    stable_hash_machines,
)
from .replication import ReplicationTable
from .shared import ArenaSpec, SharedArena
from .transport import RecordChannel, TransportTally, WireCodec

__all__ = [
    "MessageSizeModel",
    "EdgePartition",
    "Partitioner",
    "RandomVertexCut",
    "ObliviousVertexCut",
    "GridVertexCut",
    "HdrfVertexCut",
    "StableHashVertexCut",
    "stable_hash_machines",
    "grid_shape",
    "make_partitioner",
    "ReplicationTable",
    "ArenaSpec",
    "SharedArena",
    "WireCodec",
    "RecordChannel",
    "TransportTally",
    "CostModel",
    "SuperstepCost",
]
