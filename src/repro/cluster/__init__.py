"""Simulated PowerGraph cluster: machines, network, vertex-cuts, time."""

from .costmodel import CostModel, SimulatedClock, SuperstepCost
from .machine import Machine, MachineGroup
from .network import MessageSizeModel, NetworkFabric, TrafficSnapshot
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
    "Machine",
    "MachineGroup",
    "MessageSizeModel",
    "NetworkFabric",
    "TrafficSnapshot",
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
    "SimulatedClock",
]
