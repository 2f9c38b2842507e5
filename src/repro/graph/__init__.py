"""Directed-graph substrate: CSR storage, builders, generators, I/O."""

from .analysis import (
    GraphSummary,
    power_law_exponent,
    reciprocity,
    summarize,
)
from .builder import GraphBuilder, from_edges, from_sorted_keys
from .digraph import DiGraph
from .generators import (
    chung_lu,
    complete_graph,
    cycle_graph,
    erdos_renyi,
    livejournal_like,
    preferential_attachment,
    rmat,
    star_graph,
    twitter_like,
)
from .io import read_edge_list
from .keys import sorted_unique

__all__ = [
    "DiGraph",
    "GraphBuilder",
    "from_edges",
    "from_sorted_keys",
    "sorted_unique",
    "erdos_renyi",
    "chung_lu",
    "rmat",
    "preferential_attachment",
    "twitter_like",
    "livejournal_like",
    "cycle_graph",
    "star_graph",
    "complete_graph",
    "read_edge_list",
    "GraphSummary",
    "summarize",
    "reciprocity",
    "power_law_exponent",
]
