"""Dynamic graphs: a mutable edge set and the deltas that churn it.

The paper's motivating OSN scenario (Section 1): the graph changes
constantly and the top-k PageRank list must be kept fresh with a fast
approximation rather than recomputed exactly.  This package is the
churn side of that scenario — :class:`ChurnGenerator` and
:class:`ActivityWindow` produce :class:`GraphDelta` batches for a
:class:`DynamicDiGraph` — and :class:`~repro.live.LiveRankingService`
is the ranking side: it applies each delta in ``refresh`` and serves
the fresh top-k.
"""

from .churn import ChurnGenerator
from .graph import DynamicDiGraph, GraphDelta
from .window import ActivityWindow

__all__ = [
    "DynamicDiGraph",
    "GraphDelta",
    "ChurnGenerator",
    "ActivityWindow",
]
