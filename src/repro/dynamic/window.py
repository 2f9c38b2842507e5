"""Sliding-window activity graph.

The paper's OSN application rests on reference [19], which ranks users
on a *mixture of connectivity and activity graphs* — and the activity
graph is "highly dynamic": an edge exists while the interaction it
represents is recent.  :class:`ActivityWindow` models exactly that: a
stream of timestamped interactions, an edge alive while at least one
interaction between its endpoints is younger than the horizon.

The window emits :class:`~repro.dynamic.GraphDelta` batches describing
presence *transitions* (edge appeared / last interaction expired); the
consumer owns the graph and applies them, so a
:class:`~repro.live.LiveRankingService` consumes the stream directly::

    window = ActivityWindow(num_vertices=n, horizon=3600.0)
    live = DynamicDiGraph(n)
    service = LiveRankingService(live, ...)
    for timestamp, batch in feed:
        service.refresh(window.observe(batch, timestamp))
        top = service.query(np.arange(n), k=10).vertices
"""

from __future__ import annotations

from collections import deque

import numpy as np

from ..errors import ConfigError, GraphError
from .graph import GraphDelta, _as_edge_array

__all__ = ["ActivityWindow"]


class ActivityWindow:
    """Multiset of timestamped interactions with a sliding horizon.

    Parameters
    ----------
    num_vertices:
        Fixed user universe.
    horizon:
        Age (in the caller's time unit) past which an interaction no
        longer supports its edge.
    """

    def __init__(self, num_vertices: int, horizon: float) -> None:
        if num_vertices < 1:
            raise GraphError("num_vertices must be positive")
        if not np.isfinite(horizon) or horizon <= 0:
            raise ConfigError(f"horizon must be positive and finite, got {horizon}")
        self._n = int(num_vertices)
        self.horizon = float(horizon)
        # Interaction multiset: edge key -> live interaction count.
        self._counts: dict[int, int] = {}
        # FIFO of (timestamp, keys array) batches awaiting expiry.
        self._events: deque[tuple[float, np.ndarray]] = deque()
        self._clock = -np.inf

    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return self._n

    @property
    def clock(self) -> float:
        """Timestamp of the latest observation."""
        return self._clock

    # ------------------------------------------------------------------
    def observe(
        self,
        edges: np.ndarray | list[tuple[int, int]],
        timestamp: float,
    ) -> GraphDelta:
        """Ingest one interaction batch and advance time.

        Evicts every interaction older than ``timestamp - horizon``,
        then records the batch.  Returns the presence-transition delta
        for the caller to apply (e.g. via ``LiveRankingService.refresh``);
        the window itself only tracks interaction counts.  A NaN stamp
        would pass the ordering check and never expire, so non-finite
        stamps are refused.
        """
        if not np.isfinite(timestamp):
            raise ConfigError(f"timestamp must be finite, got {timestamp}")
        if timestamp < self._clock:
            raise ConfigError(
                f"timestamps must be non-decreasing "
                f"(got {timestamp} after {self._clock})"
            )
        self._clock = timestamp

        appeared = self._ingest(edges, timestamp)
        expired = self._evict(timestamp - self.horizon)
        # An edge refreshed in this very batch must not expire.
        expired -= appeared
        still_present = {
            key for key in expired if self._counts.get(key, 0) > 0
        }
        expired -= still_present

        return GraphDelta(
            added=self._keys_to_edges(appeared),
            removed=self._keys_to_edges(expired),
        )

    def current_edges(self) -> np.ndarray:
        """Edges currently alive in the window, as ``(m, 2)`` rows."""
        return self._keys_to_edges(set(self._counts))

    # ------------------------------------------------------------------
    def _ingest(self, edges, timestamp: float) -> set[int]:
        arr = _as_edge_array(edges)
        if arr.size and arr.max() >= self._n:
            raise GraphError("edge endpoint out of range")
        keys = arr[:, 0] * self._n + arr[:, 1] if arr.size else np.empty(
            0, dtype=np.int64
        )
        appeared: set[int] = set()
        for key in keys.tolist():
            before = self._counts.get(key, 0)
            self._counts[key] = before + 1
            if before == 0:
                appeared.add(key)
        if keys.size:
            self._events.append((timestamp, keys))
        return appeared

    def _evict(self, cutoff: float) -> set[int]:
        """Drop interactions with ``timestamp <= cutoff``; returns keys
        whose live count reached zero."""
        expired: set[int] = set()
        while self._events and self._events[0][0] <= cutoff:
            _, keys = self._events.popleft()
            for key in keys.tolist():
                remaining = self._counts[key] - 1
                if remaining == 0:
                    del self._counts[key]
                    expired.add(key)
                else:
                    self._counts[key] = remaining
        return expired

    def _keys_to_edges(self, keys: set[int]) -> np.ndarray:
        if not keys:
            return np.empty((0, 2), dtype=np.int64)
        arr = np.fromiter(keys, dtype=np.int64, count=len(keys))
        return np.column_stack([arr // self._n, arr % self._n])
