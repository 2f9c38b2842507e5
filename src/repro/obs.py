"""One way to read the system's counters: :class:`Histogram` and :func:`flatten`.

Every stats object (``ServiceStats``, ``CacheStats``, ``SchedulerStats``,
``AdmissionStats``, ``SupervisorStats``, ``RefreshTotals``,
``ScanStats``, ``TransportTally``) is a dataclass of plain counters that
its owner bumps on its own path; nothing here sits on the query path.
Reading them is one rule, :func:`flatten`, so every layout answers
"what is the service doing right now" with the same flat row
(:meth:`repro.serving.RankingService.snapshot`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import fields, is_dataclass

import numpy as np

from .errors import ConfigError

__all__ = ["Histogram", "flatten"]


class Histogram:
    """Exact ``count``/``total``/``min``/``max`` plus the last ``capacity`` values.

    The aggregates cover the whole stream; :meth:`quantile` reads the
    recent window only, so memory stays bounded however long the
    service runs.
    """

    def __init__(self, capacity: int = 512) -> None:
        if capacity < 1:
            raise ConfigError("capacity must be positive")
        self.count = 0
        self.total = 0
        self.min = None
        self.max = None
        self.recent: deque = deque(maxlen=capacity)

    def add(self, value) -> None:
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        self.recent.append(value)

    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """The q-quantile of the recent window (0.0 when empty)."""
        if not 0.0 <= q <= 1.0:
            raise ConfigError("q must lie in [0, 1]")
        if not self.recent:
            return 0.0
        # list() copies the window in one step, so a writer on another
        # thread cannot mutate it mid-read.
        return float(np.quantile(list(self.recent), q))


def flatten(parts: dict[str, object]) -> dict[str, float]:
    """Fold named stats objects into one ``str -> float`` row.

    A number becomes ``<part>``; a dataclass contributes each field not
    starting with ``_`` as ``<part>_<field>``; a dict contributes
    ``<part>_<key>`` per entry; a :class:`Histogram` becomes
    ``<part>_count/_mean/_p50/_p95/_p99/_max``.  The rules nest, so a
    dict field of a dataclass reads ``<part>_<field>_<key>``.  Two
    values landing on one key raise :class:`~repro.errors.ConfigError`.
    """
    row: dict[str, float] = {}
    for name, value in parts.items():
        _put(row, name, value)
    return row


def _put(row: dict[str, float], key: str, value) -> None:
    if isinstance(value, Histogram):
        value = {
            "count": value.count,
            "mean": value.mean(),
            "p50": value.quantile(0.50),
            "p95": value.quantile(0.95),
            "p99": value.quantile(0.99),
            "max": 0.0 if value.max is None else value.max,
        }
    elif is_dataclass(value):
        value = {
            f.name: getattr(value, f.name)
            for f in fields(value)
            if not f.name.startswith("_")
        }
    if isinstance(value, dict):
        for name, item in value.items():
            _put(row, f"{key}_{name}", item)
        return
    if key in row:
        raise ConfigError(f"two stats values share the key {key!r}")
    row[key] = float(value)
