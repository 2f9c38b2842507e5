"""TTL + LRU result cache for the ranking service.

Completed PageRank estimates are immutable and cheap to keep (their
``(id, count)`` records: at most one per frog, never an n-vector), so
the service caches them keyed by ``(teleport seeds, weights, config)``.
Two independent staleness controls compose:

* **LRU capacity** bounds memory: inserting into a full cache evicts
  the least-recently-used entry;
* **TTL** bounds semantic staleness: on a churning graph yesterday's
  top-k is stale no matter how popular, so entries older than ``ttl_s``
  are dropped at lookup time.

The clock is injectable for deterministic tests (and for callers that
want logical time, e.g. graph-update counters instead of seconds).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Hashable
import time

from ..errors import ConfigError

__all__ = ["CacheStats", "TTLCache"]


@dataclass
class CacheStats:
    """Counters of one cache's lifetime behaviour."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    expirations: int = 0

    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0 when never used)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class TTLCache:
    """An LRU mapping whose entries also expire after ``ttl_s``.

    Parameters
    ----------
    capacity:
        Maximum number of live entries; the least-recently-used entry
        is evicted to make room.
    ttl_s:
        Entry lifetime in clock units; ``None`` disables expiry.
    clock:
        Zero-argument callable returning the current time.  Defaults to
        :func:`time.monotonic`; tests inject a fake.
    """

    def __init__(
        self,
        capacity: int = 256,
        ttl_s: float | None = None,
        clock: Callable[[], float] | None = None,
    ) -> None:
        if capacity < 1:
            raise ConfigError("cache capacity must be positive")
        if ttl_s is not None and ttl_s <= 0:
            raise ConfigError("ttl_s must be positive (or None to disable)")
        self.capacity = capacity
        self.ttl_s = ttl_s
        self._clock = clock or time.monotonic
        self._entries: OrderedDict[Hashable, tuple[float, object]] = OrderedDict()
        self.stats = CacheStats()

    def __len__(self) -> int:
        """Number of *live* entries (expired ones are purged first)."""
        self._purge_expired()
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        """Non-mutating membership test (no LRU touch, no stats)."""
        entry = self._entries.get(key)
        if entry is None:
            return False
        return not self._expired(entry[0])

    def _expired(self, stored_at: float) -> bool:
        return self.ttl_s is not None and (
            self._clock() - stored_at > self.ttl_s
        )

    def _purge_expired(self) -> int:
        """Drop every expired entry, counting each as an expiration."""
        if self.ttl_s is None or not self._entries:
            return 0
        horizon = self._clock() - self.ttl_s
        dead = [
            key
            for key, (stored_at, _) in self._entries.items()
            if stored_at < horizon
        ]
        for key in dead:
            del self._entries[key]
        self.stats.expirations += len(dead)
        return len(dead)

    def get(self, key: Hashable):
        """Return the cached value or ``None``; touches LRU recency."""
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        stored_at, value = entry
        if self._expired(stored_at):
            del self._entries[key]
            self.stats.expirations += 1
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return value

    def put(self, key: Hashable, value) -> None:
        """Insert/refresh ``key``, evicting LRU entries over capacity.

        Expired entries are purged (and counted as expirations, the
        overwritten key's included) *before* capacity is enforced, so a
        full-looking cache of dead entries never evicts a live LRU
        entry; evictions only ever remove live entries.
        """
        self._purge_expired()
        if key in self._entries:
            # Live overwrite: a refresh, neither eviction nor expiry.
            del self._entries[key]
        self._entries[key] = (self._clock(), value)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def clear(self) -> None:
        """Drop every entry (stats are kept)."""
        self._entries.clear()
