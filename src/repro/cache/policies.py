"""The buffer pool's eviction order: least recently used.

:class:`LRUPolicy` is a pure ordering structure: it holds the set of
resident ``(disk, lbn)`` keys and decides which one leaves when the pool
is over capacity.  The :class:`~repro.cache.pool.BufferPool` owns the
capacity, the stats and the prefetch bookkeeping; the policy only sees
three events — ``admit`` (a block enters), ``on_hit`` (a resident block
is accessed), ``victim`` (pick and remove the block to evict).
"""

from __future__ import annotations

from collections import OrderedDict

from repro.errors import CacheError

__all__ = ["LRUPolicy"]

Key = tuple  # (disk, lbn)


class LRUPolicy:
    """Least-recently-used over a single recency list."""

    #: the name a pool's ``describe()`` reports
    name = "lru"

    def __init__(self):
        self._recency: OrderedDict[Key, None] = OrderedDict()

    def __contains__(self, key: Key) -> bool:
        return key in self._recency

    def __len__(self) -> int:
        return len(self._recency)

    def keys(self):
        """Resident keys in eviction order (first = next victim)."""
        return tuple(self._recency)

    def admit(self, key: Key) -> None:
        """A block enters the pool (key is guaranteed non-resident)."""
        self._recency[key] = None

    def on_hit(self, key: Key) -> None:
        """A resident block was accessed."""
        self._recency.move_to_end(key)

    def victim(self) -> Key:
        """Pick, remove, and return the key to evict."""
        if not self._recency:
            raise CacheError("victim() on an empty policy")
        return self._recency.popitem(last=False)[0]

    def discard(self, key: Key) -> None:
        """Remove a key if resident (invalidation)."""
        self._recency.pop(key, None)

    def clear(self) -> None:
        self._recency.clear()
