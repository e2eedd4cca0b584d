"""Process-wide memo for derived mapper state.

Building a mapper derives state that is a pure function of a small key:
a curve mapper's dense rank table (one int64 per cell) depends only on
(curve class, grid dims), and a MultiMap basic-cube plan only on (dims,
track length, zone tracks, depth, strategy).  ``Dataset.with_layout`` / ``with_shards``
clones — and every per-chunk mapper of a sharded dataset with equal
chunk shapes — used to re-derive these per instance; the :data:`MEMO`
lets them share one immutable copy instead.

Only *immutable* values belong here: frozen dataclasses
(:class:`~repro.core.planner.CubePlan`) or arrays the caller marks
read-only before publishing.  Zone allocation is NOT memoized — it
mutates volume state and must run per mapper.

The memo is deliberately simple: a per-kind dict with hit/miss
counters, no eviction (entries are keyed per distinct grid shape, a
handful per process) and ``clear()`` for benchmark hygiene (a cold
build is measured after ``clear()`` or ``evict``).
"""

from __future__ import annotations

from typing import Any, Callable, Hashable

__all__ = ["MapperMemo", "MEMO"]


class MapperMemo:
    """A keyed store of shared derived mapper state."""

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self._store: dict[str, dict[Hashable, Any]] = {}

    def get(self, kind: str, key: Hashable):
        """The cached value, or ``None`` (counts a hit or a miss)."""
        value = self._store.get(kind, {}).get(key)
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
        return value

    def put(self, kind: str, key: Hashable, value) -> None:
        """Publish a value."""
        self._store.setdefault(kind, {})[key] = value

    def get_or_build(self, kind: str, key: Hashable,
                     builder: Callable[[], Any]):
        """The cached value, building and publishing it on a miss."""
        value = self.get(kind, key)
        if value is None:
            value = builder()
            self.put(kind, key, value)
        return value

    def evict(self, kind: str, key: Hashable) -> None:
        """Drop one entry so the next lookup rebuilds it."""
        self._store.get(kind, {}).pop(key, None)

    def clear(self) -> None:
        """Drop every entry (keeps the hit/miss counters)."""
        self._store.clear()

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0

    def stats(self) -> dict:
        """JSON-friendly snapshot: hits, misses, entries per kind."""
        return {
            "hits": int(self.hits),
            "misses": int(self.misses),
            "entries": {
                kind: len(entries)
                for kind, entries in sorted(self._store.items())
                if entries
            },
        }


#: the process-wide memo every mapper consults
MEMO = MapperMemo()
