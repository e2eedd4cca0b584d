"""Eviction policies for the block buffer pool.

Policies are pure ordering structures: they hold the set of resident
``(disk, lbn)`` keys and decide which one leaves when the pool is over
capacity.  The :class:`~repro.cache.pool.BufferPool` owns the stats and
the prefetch bookkeeping; a policy only sees three events — ``admit``
(a block enters), ``on_hit`` (a resident block is accessed), ``victim``
(pick and remove the block to evict).

Three builtins are registered (:data:`POLICIES`):

``"lru"``
    Classic least-recently-used.
``"slru"``
    Segmented LRU (ARC-lite): admissions land in a probationary
    segment; a hit promotes into a protected segment capped at
    80 % of capacity, demoting the protected LRU tail
    back to probation when full.  Victims come from probation first,
    so one-touch blocks (scans, failed prefetch) cannot flush the
    proven working set.
``"scan"``
    Scan-resistant LRU: admissions flagged as part of a large scan
    (the pool flags demand batches bigger than its scan threshold)
    are inserted at the *cold* end of the recency list, so a
    full-volume scan recycles a handful of frames instead of wiping
    the cache.  A hit promotes normally.

Third-party policies register through :func:`register_policy` and are
then available by name to :class:`~repro.cache.pool.BufferPool` and
``Dataset.with_cache``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import OrderedDict

from repro.registry import Registry
from repro.errors import CacheError

__all__ = [
    "POLICIES",
    "EvictionPolicy",
    "LRUPolicy",
    "ScanResistantPolicy",
    "SegmentedLRUPolicy",
    "policy_names",
    "register_policy",
]

Key = tuple  # (disk, lbn)


#: policy-name -> policy class (``cls(capacity)``); builtins
#: live in this module, so importing it is the whole population step
POLICIES = Registry("cache policy")


def register_policy(name: str):
    """Class decorator adding an eviction policy to :data:`POLICIES`."""

    def deco(cls: type) -> type:
        POLICIES.add(name, cls)
        cls.name = name
        return cls

    return deco


def policy_names() -> tuple[str, ...]:
    return POLICIES.names()


def make_policy(name: str, capacity: int) -> "EvictionPolicy":
    """A fresh policy of the registered ``name`` for a pool of
    ``capacity`` frames; anything but a name raises
    :class:`~repro.errors.CacheError`."""
    if not isinstance(name, str):
        raise CacheError(f"policy must be a registered name, got {name!r}")
    return POLICIES.get(name)(capacity)


class EvictionPolicy(ABC):
    """Resident-set ordering for one :class:`BufferPool`."""

    name: str = "abstract"

    def __init__(self, capacity: int):
        if capacity < 0:
            raise CacheError("capacity must be >= 0")
        self.capacity = int(capacity)

    # -- residency ------------------------------------------------------

    @abstractmethod
    def __contains__(self, key: Key) -> bool: ...

    @abstractmethod
    def __len__(self) -> int: ...

    @abstractmethod
    def keys(self):
        """Resident keys in eviction order (first = next victim)."""

    # -- events ---------------------------------------------------------

    @abstractmethod
    def admit(self, key: Key, *, scan: bool = False) -> None:
        """A block enters the pool (key is guaranteed non-resident)."""

    @abstractmethod
    def on_hit(self, key: Key) -> None:
        """A resident block was accessed."""

    @abstractmethod
    def victim(self) -> Key:
        """Pick, remove, and return the key to evict."""

    @abstractmethod
    def discard(self, key: Key) -> None:
        """Remove a key if resident (invalidation)."""

    @abstractmethod
    def clear(self) -> None: ...

    def describe(self) -> str:
        return self.name


@register_policy("lru")
class LRUPolicy(EvictionPolicy):
    """Least-recently-used over a single recency list."""

    def __init__(self, capacity: int):
        super().__init__(capacity)
        self._recency: OrderedDict[Key, None] = OrderedDict()

    def __contains__(self, key: Key) -> bool:
        return key in self._recency

    def __len__(self) -> int:
        return len(self._recency)

    def keys(self):
        return tuple(self._recency)

    def admit(self, key: Key, *, scan: bool = False) -> None:
        self._recency[key] = None

    def on_hit(self, key: Key) -> None:
        self._recency.move_to_end(key)

    def victim(self) -> Key:
        if not self._recency:
            raise CacheError("victim() on an empty policy")
        return self._recency.popitem(last=False)[0]

    def discard(self, key: Key) -> None:
        self._recency.pop(key, None)

    def clear(self) -> None:
        self._recency.clear()


@register_policy("scan")
class ScanResistantPolicy(LRUPolicy):
    """LRU whose scan-flagged admissions enter at the cold end.

    Blocks admitted as part of a batch larger than the pool's scan
    threshold become the *next victims* instead of the most-recent
    entries, so a full-volume scan cycles through a few frames while
    the re-referenced working set keeps its recency.  A hit promotes a
    block to the hot end like plain LRU (it earned residency).
    """

    def admit(self, key: Key, *, scan: bool = False) -> None:
        self._recency[key] = None
        if scan:
            self._recency.move_to_end(key, last=False)


@register_policy("slru")
class SegmentedLRUPolicy(EvictionPolicy):
    """Segmented LRU (ARC-lite): probationary + protected segments."""

    def __init__(self, capacity: int):
        super().__init__(capacity)
        # the protected segment holds up to 80 % of the frames
        self.protected_cap = int(capacity * 0.8)
        self._probation: OrderedDict[Key, None] = OrderedDict()
        self._protected: OrderedDict[Key, None] = OrderedDict()

    def __contains__(self, key: Key) -> bool:
        return key in self._probation or key in self._protected

    def __len__(self) -> int:
        return len(self._probation) + len(self._protected)

    def keys(self):
        # probation evicts first, then the protected tail
        return tuple(self._probation) + tuple(self._protected)

    def admit(self, key: Key, *, scan: bool = False) -> None:
        self._probation[key] = None

    def on_hit(self, key: Key) -> None:
        if key in self._protected:
            self._protected.move_to_end(key)
            return
        # promote probation -> protected; demote the protected LRU tail
        # back to probation's hot end when the segment is full
        del self._probation[key]
        self._protected[key] = None
        while len(self._protected) > max(1, self.protected_cap):
            demoted = self._protected.popitem(last=False)[0]
            self._probation[demoted] = None

    def victim(self) -> Key:
        if self._probation:
            return self._probation.popitem(last=False)[0]
        if self._protected:
            return self._protected.popitem(last=False)[0]
        raise CacheError("victim() on an empty policy")

    def discard(self, key: Key) -> None:
        if self._probation.pop(key, None) is None:
            self._protected.pop(key, None)

    def clear(self) -> None:
        self._probation.clear()
        self._protected.clear()
