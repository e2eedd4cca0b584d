"""Prefetchers: layout-knowledge-driven readahead for the buffer pool.

A prefetcher turns the *miss runs* a query just serviced into the set of
LBNs worth pulling into the pool alongside them.  The track prefetcher
exploits exactly the knowledge MultiMap itself builds on — the LVM's
exported geometry interface (paper §3.2), never raw disk internals:

``"none"``
    No prefetch (demand blocks only).
``"track"``
    Track-aligned readahead: every run is rounded out to whole track
    boundaries (``get_track_boundaries``), modelling firmware
    readahead filling the segment buffer with the remainder of each
    track the head crossed.  For track-aligned placements (MultiMap,
    naive) this is nearly free of pollution — a query's runs *are*
    tracks — while scattered placements drag in whole tracks of
    unrelated cells per touched block.

Prefetched blocks are admitted at zero simulated cost — the model is
that readahead overlaps the mechanical work the miss already paid for —
but they occupy frames and evict like any other block, so inaccurate
prefetch *is* punished (cache pollution), and the pool's
``prefetch_issued`` / ``prefetch_hits`` counters price the accuracy.

Third-party prefetchers register through :func:`register_prefetcher`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.registry import Registry
from repro.errors import CacheError

__all__ = [
    "PREFETCHERS",
    "NoPrefetcher",
    "Prefetcher",
    "TrackPrefetcher",
    "prefetcher_names",
    "register_prefetcher",
]


#: prefetcher-name -> prefetcher class (``cls()``); builtins live
#: in this module, so importing it is the whole population step
PREFETCHERS = Registry("prefetcher")


def register_prefetcher(name: str):
    """Class decorator adding a prefetcher to :data:`PREFETCHERS`."""

    def deco(cls: type) -> type:
        PREFETCHERS.add(name, cls)
        cls.name = name
        return cls

    return deco


def prefetcher_names() -> tuple[str, ...]:
    return PREFETCHERS.names()


def make_prefetcher(name: str) -> "Prefetcher":
    """A fresh prefetcher of the registered ``name``; anything but a
    name raises :class:`~repro.errors.CacheError`."""
    if not isinstance(name, str):
        raise CacheError(
            f"prefetch must be a registered name, got {name!r}"
        )
    return PREFETCHERS.get(name)()


class Prefetcher(ABC):
    """Maps a serviced plan's runs to the LBNs worth caching with them."""

    name: str = "abstract"

    @abstractmethod
    def targets(self, volume, disk: int, plan) -> np.ndarray:
        """LBNs to prefetch for ``plan``'s runs on ``volume``/``disk``.

        May include LBNs already resident or already in the plan — the
        pool admits only the new ones.  Returns a sorted int64 array.
        """


@register_prefetcher("none")
class NoPrefetcher(Prefetcher):
    """Demand-only: never prefetches."""

    def targets(self, volume, disk: int, plan) -> np.ndarray:
        return np.empty(0, dtype=np.int64)


@register_prefetcher("track")
class TrackPrefetcher(Prefetcher):
    """Round every run out to whole tracks (firmware-style readahead)."""

    def targets(self, volume, disk: int, plan) -> np.ndarray:
        geom = volume.models[disk].geometry
        spans = []
        for start, length in zip(plan.starts, plan.lengths):
            lo, _ = geom.track_boundaries(int(start))
            _, hi = geom.track_boundaries(int(start + length - 1))
            spans.append((lo, hi))
        if not spans:
            return np.empty(0, dtype=np.int64)
        # merge overlapping track spans before materialising the blocks
        spans.sort()
        merged = [spans[0]]
        for lo, hi in spans[1:]:
            if lo <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
            else:
                merged.append((lo, hi))
        return np.concatenate(
            [np.arange(lo, hi, dtype=np.int64) for lo, hi in merged]
        )
