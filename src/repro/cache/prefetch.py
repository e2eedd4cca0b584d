"""Prefetchers: layout-knowledge-driven readahead for the buffer pool.

A prefetcher turns the *miss runs* a query just serviced into the set of
LBNs worth pulling into the pool alongside them.  Both non-trivial
builtins exploit exactly the knowledge MultiMap itself builds on — the
LVM's exported geometry and adjacency interfaces (paper §3.2), never raw
disk internals:

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
``"adjacent"``
    Semi-sequential successors: for each run the first four
    adjacent blocks of its last block (``get_adjacent``), i.e.
    the blocks reachable in one settle with zero rotational latency.
    Under MultiMap those are the query's spatial neighbors in the
    non-streaming dimensions, so overlapping follow-up queries hit.

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
from repro.errors import AdjacencyError, CacheError

__all__ = [
    "PREFETCHERS",
    "AdjacentPrefetcher",
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

    def describe(self) -> str:
        return self.name


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


@register_prefetcher("adjacent")
class AdjacentPrefetcher(Prefetcher):
    """Pull each run's semi-sequential successors (``get_adjacent``).

    For every run, the first :attr:`steps` adjacent blocks of its last
    LBN: the continuation of the access path one settle away.  Steps
    beyond the disk's adjacency depth *D* or across a zone boundary are
    silently skipped (MultiMap never maps across zones, so nothing
    useful lives there).
    """

    #: adjacent blocks pulled per run
    steps = 4

    def targets(self, volume, disk: int, plan) -> np.ndarray:
        adjacency = volume.adjacency[disk]
        steps = min(self.steps, adjacency.D)
        out: list[int] = []
        for start, length in zip(plan.starts, plan.lengths):
            last = int(start + length - 1)
            for step in range(1, steps + 1):
                try:
                    out.append(adjacency.get_adjacent(last, step))
                except AdjacencyError:
                    break
        if not out:
            return np.empty(0, dtype=np.int64)
        return np.unique(np.asarray(out, dtype=np.int64))

    def describe(self) -> str:
        return f"{self.name}[{self.steps}]"
