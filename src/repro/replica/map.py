"""Replica maps: where each chunk's k copies live.

A :class:`ReplicaMap` extends a :class:`~repro.shard.map.ShardMap` with
k-way declustered replication: copy 0 of every chunk stays on the shard
map's primary disk (so healthy-mode reads are exactly the sharded
stack), and copies 1..k-1 land on k-1 *other* member disks chosen by a
registered placement strategy (:data:`PLACEMENTS`):

* ``rotated`` — classic chained declustering: copy r of a chunk whose
  primary is disk d lives on disk ``(d + r) mod n``, so one disk's data
  spreads over its successors and any single failure splits the extra
  load across several survivors;
* ``locality_aligned`` — the locality-preserving strategy of this
  layer: contiguous runs of the chunk enumeration (grid-adjacent
  chunks) keep their copy-r replicas *together* on one disk, so after a
  failover the surviving replicas of neighbouring chunks are neighbours
  on their home disk too — degraded-mode reads keep MultiMap's
  basic-cube adjacency instead of scattering across the array.  (Each
  copy is placed by a full per-chunk mapper on its home disk, so
  *within* a chunk every copy preserves adjacency by construction; the
  strategies differ in how copies of *adjacent chunks* cluster.)

Placement functions take ``(shard_map, k)`` and return an
``(n_chunks, k)`` integer array of member-disk indices whose column 0
must equal the shard map's primary assignment.  Third parties extend
the table with :func:`register_placement`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.errors import ReplicaError
from repro.registry import Registry, first_doc_line
from repro.shard.map import ShardMap

__all__ = [
    "PLACEMENTS",
    "PlacementEntry",
    "ReplicaMap",
    "placement_names",
    "register_placement",
]


@dataclass(frozen=True)
class PlacementEntry:
    """A registered replica-placement strategy."""

    name: str
    fn: Callable[[ShardMap, int], np.ndarray]
    description: str = ""


#: placement-name -> :class:`PlacementEntry`; builtins live in this
#: module, so importing it is the whole population step
PLACEMENTS = Registry("placement")


def register_placement(name: str, *, description: str = ""):
    """Function decorator adding a replica placement to
    :data:`PLACEMENTS`."""

    def deco(fn):
        desc = description or first_doc_line(fn)
        PLACEMENTS.add(name, PlacementEntry(name, fn, desc))
        return fn

    return deco


def placement_names() -> tuple[str, ...]:
    return PLACEMENTS.names()


@register_placement("rotated")
def rotated(shard_map: ShardMap, k: int) -> np.ndarray:
    """Chained declustering: copy r on disk (primary + r) mod n."""
    n = shard_map.n_disks
    primaries = np.asarray([c.disk for c in shard_map.chunks],
                           dtype=np.int64)
    offsets = np.arange(int(k), dtype=np.int64)
    return (primaries[:, np.newaxis] + offsets[np.newaxis, :]) % n


@register_placement("locality_aligned")
def locality_aligned(shard_map: ShardMap, k: int) -> np.ndarray:
    """Replicas of grid-adjacent chunks co-locate, keeping adjacency."""
    n = shard_map.n_disks
    n_chunks = shard_map.n_chunks
    out = np.empty((n_chunks, int(k)), dtype=np.int64)
    for i, chunk in enumerate(shard_map.chunks):
        # contiguous block of the chunk enumeration: chunks i with the
        # same block id are grid neighbours (the enumeration's fastest
        # axis), so their copy-r replicas share a home disk
        block = (i * n) // n_chunks
        disks = [int(chunk.disk)]
        for r in range(1, int(k)):
            d = (block + r) % n
            while d in disks:
                d = (d + 1) % n
            disks.append(d)
        out[i] = disks
    return out


@dataclass(frozen=True)
class ReplicaMap:
    """An immutable k-way copy placement for one sharded dataset.

    ``disks[i, r]`` is the member disk of chunk ``i``'s copy ``r``;
    column 0 is the shard map's primary assignment, and every row holds
    k *distinct* disks, so any k-1 simultaneous disk failures leave
    every chunk readable.
    """

    shard_map: ShardMap
    k: int
    placement: str
    disks: np.ndarray

    def __post_init__(self) -> None:
        k = int(self.k)
        n = self.shard_map.n_disks
        if not 1 <= k <= n:
            raise ReplicaError(
                f"k={k} copies need 1 <= k <= {n} member disks"
            )
        disks = np.asarray(self.disks, dtype=np.int64)
        object.__setattr__(self, "disks", disks)
        if disks.shape != (self.shard_map.n_chunks, k):
            raise ReplicaError(
                f"placement shape {disks.shape} does not match "
                f"({self.shard_map.n_chunks}, {k})"
            )
        if disks.min(initial=0) < 0 or disks.max(initial=0) >= n:
            raise ReplicaError("replica disk index out of range")
        primaries = np.asarray(
            [c.disk for c in self.shard_map.chunks], dtype=np.int64
        )
        if not np.array_equal(disks[:, 0], primaries):
            raise ReplicaError(
                "copy 0 must stay on each chunk's primary disk"
            )
        for i in range(disks.shape[0]):
            if len(set(disks[i].tolist())) != k:
                raise ReplicaError(
                    f"chunk {i} places {k} copies on non-distinct disks "
                    f"{disks[i].tolist()}"
                )

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def build(cls, shard_map: ShardMap, k: int,
              placement: str = "rotated") -> "ReplicaMap":
        """Place ``k`` copies of every chunk via a registered placement."""
        k = int(k)
        if not 1 <= k <= shard_map.n_disks:
            raise ReplicaError(
                f"k={k} copies need 1 <= k <= {shard_map.n_disks} "
                f"member disks"
            )
        entry = PLACEMENTS.get(placement)
        disks = np.asarray(entry.fn(shard_map, k), dtype=np.int64)
        return cls(shard_map, k, entry.name, disks)

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------

    @property
    def n_disks(self) -> int:
        return self.shard_map.n_disks

    @property
    def n_chunks(self) -> int:
        return self.shard_map.n_chunks

    def copies_of(self, chunk_index: int) -> tuple[int, ...]:
        """Member disks of one chunk's copies (copy order)."""
        return tuple(int(d) for d in self.disks[int(chunk_index)])

    def copies_on_disk(self, disk: int) -> tuple[tuple[int, int], ...]:
        """Every ``(chunk_index, copy)`` resident on ``disk``."""
        rows, cols = np.nonzero(self.disks == int(disk))
        return tuple(zip(rows.tolist(), cols.tolist()))

    def copy_counts(self) -> list[int]:
        """Total copies per disk (primaries + replicas)."""
        return np.bincount(
            self.disks.ravel(), minlength=self.n_disks
        ).tolist()

    def live_copies(self, chunk_index: int, failed=()) -> tuple[int, ...]:
        """Copy indices of ``chunk_index`` not on a failed disk."""
        failed = set(int(d) for d in failed)
        return tuple(
            r for r, d in enumerate(self.copies_of(chunk_index))
            if d not in failed
        )

    def readable_fraction(self, failed=()) -> float:
        """Fraction of chunks with at least one live copy."""
        failed = set(int(d) for d in failed)
        live = sum(
            1 for i in range(self.n_chunks)
            if any(int(d) not in failed for d in self.disks[i])
        )
        return live / self.n_chunks if self.n_chunks else 1.0

    def describe(self) -> dict:
        """JSON-friendly placement summary."""
        return {
            "k": int(self.k),
            "placement": self.placement,
            "n_disks": self.n_disks,
            "n_chunks": self.n_chunks,
            "copy_counts": self.copy_counts(),
            "primary_counts": self.shard_map.chunk_counts(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ReplicaMap(k={self.k}, placement={self.placement!r}, "
            f"chunks={self.n_chunks}, disks={self.n_disks})"
        )
