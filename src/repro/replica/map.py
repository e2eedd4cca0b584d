"""Replica maps: where each chunk's k copies live.

A :class:`ReplicaMap` extends a :class:`~repro.shard.map.ShardMap` with
k-way declustered replication: copy 0 of every chunk stays on the shard
map's primary disk (so healthy-mode reads are exactly the sharded
stack), and copies 1..k-1 land on k-1 *other* member disks by classic
chained declustering (:data:`PLACEMENT`): copy r of a chunk whose
primary is disk d lives on disk ``(d + r) mod n``, so one disk's data
spreads over its successors and any single failure splits the extra
load across several survivors.  (Each copy is placed by a full
per-chunk mapper on its home disk, so *within* a chunk every copy
preserves adjacency by construction.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ReplicaError

if TYPE_CHECKING:  # the shard package imports this module
    from repro.shard.map import ShardMap

__all__ = ["PLACEMENT", "ReplicaMap"]

#: the copy placement every replica map uses, as ``describe()`` reports it
PLACEMENT = "rotated"


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
    def build(cls, shard_map: ShardMap, k: int) -> "ReplicaMap":
        """Place ``k`` copies of every chunk: copy r on disk
        (primary + r) mod n."""
        k = int(k)
        if not 1 <= k <= shard_map.n_disks:
            raise ReplicaError(
                f"k={k} copies need 1 <= k <= {shard_map.n_disks} "
                f"member disks"
            )
        primaries = np.asarray([c.disk for c in shard_map.chunks],
                               dtype=np.int64)
        offsets = np.arange(k, dtype=np.int64)
        disks = (primaries[:, np.newaxis] + offsets[np.newaxis, :]) \
            % shard_map.n_disks
        return cls(shard_map, k, disks)

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
            "placement": PLACEMENT,
            "n_disks": self.n_disks,
            "n_chunks": self.n_chunks,
            "copy_counts": self.copy_counts(),
            "primary_counts": self.shard_map.chunk_counts(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ReplicaMap(k={self.k}, chunks={self.n_chunks}, "
            f"disks={self.n_disks})"
        )
