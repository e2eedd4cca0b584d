"""Uniform N-D grid datasets and per-disk chunking (paper §5.3).

The synthetic evaluation dataset is a uniform 1024³ cell grid partitioned
into chunks of at most 259³ cells, each chunk mapped to one disk of the
volume.  This module provides the dataset descriptor and the chunker
behind :meth:`GridDataset.shard_map`; layouts are placed on a chunk by
:class:`repro.api.Dataset`, one dataset per layout on fresh identical
disks when experiments compare layouts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import DatasetError
from repro.lvm.striping import assign_chunks

__all__ = [
    "Chunk",
    "GridDataset",
    "MAPPER_ORDER",
    "paper_synthetic_3d",
]

#: canonical reporting order (the paper's legend order)
MAPPER_ORDER = ("naive", "zorder", "hilbert", "multimap")


@dataclass(frozen=True)
class Chunk:
    """A per-disk chunk of a larger dataset."""

    index: int
    origin: tuple[int, ...]
    shape: tuple[int, ...]
    disk: int

    @property
    def n_cells(self) -> int:
        return int(np.prod(self.shape, dtype=np.int64))


@dataclass(frozen=True)
class GridDataset:
    """A dense N-D cell grid (one cell = one disk block by default)."""

    dims: tuple[int, ...]
    cell_blocks: int = 1

    def __post_init__(self) -> None:
        dims = tuple(int(s) for s in self.dims)
        object.__setattr__(self, "dims", dims)
        if not dims or any(s < 1 for s in dims):
            raise DatasetError(f"invalid dims {dims}")

    @property
    def n_cells(self) -> int:
        return int(np.prod(self.dims, dtype=np.int64))

    def chunks(
        self,
        max_shape,
        n_disks: int = 1,
        strategy: str = "round_robin",
    ) -> list[Chunk]:
        """Split into chunks of at most ``max_shape`` cells per dimension
        and assign them to disks (§5.3: "partition the space into chunks
        ... and map each chunk to a different disk")."""
        max_shape = tuple(int(m) for m in max_shape)
        if len(max_shape) != len(self.dims):
            raise DatasetError("max_shape rank mismatch")
        if any(m < 1 for m in max_shape):
            raise DatasetError("max_shape entries must be >= 1")
        counts = [-(-s // m) for s, m in zip(self.dims, max_shape)]
        n_chunks = int(np.prod(counts, dtype=np.int64))
        disks = assign_chunks(
            n_chunks, n_disks, strategy, grid_shape=tuple(counts)
        )
        chunks = []
        for idx in range(n_chunks):
            rem = idx
            coord = []
            for c in counts:
                coord.append(rem % c)
                rem //= c
            origin = tuple(
                c * m for c, m in zip(coord, max_shape)
            )
            shape = tuple(
                min(m, s - o)
                for m, s, o in zip(max_shape, self.dims, origin)
            )
            chunks.append(
                Chunk(idx, origin, shape, int(disks[idx]))
            )
        return chunks

    def shard_map(
        self,
        max_shape,
        n_disks: int = 1,
        strategy: str = "round_robin",
    ):
        """The chunking above as a :class:`repro.shard.ShardMap` — the
        per-chunk disk assignment (historically computed here and then
        dropped) becomes the authoritative placement the sharded
        executor builds mappers from."""
        from repro.shard.map import ShardMap

        return ShardMap.from_chunks(
            self.dims,
            self.chunks(max_shape, n_disks, strategy),
            n_disks,
            strategy=strategy,
        )


def paper_synthetic_3d() -> GridDataset:
    """The 1024³ synthetic dataset of §5.3."""
    return GridDataset((1024, 1024, 1024))
