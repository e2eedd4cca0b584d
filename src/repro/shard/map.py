"""Shard maps: which member disk owns each chunk of a dataset.

The paper's evaluation (§5.3) partitions its 1024³ grid into chunks and
"maps each chunk to a different disk"; :class:`ShardMap` makes that
placement a first-class object.  It is built *from* the chunker of
:mod:`repro.datasets.grid` — the per-chunk disk assignment
:meth:`GridDataset.chunks` computes (via
:func:`repro.lvm.striping.assign_chunks`) is exactly what a shard map
records — so the declustering strategies of the :data:`STRATEGIES`
registry drive both paths.

Chunking defaults to slabs along the *last* axis (one slab per disk):
chunks keep the full Dim0 extent, so every chunk's layout preserves the
track-streaming dimension, while beams along the last axis scatter
across all disks.  Pass ``chunk_shape`` for finer grids (e.g. the
paper's 259³ cubes).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from repro.datasets.grid import Chunk, GridDataset
from repro.errors import AllocationError, QueryError

__all__ = ["ShardMap"]


@dataclass(frozen=True)
class ShardMap:
    """An immutable chunk-to-disk placement for one dataset."""

    dims: tuple[int, ...]
    n_disks: int
    strategy: str
    chunks: tuple[Chunk, ...]
    grid: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n_disks < 1:
            raise AllocationError("a shard map needs at least one disk")
        if not self.chunks:
            raise AllocationError("a shard map needs at least one chunk")
        n_cells = int(np.prod(self.dims, dtype=np.int64))
        covered = sum(c.n_cells for c in self.chunks)
        if covered != n_cells:
            raise AllocationError(
                f"chunks cover {covered} cells, dataset has {n_cells}"
            )
        expected = int(np.prod(self.grid, dtype=np.int64))
        if len(self.chunks) != expected:
            raise AllocationError(
                f"{len(self.chunks)} chunks do not tile grid {self.grid}"
            )
        for c in self.chunks:
            if not 0 <= c.disk < self.n_disks:
                raise AllocationError(
                    f"chunk {c.index} assigned to disk {c.disk}, "
                    f"volume has {self.n_disks}"
                )

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def build(
        cls,
        dims,
        n_disks: int,
        strategy: str = "disk_modulo",
        *,
        chunk_shape=None,
    ) -> "ShardMap":
        """Chunk ``dims`` and decluster the chunks across ``n_disks``.

        ``chunk_shape`` defaults to last-axis slabs of
        ``ceil(dims[-1] / n_disks)`` cells (1 disk ⇒ one chunk covering
        the whole dataset, a plain dataset's placement).  An explicit
        ``chunk_shape`` is used as given (clipped to ``dims``), so the
        same shape always reproduces the same chunk grid (the fairness
        condition ``Dataset.with_layout`` clones rely on).
        """
        dims = tuple(int(s) for s in dims)
        n_disks = int(n_disks)
        if n_disks < 1:
            raise AllocationError("need at least one disk")
        if chunk_shape is None:
            side = -(-dims[-1] // n_disks)
            chunk_shape = dims[:-1] + (side,)
        if len(tuple(chunk_shape)) != len(dims):
            raise AllocationError(
                f"chunk_shape rank {len(tuple(chunk_shape))} does not "
                f"match dataset rank {len(dims)}"
            )
        chunk_shape = tuple(
            min(int(c), s) for c, s in zip(chunk_shape, dims)
        )
        chunks = GridDataset(dims).chunks(chunk_shape, n_disks,
                                          strategy=strategy)
        grid = tuple(-(-s // m) for s, m in zip(dims, chunk_shape))
        return cls(dims, n_disks, strategy, tuple(chunks), grid)

    @classmethod
    def from_chunks(cls, dims, chunks, n_disks: int,
                    strategy: str = "custom") -> "ShardMap":
        """Wrap a pre-computed chunk list (e.g. straight from
        :meth:`GridDataset.chunks`) whose per-chunk disk assignment this
        map now makes authoritative."""
        dims = tuple(int(s) for s in dims)
        chunks = tuple(chunks)
        grid = tuple(
            len({c.origin[d] for c in chunks}) for d in range(len(dims))
        )
        return cls(dims, int(n_disks), strategy, chunks, grid)

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------

    @property
    def n_chunks(self) -> int:
        return len(self.chunks)

    def chunks_for_disk(self, disk: int) -> tuple[Chunk, ...]:
        return tuple(c for c in self.chunks if c.disk == int(disk))

    def chunk_counts(self) -> list[int]:
        """Chunks per disk (index = disk)."""
        disks = np.asarray([c.disk for c in self.chunks], dtype=np.int64)
        return np.bincount(disks, minlength=self.n_disks).tolist()

    def _axis_grid(self):
        """The chunk boundaries of every split axis plus a
        grid-position -> chunk lookup, built once.

        ``split`` lists ``(axis, origins, ends)`` — the sorted distinct
        chunk origins and their exclusive ends — for each axis the grid
        cuts into several chunks; ``where`` maps a chunk's positions on
        those axes (one boundary index each) to its index in
        :attr:`chunks`.  The dataclass is frozen but not slotted, so the
        lazily computed tables hide in ``__dict__`` without affecting
        equality or repr.
        """
        cached = self.__dict__.get("_grid_cache")
        if cached is None:
            split = []
            for d in range(len(self.dims)):
                ends = {c.origin[d]: c.origin[d] + c.shape[d]
                        for c in self.chunks}
                if len(ends) > 1:
                    origins = sorted(ends)
                    split.append((d, origins, [ends[o] for o in origins]))
            where = {
                tuple(bisect_left(origins, c.origin[d])
                      for d, origins, _ in split): pos
                for pos, c in enumerate(self.chunks)
            }
            cached = (tuple(split), where)
            object.__setattr__(self, "_grid_cache", cached)
        return cached

    def intersections(self, lo, hi) -> list[tuple]:
        """``(chunk, local_lo, local_hi)`` for every chunk the half-open
        box ``[lo, hi)`` overlaps, in chunk order; local coordinates are
        chunk-relative.  A box of the wrong rank, empty on some axis, or
        reaching outside the dataset raises :class:`QueryError`.

        The chunks tile a rectilinear grid, so the overlap is a product
        of per-axis spans of grid positions: only the axes the grid
        splits are cut, each once against its chunk boundaries.
        """
        dims = self.dims
        if len(lo) != len(dims) or len(hi) != len(dims):
            raise QueryError("box rank does not match dataset rank")
        for d, (a, b) in enumerate(zip(lo, hi)):
            if not 0 <= a < b <= dims[d]:
                raise QueryError(f"box [{a}, {b}) invalid on axis {d}")
        split, where = self._axis_grid()
        # (grid key, local lo, local hi) per overlapped chunk, expanded
        # one split axis at a time; unsplit axes keep the global bounds.
        # A chunk list may come in any order (from_chunks), so the
        # pieces are sorted into it at the end
        pieces = [((), tuple(lo), tuple(hi))]
        for d, origins, ends in split:
            a, b = lo[d], hi[d]
            cut = []
            for g in range(bisect_right(origins, a) - 1,
                           bisect_left(origins, b)):
                o = origins[g]
                la, lb = max(a, o) - o, min(b, ends[g]) - o
                cut += [
                    (key + (g,), llo[:d] + (la,) + llo[d + 1:],
                     lhi[:d] + (lb,) + lhi[d + 1:])
                    for key, llo, lhi in pieces
                ]
            pieces = cut
        out = [(where[key], llo, lhi) for key, llo, lhi in pieces]
        out.sort()
        return [(self.chunks[pos], llo, lhi) for pos, llo, lhi in out]

    def describe(self) -> dict:
        """JSON-friendly placement summary."""
        return {
            "n_shards": self.n_disks,
            "strategy": self.strategy,
            "n_chunks": self.n_chunks,
            "grid": list(self.grid),
            "chunk_counts": self.chunk_counts(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardMap(dims={self.dims}, n_disks={self.n_disks}, "
            f"strategy={self.strategy!r}, chunks={self.n_chunks})"
        )
