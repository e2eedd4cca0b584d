"""Shared machinery for the linearised (1-D order) mappings.

Naive, Z-order, Hilbert and Gray all impose a *total order* on the cells
and store them at consecutive LBNs in that order (rank-compaction: the
paper packs curve-ordered points sequentially with fill factor 1, §5.2).
The only difference between them is the rank function.

For the curve mappings on non-power-of-two grids the rank of a cell is its
position among the *occupied* cells in curve order.  A curve mapper holds
it in a dense *rank table*: one int64 per cell, laid out Dim0-fastest
with the Naive layout's strides, so a cell's rank is one gather at its
flat index, a beam's ranks are one gather at an ``arange`` of flat
indices, and a box's ranks are one N-D slice of the table.  The table
is built once, a few slabs at a time, from the curve's box encoder
(``encode_box``: the codes of every cell of a box, computed from one
index vector per axis, see :mod:`repro.mappings.curves`) and an
argsort, so no coordinate matrix is built (except for Hilbert grids of
more than four dims, whose boxes are encoded cell by cell).  The
per-coordinate ``encode`` is left to the reference ranks of the tests
and of :mod:`repro.perf.reference`, an oracle independent of the box
encoders.
Since the table depends only on the curve class and the grid dims, it
is published read-only through :data:`repro.perf.memo.MEMO` and shared
by every clone of the mapper (``with_layout`` re-runs, per-chunk
mappers of equal shape) instead of being rebuilt per instance.
"""

from __future__ import annotations

import numpy as np

from repro.mappings import curves
from repro.mappings.base import (
    Mapper,
    RequestPlan,
    coalesce_ranks,
    split_box,
)
from repro.perf.memo import MEMO

__all__ = ["LinearMapper", "CurveMapper"]

#: the rank-table build encodes and scatters the grid in this many
#: flat-index chunks (at least ``_MIN_BUILD_CHUNK`` cells each), so its
#: transients stay a small fraction of the finished table
_BUILD_CHUNKS = 64
_MIN_BUILD_CHUNK = 4096


class LinearMapper(Mapper):
    """A mapping defined by a total order (rank) over cells."""

    def __init__(self, dims, extent, cell_blocks: int = 1):
        super().__init__(dims, extent, cell_blocks)
        # Dim0-fastest (row-major along Dim0) flat index of a cell:
        # ``coords @ _stride_vec`` for a coordinate matrix, or
        # ``sum(x_d * _strides[d])`` in Python ints for a closed form
        strides = [1]
        for s in self.dims[:-1]:
            strides.append(strides[-1] * s)
        self._strides = tuple(strides)
        self._stride_vec = np.asarray(strides, dtype=np.int64)

    def flat_rank(self, flats: np.ndarray) -> np.ndarray:
        """Position in the on-disk order of each cell, given by its
        Dim0-fastest flat index.  Subclasses provide."""
        raise NotImplementedError

    def rank(self, coords: np.ndarray) -> np.ndarray:
        """Position of each cell in the on-disk order."""
        return self.flat_rank(coords @ self._stride_vec)

    def lbns(self, coords) -> np.ndarray:
        return self.flat_lbns(self._check_coords(coords) @ self._stride_vec)

    def flat_lbns(self, flats: np.ndarray) -> np.ndarray:
        return self.extent.start + self.flat_rank(flats) * self.cell_blocks

    def plan_from_ranks(
        self,
        ranks: np.ndarray,
        policy: str = "sorted",
        merge_gap: int | None = None,
    ) -> RequestPlan:
        """Build a sorted plan straight from cell ranks.

        Ranks are coalesced *before* scaling to blocks: cells at
        consecutive ranks occupy consecutive block groups, so rank runs
        and block runs coincide — bit-identical to expanding every
        cell's blocks first, without materialising them.
        """
        ranks = np.sort(np.asarray(ranks, dtype=np.int64))
        starts, lengths = coalesce_ranks(ranks)
        cb = self.cell_blocks
        return RequestPlan.from_arrays(
            self.extent.start + starts * cb, lengths * cb, policy, merge_gap
        )

    def _beam_span(self, axis, fixed, lo, hi) -> tuple[int, int, int]:
        """``(first, step, count)``: a beam's cells sit at the flat
        indices ``first + step * i`` for ``i < count``, ascending."""
        axis, fixed, lo, hi = self._check_beam(axis, fixed, lo, hi)
        step = self._strides[axis]
        first = lo * step
        for d, (x, stride) in enumerate(zip(fixed, self._strides)):
            if d != axis:
                first += x * stride
        return first, step, hi - lo


class CurveMapper(LinearMapper):
    """Rank = position along a space-filling curve, rank-compacted."""

    def __init__(self, dims, extent, cell_blocks: int = 1):
        super().__init__(dims, extent, cell_blocks)
        self.bits = curves.bits_for(self.dims)
        self._rank_table: np.ndarray | None = None

    def encode(self, coords: np.ndarray) -> np.ndarray:
        """Curve code of each coordinate row.  Subclasses provide."""
        raise NotImplementedError

    def encode_box(self, lo, hi) -> np.ndarray:
        """Curve code of every cell of the box ``[lo, hi)``, Dim0-fastest
        (equal to ``encode(enumerate_box(lo, hi))``).  Subclasses
        provide."""
        raise NotImplementedError

    def _memo_key(self) -> tuple:
        cls = type(self)
        return (cls.__module__, cls.__qualname__, self.dims)

    def _build_rank_table(self) -> np.ndarray:
        dims = self.dims
        n = self.n_cells
        step = max(_MIN_BUILD_CHUNK, -(-n // _BUILD_CHUNKS))
        # the codes in flat (Dim0-fastest) cell order, encoded a box of
        # at most `step` cells at a time; this buffer becomes the rank
        # table below
        table = np.empty(n, dtype=np.int64)
        at = 0
        for lo, hi in split_box([0] * len(dims), dims, step):
            codes = self.encode_box(lo, hi)
            table[at:at + codes.size] = codes
            at += codes.size
        # order[r] is the flat index of the cell at curve rank r; invert
        # it into the code buffer chunk by chunk
        order = np.argsort(table)
        for a in range(0, n, step):
            table[order[a:a + step]] = np.arange(
                a, min(a + step, n), dtype=np.int64
            )
        # published through the memo and shared across mapper clones
        table.flags.writeable = False
        return table

    def rank_table(self) -> np.ndarray:
        """Curve rank of every cell at its Dim0-fastest flat index
        (built lazily, shared across clones through the memo, read-only).

        One int64 per cell; the build's transient peak stays near twice
        that (the code buffer doubles as the table, plus argsort's index
        array).
        """
        if self._rank_table is None:
            self._rank_table = MEMO.get_or_build(
                "rank_table", self._memo_key(), self._build_rank_table
            )
        return self._rank_table

    def flat_rank(self, flats: np.ndarray) -> np.ndarray:
        return self.rank_table()[flats]

    def beam_plan(self, axis: int, fixed, lo: int = 0, hi: int | None = None
                  ) -> RequestPlan:
        first, step, count = self._beam_span(axis, fixed, lo, hi)
        flat = np.arange(first, first + step * count, step, dtype=np.int64)
        return self.plan_from_ranks(self.rank_table()[flat], "sorted", 0)

    def range_plan(self, lo, hi) -> RequestPlan:
        lo, hi = self._check_box(lo, hi)
        # the table viewed as an array indexed [c_{n-1}, ..., c_1, c_0]
        grid = self.rank_table().reshape(self.dims[::-1])
        box = tuple(slice(a, b) for a, b in zip(lo[::-1], hi[::-1]))
        return self.plan_from_ranks(grid[box].ravel())

    def drop_cache(self) -> None:
        """Free the cached rank table (benchmark hygiene) — the shared
        memo entry is evicted too, so the next use rebuilds cold."""
        self._rank_table = None
        MEMO.evict("rank_table", self._memo_key())
