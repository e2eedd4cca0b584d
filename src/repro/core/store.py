"""Variable-size dataset support — paper §4.6.

MultiMap targets mostly-static scientific data, but §4.6 sketches how
online updates work: cells are loaded with a **tunable fill factor**, new
points go to free space in their destination cell, full cells spill to
**overflow pages**, and space reclamation of underflowing cells is
triggered by a second tunable threshold and performed by (expensive)
reorganisation.  This module implements that scheme on top of any
:class:`~repro.mappings.base.Mapper`.

Point capacity is expressed per cell; overflow pages live in a separate
extent on the same disk and are chained per cell.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import DatasetError, MappingError
from repro.lvm.volume import LogicalVolume
from repro.mappings.base import Mapper, RequestPlan, coalesce_ranks
from repro.query.workload import _check_ints

__all__ = ["CellStore", "StoreStats"]


@dataclass(frozen=True)
class StoreStats:
    """Occupancy summary of a :class:`CellStore`."""

    n_cells: int
    n_points: int
    capacity_per_cell: int
    fill_factor: float
    overflow_pages: int
    overflow_points: int
    underflow_cells: int
    mean_fill: float


class CellStore:
    """Cells with fill factor, overflow chains and reclamation triggers.

    Parameters
    ----------
    mapper:
        The placement of the primary cells.
    volume:
        Volume the overflow extent is allocated from (the mapper's disk).
    points_per_cell:
        Physical capacity of one cell.
    fill_factor:
        Fraction of capacity used during initial load (leaving headroom
        for inserts); 1.0 reproduces the paper's read-only evaluation.
    reclaim_threshold:
        A cell underflows when its occupancy falls below this fraction;
        :attr:`needs_reorganization` trips when any cell underflows.
    """

    def __init__(
        self,
        mapper: Mapper,
        volume: LogicalVolume,
        *,
        points_per_cell: int = 16,
        fill_factor: float = 1.0,
        reclaim_threshold: float = 0.25,
        max_overflow_pages: int = 4096,
    ):
        if not 0.0 < fill_factor <= 1.0:
            raise DatasetError("fill_factor must be in (0, 1]")
        if not 0.0 <= reclaim_threshold < 1.0:
            raise DatasetError("reclaim_threshold must be in [0, 1)")
        if points_per_cell < 1:
            raise DatasetError("points_per_cell must be >= 1")
        self.mapper = mapper
        self.volume = volume
        self.points_per_cell = int(points_per_cell)
        self.fill_factor = float(fill_factor)
        self.reclaim_threshold = float(reclaim_threshold)

        self._occupancy = np.zeros(mapper.n_cells, dtype=np.int64)
        self._loaded = np.zeros(mapper.n_cells, dtype=bool)
        # overflow chains: cell flat index -> list of (page_lbn, count)
        self._overflow: dict[int, list[list[int]]] = {}
        self._overflow_extent = volume.allocate_blocks(
            mapper.disk_index, max_overflow_pages
        )
        self._next_overflow_page = 0
        # overflow-page LBNs written to since the last drain (ingest
        # flushes read this to know which chain pages need disk writes)
        self._touched_pages: set[int] = set()

    # ------------------------------------------------------------------
    # addressing helpers
    # ------------------------------------------------------------------

    def _flat(self, coords) -> np.ndarray:
        arr = np.asarray(coords, dtype=np.int64)
        if arr.ndim == 1:
            arr = arr[np.newaxis, :]
        strides = [1]
        for s in self.mapper.dims[:-1]:
            strides.append(strides[-1] * s)
        return arr @ np.asarray(strides, dtype=np.int64)

    def _cells(self, coords) -> np.ndarray:
        """Flat indices of caller coordinates, checked by the mapper
        (integer dtype, rank, bounds; :class:`QueryError` otherwise)."""
        return self._flat(self.mapper._check_coords(coords))

    def _cell(self, cell_coord) -> int:
        """One caller coordinate's flat index; each entry must be an
        integer (numpy would read ``(True, 0, 0)`` as row 1)."""
        return int(self._cells(_check_ints("cell_coord", cell_coord))[0])

    @staticmethod
    def _check_n(n, least: int = 1) -> int:
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) \
                or n < least:
            raise DatasetError(
                f"n must be an integer >= {least}, got {n!r}"
            )
        return int(n)

    # ------------------------------------------------------------------
    # loading and updates
    # ------------------------------------------------------------------

    def bulk_load(self, coords, counts=None) -> int:
        """Initial load honouring the fill factor.

        ``coords`` are cell coordinates (repeats allowed); ``counts``
        optionally gives points per row.  Returns the number of points
        that exceeded the fill-factor budget and went to overflow pages.
        Bad coordinates raise :class:`QueryError` and bad counts
        :class:`DatasetError`, before anything is stored.
        """
        flat = self._cells(coords)
        if counts is None:
            counts = np.ones(flat.shape, dtype=np.int64)
        else:
            counts = np.asarray(counts)
            if counts.dtype.kind not in "iu" or counts.shape != flat.shape \
                    or (counts.size and counts.min() < 0):
                raise DatasetError(
                    f"counts must hold one non-negative integer per "
                    f"coordinate row ({flat.size} rows)"
                )
            counts = counts.astype(np.int64, copy=False)
        budget = int(self.points_per_cell * self.fill_factor)
        budget = max(budget, 1)
        overflowed = 0
        totals = np.bincount(
            flat, weights=counts, minlength=self.mapper.n_cells
        ).astype(np.int64)
        loaded = np.minimum(totals, budget)
        self._occupancy += loaded
        self._loaded |= totals > 0
        for cell in np.flatnonzero(totals > budget):
            extra = int(totals[cell] - budget)
            overflowed += extra
            self._spill(int(cell), extra)
        return overflowed

    def insert(self, cell_coord, n: int = 1) -> str:
        """Insert ``n`` points into a cell.

        Returns ``"cell"`` when they fit in the destination cell and
        ``"overflow"`` when an overflow page had to absorb them (§4.6:
        "If there is free space in the destination cell, new points will
        be stored there.  Otherwise, an overflow page will be created").
        A bad coordinate raises :class:`QueryError` and an ``n`` below 1
        :class:`DatasetError`, before anything is stored.
        """
        cell = self._cell(cell_coord)
        n = self._check_n(n)
        free = self.points_per_cell - int(self._occupancy[cell])
        self._loaded[cell] = True
        if n <= free:
            self._occupancy[cell] += n
            return "cell"
        if free > 0:
            self._occupancy[cell] += free
            n -= free
        self._spill(cell, n)
        return "overflow"

    def delete(self, cell_coord, n: int = 1) -> None:
        """Remove points, draining overflow chains first (inputs are
        checked as in :meth:`insert`; ``n = 0`` is a no-op)."""
        cell = self._cell(cell_coord)
        n = self._check_n(n, least=0)  # deleting nothing is a no-op
        chain = self._overflow.get(cell, [])
        while n > 0 and chain:
            page = chain[-1]
            take = min(n, page[1])
            page[1] -= take
            n -= take
            if page[1] == 0:
                chain.pop()
        if not chain and cell in self._overflow:
            del self._overflow[cell]
        take = min(n, int(self._occupancy[cell]))
        self._occupancy[cell] -= take

    def bulk_insert(self, coords, counts=None) -> int:
        """Vectorised :meth:`insert`: absorb into free cell space at full
        capacity (the fill-factor budget only applies to the initial
        load), spill the rest.  Returns the number of overflowed points.
        """
        flat = self._flat(coords)
        if counts is None:
            counts = np.ones(flat.shape, dtype=np.int64)
        counts = np.asarray(counts, dtype=np.int64)
        totals = np.bincount(
            flat, weights=counts, minlength=self.mapper.n_cells
        ).astype(np.int64)
        free = np.maximum(self.points_per_cell - self._occupancy, 0)
        absorbed = np.minimum(totals, free)
        self._occupancy += absorbed
        self._loaded |= totals > 0
        overflowed = 0
        for cell in np.flatnonzero(totals > absorbed):
            extra = int(totals[cell] - absorbed[cell])
            overflowed += extra
            self._spill(int(cell), extra)
        return overflowed

    def _spill(self, cell: int, n: int) -> None:
        pages = self._overflow.setdefault(cell, [])
        while n > 0:
            if pages and pages[-1][1] < self.points_per_cell:
                take = min(n, self.points_per_cell - pages[-1][1])
                pages[-1][1] += take
                n -= take
                self._touched_pages.add(pages[-1][0])
                continue
            if self._next_overflow_page >= self._overflow_extent.nblocks:
                raise MappingError("overflow extent exhausted")
            lbn = self._overflow_extent.start + self._next_overflow_page
            self._next_overflow_page += 1
            pages.append([lbn, 0])

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------

    def read_plan(self, coords) -> RequestPlan:
        """Plan reading the given cells *including* their overflow pages."""
        lbns = [self.mapper.lbns(coords)]  # validates coords first
        flat = self._flat(coords)
        extra = []
        for cell in flat.tolist():
            for page_lbn, _count in self._overflow.get(int(cell), []):
                extra.append(page_lbn)
        if extra:
            lbns.append(np.asarray(extra, dtype=np.int64))
        merged = np.unique(np.concatenate(lbns))
        starts, lengths = coalesce_ranks(merged)
        return RequestPlan(starts, lengths, policy="sorted", merge_gap=0)

    # ------------------------------------------------------------------
    # write bookkeeping (ingest flushes)
    # ------------------------------------------------------------------

    @property
    def overflow_extent(self):
        """The overflow pages' extent (ingest maps its page indices onto
        per-replica twin extents)."""
        return self._overflow_extent

    def drain_touched_pages(self) -> np.ndarray:
        """Sorted LBNs of overflow pages dirtied since the last drain,
        clearing the dirty set."""
        pages = np.array(sorted(self._touched_pages), dtype=np.int64)
        self._touched_pages.clear()
        return pages

    def chained_cells(self) -> np.ndarray:
        """Sorted flat indices of cells with live overflow chains."""
        return np.array(sorted(self._overflow), dtype=np.int64)

    def overflow_page_lbns(self) -> np.ndarray:
        """Sorted LBNs of every live overflow page."""
        lbns = [p[0] for chain in self._overflow.values() for p in chain]
        return np.array(sorted(lbns), dtype=np.int64)

    # ------------------------------------------------------------------
    # reclamation
    # ------------------------------------------------------------------

    @property
    def underflow_cells(self) -> np.ndarray:
        """Flat indices of loaded cells below the reclaim threshold."""
        floor = self.points_per_cell * self.reclaim_threshold
        return np.flatnonzero(self._loaded & (self._occupancy < floor))

    @property
    def needs_reorganization(self) -> bool:
        return self.underflow_cells.size > 0

    def required_capacity(self) -> int:
        """Smallest per-cell capacity that would fold every live chain
        back into its cell (the §4.6 re-provisioning target: size cells
        to the density the stream actually delivered)."""
        need = self.points_per_cell
        for cell, chain in self._overflow.items():
            need = max(
                need,
                int(self._occupancy[cell]) + sum(p[1] for p in chain),
            )
        return need

    def reorganize(self) -> int:
        """Fold overflow chains back into cells where they now fit and
        reset the underflow bookkeeping.  Returns pages freed.  This
        stands in for the paper's "dataset reorganization, an expensive
        operation for any mapping technique"."""
        freed = 0
        for cell in list(self._overflow):
            chain = self._overflow[cell]
            while chain:
                free = self.points_per_cell - int(self._occupancy[cell])
                if free <= 0:
                    break
                page = chain[-1]
                take = min(free, page[1])
                self._occupancy[cell] += take
                page[1] -= take
                if page[1] == 0:
                    chain.pop()
                    freed += 1
                    self._touched_pages.discard(page[0])
                else:
                    break
            if not chain:
                del self._overflow[cell]
        self._loaded &= self._occupancy > 0
        return freed

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------

    def stats(self) -> StoreStats:
        pages = sum(len(c) for c in self._overflow.values())
        opoints = sum(p[1] for c in self._overflow.values() for p in c)
        loaded = self._occupancy[self._loaded]
        return StoreStats(
            n_cells=self.mapper.n_cells,
            n_points=int(self._occupancy.sum()) + opoints,
            capacity_per_cell=self.points_per_cell,
            fill_factor=self.fill_factor,
            overflow_pages=pages,
            overflow_points=opoints,
            underflow_cells=int(self.underflow_cells.size),
            mean_fill=(
                float(loaded.mean()) / self.points_per_cell
                if loaded.size
                else 0.0
            ),
        )
