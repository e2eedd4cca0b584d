"""Variable-size dataset support — paper §4.6.

MultiMap targets mostly-static scientific data, but §4.6 sketches how
online updates work: cells are loaded with a **tunable fill factor**, new
points go to free space in their destination cell, full cells spill to
**overflow pages**, and space reclamation of underflowing cells is
triggered by a second tunable threshold and performed by (expensive)
reorganisation.  This module implements that scheme on top of any
:class:`~repro.mappings.base.Mapper`.

Point capacity is expressed per cell; overflow pages live in a separate
extent on the same disk and are chained per cell.  A page holds
``points_per_cell`` points, and a chain fills its last page before it
takes a new one and drains from its last page first, so every page of a
chain is full except the last.  A chain is therefore its point count
plus its page list, and the store keeps both as arrays: the points of
each cell's chain, each cell's last page, and the owning cell of each
page of the extent (pages are taken in extent order and never reused,
so a chain's pages are its owner's pages in ascending order).  Spills,
folds, capacity and statistics are then array passes, with no per-cell
Python loop.  ``points_per_cell`` is the page size too: change it only
while no chain is live, or just before a :meth:`CellStore.reorganize`
that folds every chain back (raising it to
:meth:`CellStore.required_capacity`, as
:func:`repro.ingest.reorg.plan_reorganize` does).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import DatasetError, MappingError, _check_count
from repro.lvm.volume import LogicalVolume
from repro.mappings.base import (
    Mapper,
    RequestPlan,
    coalesce_ranks,
    sorted_unique,
)
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


def _cell_totals(flat: np.ndarray,
                 counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct cells of ``flat``, ascending, and the sum of
    ``counts`` over each one's rows."""
    order = np.argsort(flat, kind="stable")
    flat = flat[order]
    first = np.empty(flat.size, dtype=bool)
    first[:1] = True
    np.not_equal(flat[1:], flat[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    if not starts.size:
        return flat, counts[:0]
    return flat[starts], np.add.reduceat(counts[order], starts)


class CellStore:
    """Cells with fill factor, overflow chains and reclamation triggers.

    Parameters
    ----------
    mapper:
        The placement of the primary cells.
    volume:
        Volume the overflow extent is allocated from (the mapper's disk).
    points_per_cell:
        Physical capacity of one cell (and of one overflow page).
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

        n = mapper.n_cells
        self._occupancy = np.zeros(n, dtype=np.int64)
        self._loaded = np.zeros(n, dtype=bool)
        self._overflow_extent = volume.allocate_blocks(
            mapper.disk_index, max_overflow_pages
        )
        pages = self._overflow_extent.nblocks
        # overflow chains (module docstring): per cell, its chain's
        # points and the index of its last page (-1: no chain); per page
        # of the extent, its owning cell (-1: free) and whether it was
        # written to since the last drain (ingest flushes read that to
        # know which chain pages need disk writes)
        self._chain_points = np.zeros(n, dtype=np.int64)
        self._last_page = np.full(n, -1, dtype=np.int64)
        self._page_cell = np.full(pages, -1, dtype=np.int64)
        self._touched = np.zeros(pages, dtype=bool)
        self._next_overflow_page = 0

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

    def _rows(self, coords, counts) -> tuple[np.ndarray, np.ndarray]:
        """Flat indices of caller coordinates (checked as in
        :meth:`_cells`) and their int64 point counts: one per row when
        ``counts`` is None, else one non-negative integer per row, or
        :class:`DatasetError`."""
        flat = self._cells(coords)
        if counts is None:
            return flat, np.ones(flat.shape, dtype=np.int64)
        counts = np.asarray(counts)
        if counts.dtype.kind not in "iu" or counts.shape != flat.shape \
                or (counts.size and counts.min() < 0):
            raise DatasetError(
                f"counts must hold one non-negative integer per "
                f"coordinate row ({flat.size} rows)"
            )
        return flat, counts.astype(np.int64, copy=False)

    def _cell(self, cell_coord) -> int:
        """One caller coordinate's flat index; each entry must be an
        integer (numpy would read ``(True, 0, 0)`` as row 1)."""
        return int(self._cells(_check_ints("cell_coord", cell_coord))[0])

    # ------------------------------------------------------------------
    # loading and updates
    # ------------------------------------------------------------------

    def bulk_load(self, coords, counts=None) -> int:
        """Initial load honouring the fill factor.

        ``coords`` are cell coordinates (repeats allowed); ``counts``
        optionally gives points per row.  Returns the number of points
        that exceeded the fill-factor budget, less what each cell already
        holds, and went to overflow pages.
        Bad coordinates raise :class:`QueryError` and bad counts
        :class:`DatasetError`, before anything is stored.
        """
        flat, counts = self._rows(coords, counts)
        budget = max(int(self.points_per_cell * self.fill_factor), 1)
        cells, totals = _cell_totals(flat, counts)
        loaded = np.minimum(
            totals, np.maximum(budget - self._occupancy[cells], 0)
        )
        extra = totals - loaded
        over = np.flatnonzero(extra)
        if over.size:
            self._spill(cells[over], extra[over])
        self._occupancy[cells] += loaded
        self._loaded[cells[totals > 0]] = True
        return int(extra.sum())

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
        n = _check_count("n", n, DatasetError)
        absorbed = min(n, max(self.points_per_cell
                              - int(self._occupancy[cell]), 0))
        if absorbed < n:
            self._spill(np.array([cell], dtype=np.int64),
                        np.array([n - absorbed], dtype=np.int64))
        self._occupancy[cell] += absorbed
        self._loaded[cell] = True
        return "cell" if absorbed == n else "overflow"

    def delete(self, cell_coord, n: int = 1) -> None:
        """Remove points, draining overflow chains first (inputs are
        checked as in :meth:`insert`; ``n = 0`` is a no-op)."""
        cell = self._cell(cell_coord)
        # deleting nothing is a no-op
        n = _check_count("n", n, DatasetError, low=0)
        take = min(n, int(self._chain_points[cell]))
        if take:
            self._chain_points[cell] -= take
            used = self._page_cell[:self._next_overflow_page]
            self._trim(np.flatnonzero(used == cell))
        take_cell = min(n - take, int(self._occupancy[cell]))
        self._occupancy[cell] -= take_cell

    def bulk_insert(self, coords, counts=None) -> int:
        """Vectorised :meth:`insert`: absorb into free cell space at full
        capacity (the fill-factor budget only applies to the initial
        load), spill the rest.  Returns the number of overflowed points.
        Inputs are checked as in :meth:`bulk_load`, before anything is
        stored.
        """
        flat, counts = self._rows(coords, counts)
        return self.bulk_insert_flat(*_cell_totals(flat, counts))

    def bulk_insert_flat(self, cells: np.ndarray,
                         counts: np.ndarray) -> int:
        """:meth:`bulk_insert` at flat cell indices: ``cells`` sorted,
        distinct and in range, ``counts`` their int64 point counts (not
        checked; the ingest flush passes its buffered cells as they
        are)."""
        occupancy = self._occupancy[cells]
        absorbed = np.minimum(
            counts, np.maximum(self.points_per_cell - occupancy, 0)
        )
        extra = counts - absorbed
        over = np.flatnonzero(extra)
        if over.size:
            self._spill(cells[over], extra[over])
        self._occupancy[cells] = occupancy + absorbed
        self._loaded[cells[counts > 0]] = True
        return int(extra.sum())

    def _spill(self, cells: np.ndarray, extra: np.ndarray) -> None:
        """Append ``extra`` (>= 1) points to each of ``cells``' chains
        (sorted, distinct): each fills its last page, then takes new
        pages in cell order.  Raises :class:`MappingError`, with nothing
        changed, when the extent cannot hold the new pages."""
        ppc = self.points_per_cell
        held = self._chain_points[cells]
        total = held + extra
        # a chain of p points fills ceil(p / ppc) pages
        new = (total + (ppc - 1)) // ppc - (held + (ppc - 1)) // ppc
        first = self._next_overflow_page
        end = first + int(new.sum())
        if end > self._page_cell.size:
            raise MappingError("overflow extent exhausted")
        # a partly filled last page takes points before any new one
        self._touched[self._last_page[cells[held % ppc > 0]]] = True
        owners = np.repeat(cells, new)
        self._page_cell[first:end] = owners
        self._touched[first:end] = True
        # new pages follow every older one: a grown chain's last page is
        # its highest new page
        np.maximum.at(self._last_page, owners, np.arange(first, end))
        self._chain_points[cells] = total
        self._next_overflow_page = end

    def _trim(self, pages: np.ndarray) -> np.ndarray:
        """Free the pages of chains beyond what their points fill, and
        reset their last pages; ``pages`` lists every page of the chains
        to trim, ascending.  Returns the freed page indices."""
        ppc = self.points_per_cell
        owner = self._page_cell[pages]
        keep = (self._chain_points[owner] + (ppc - 1)) // ppc
        self._last_page[owner] = -1
        if not keep.any():  # every chain emptied: all their pages go
            self._page_cell[pages] = -1
            return pages
        # group the pages by cell, ascending within each chain, and rank
        # them from each chain's first page
        order = np.argsort(owner, kind="stable")
        pages, owner, keep = pages[order], owner[order], keep[order]
        head = np.empty(pages.size, dtype=bool)
        head[:1] = True
        np.not_equal(owner[1:], owner[:-1], out=head[1:])
        at = np.arange(pages.size)
        rank = at - np.maximum.accumulate(np.where(head, at, 0))
        freed = pages[rank >= keep]
        self._page_cell[freed] = -1
        last = rank == keep - 1
        self._last_page[owner[last]] = pages[last]
        return freed

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------

    def read_plan(self, coords) -> RequestPlan:
        """Plan reading the given cells — every one of a cell's
        ``cell_blocks`` blocks — *including* their overflow pages."""
        first = self.mapper.lbns(coords)  # validates coords first
        home = (np.asarray(first, dtype=np.int64).reshape(-1, 1)
                + np.arange(self.mapper.cell_blocks, dtype=np.int64))
        used = self._page_cell[:self._next_overflow_page]
        pages = np.flatnonzero(np.isin(used, self._flat(coords)))
        merged = sorted_unique(np.concatenate(
            [home.ravel(), self._overflow_extent.start + pages]
        ))
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
        pages = np.flatnonzero(self._touched)
        self._touched[pages] = False
        return self._overflow_extent.start + pages

    def chained_cells(self) -> np.ndarray:
        """Sorted flat indices of cells with live overflow chains."""
        used = self._page_cell[:self._next_overflow_page]
        return sorted_unique(used[used >= 0])

    def overflow_page_lbns(self) -> np.ndarray:
        """Sorted LBNs of every live overflow page."""
        used = self._page_cell[:self._next_overflow_page]
        return self._overflow_extent.start + np.flatnonzero(used >= 0)

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
        cells = self.chained_cells()
        if not cells.size:
            return self.points_per_cell
        need = self._occupancy[cells] + self._chain_points[cells]
        return max(self.points_per_cell, int(need.max()))

    def reorganize(self) -> int:
        """Fold overflow chains back into cells where they now fit and
        reset the underflow bookkeeping.  Returns pages freed.  This
        stands in for the paper's "dataset reorganization, an expensive
        operation for any mapping technique"."""
        used = self._page_cell[:self._next_overflow_page]
        pages = np.flatnonzero(used >= 0)
        cells = sorted_unique(used[pages])
        occupancy = self._occupancy[cells]
        held = self._chain_points[cells]
        moved = np.minimum(
            np.maximum(self.points_per_cell - occupancy, 0), held
        )
        self._occupancy[cells] = occupancy + moved
        self._chain_points[cells] = held - moved
        freed = self._trim(pages)
        self._touched[freed] = False
        self._loaded &= self._occupancy > 0
        return int(freed.size)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------

    def stats(self) -> StoreStats:
        used = self._page_cell[:self._next_overflow_page]
        opoints = int(self._chain_points.sum())
        loaded = self._occupancy[self._loaded]
        return StoreStats(
            n_cells=self.mapper.n_cells,
            n_points=int(self._occupancy.sum()) + opoints,
            capacity_per_cell=self.points_per_cell,
            fill_factor=self.fill_factor,
            overflow_pages=int(np.count_nonzero(used >= 0)),
            overflow_points=opoints,
            underflow_cells=int(self.underflow_cells.size),
            # the mean of exact integer sums, as np.mean computes it
            mean_fill=(
                int(loaded.sum()) / loaded.size / self.points_per_cell
                if loaded.size
                else 0.0
            ),
        )
