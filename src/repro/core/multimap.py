"""The MultiMap mapper (paper §4).

Maps an N-D dataset onto one disk of a logical volume as a grid of basic
cubes:

* the dataset is partitioned into ``ceil(S_i / K_i)`` cubes per dimension
  (§4.4), enumerated cube-0-fastest;
* consecutive cubes share track groups when several rows fit on a track
  (``T // K0`` of them — "pack as many basic cubes next to each other
  along the track as possible");
* cubes are laid into zones outer-first and never straddle a zone boundary;
* within a cube, Dim0 runs along the track and Dim_i follows chains of
  ``prod(K1..K_{i-1})``-th adjacent blocks (Figure 5).

Two implementations of the cell->LBN map coexist: the faithful iterative
Figure 5 algorithm (:func:`repro.core.basic_cube.map_cell`, driven through
the LVM's ``get_adjacent``) and the closed form used here.  An adjacency
hop of step *j* advances *j* tracks and shifts the sector by ``A - j*w``
(mod T), where *A* is the drive's angular adjacency offset and *w* its
track skew; composing the hops of a whole coordinate gives::

    track  = cube_track_base + dtrack          dtrack = sum x_i * step_i
    sector = (base + x0 + A*sigma - w*dtrack) mod T,    sigma = sum x_i

which vectorises over millions of cells.  It is evaluated column by
column (:meth:`MultiMapMapper._locate`): each coordinate is a Python int
shared by every cell or an index vector, so a beam's fixed coordinates
cost scalar arithmetic and a range cube's rows broadcast from per-axis
index vectors.  A property test asserts the two implementations agree
cell-for-cell.

The mapper learns each zone's (A, w) *through the LVM interface calls
alone* — the sector deltas of the first and second adjacent blocks are
``A - w`` and ``A - 2w`` — keeping the paper's abstraction boundary intact.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from repro.api.registry import register_layout
from repro.core.planner import CubePlan, plan_basic_cube
from repro.errors import MappingError, _check_count
from repro.lvm.volume import LogicalVolume
from repro.mappings.base import Mapper, RequestPlan, box_columns

__all__ = ["MultiMapMapper", "ZoneAllocation"]


@dataclass(frozen=True)
class ZoneAllocation:
    """One zone's worth of basic cubes."""

    zone_index: int
    first_cube: int          # linear index of the first cube placed here
    n_cubes: int
    packing: int             # cubes per track group in this zone
    track_length: int        # sectors per track (spt)
    offset: int              # angular adjacency offset A in sectors (derived)
    skew: int                # track skew w in sectors (derived)
    first_lbn: int           # start of the allocated, track-aligned extent


@register_layout("multimap", wiring="volume")
class MultiMapMapper(Mapper):
    """MultiMap data placement for one dataset chunk on one disk."""

    name = "multimap"

    def __init__(
        self,
        dims,
        volume: LogicalVolume,
        disk: int = 0,
        *,
        cell_blocks: int = 1,
        strategy: str = "compact",
        plan: CubePlan | None = None,
        zones: list[int] | None = None,
    ):
        # Mapper.__init__ first, so the dims are checked before planning
        super().__init__(dims, extent=None, cell_blocks=cell_blocks, disk=disk)
        self.volume = volume
        self.disk = disk
        zone_infos = volume.zones(disk)
        if zones is not None:
            zone_infos = [zone_infos[i] for i in zones]
        if not zone_infos:
            raise MappingError("no zones available")

        depth = volume.depth(disk)
        # Plan against the first (outermost) usable zone: allocation starts
        # there, and later zones recompute their own slot packing.  Zones
        # whose tracks are too short for K0 are skipped at allocation time;
        # if that starves the allocation, replan conservatively with the
        # shortest track length so every zone stays usable.
        t_outer = zone_infos[0].track_length // cell_blocks
        t_min = min(z.track_length for z in zone_infos) // cell_blocks
        if t_outer < 1:
            raise MappingError("cells larger than a track")
        min_tracks = min(z.tracks for z in zone_infos)
        candidates = [plan] if plan is not None else [
            plan_basic_cube(self.dims, t, min_tracks, depth,
                            strategy=strategy)
            for t in dict.fromkeys((t_outer, t_min))
        ]
        self._zone_infos = zone_infos
        last_error: MappingError | None = None
        for cand in candidates:
            if len(cand.K) != self.n_dims:
                raise MappingError("plan rank does not match dataset rank")
            self.plan = cand
            self.K = cand.K
            self._steps = cand.cube.adjacency_steps()
            self._tracks_per_cube = cand.cube.tracks_per_cube
            self._grid = cand.grid
            grid_strides = [1]
            for g in self._grid[:-1]:
                grid_strides.append(grid_strides[-1] * g)
            self._grid_strides = tuple(grid_strides)
            saved = volume.allocation_cursor(disk)
            try:
                self._allocations = self._allocate(zone_infos)
                last_error = None
                break
            except MappingError as exc:
                volume.restore_allocation(disk, saved)
                last_error = exc
        if last_error is not None:
            raise last_error
        self._refresh_records()

    def _refresh_records(self) -> None:
        """Rebuild the vectorised per-allocation lookup arrays."""
        self._rec_first_cube = np.array(
            [a.first_cube for a in self._allocations], dtype=np.int64
        )
        self._rec_pack = np.array(
            [a.packing for a in self._allocations], dtype=np.int64
        )
        self._rec_spt = np.array(
            [a.track_length for a in self._allocations], dtype=np.int64
        )
        self._rec_offset = np.array(
            [a.offset for a in self._allocations], dtype=np.int64
        )
        self._rec_skew = np.array(
            [a.skew for a in self._allocations], dtype=np.int64
        )
        self._rec_lbn = np.array(
            [a.first_lbn for a in self._allocations], dtype=np.int64
        )

    # ------------------------------------------------------------------
    # allocation
    # ------------------------------------------------------------------

    def _derive_offsets(self, zone_first_lbn: int, spt: int) -> tuple[int, int]:
        """Learn (A, w) from the interface calls alone.

        For a track-aligned LBN, the first adjacent block sits at sector
        ``(A - w) mod spt`` and the second at ``(A - 2w) mod spt``; two
        calls therefore separate the angular adjacency offset *A* from the
        track skew *w*.  Depth-1 volumes expose only ``A - w``, which is
        all their single-step mappings ever use.
        """
        vol, disk = self.volume, self.disk
        a1 = vol.get_adjacent(disk, zone_first_lbn, 1)
        lo1, _ = vol.get_track_boundaries(disk, a1)
        d1 = a1 - lo1  # (A - w) mod spt
        if vol.depth(disk) < 2:
            return d1, 0
        a2 = vol.get_adjacent(disk, zone_first_lbn, 2)
        lo2, _ = vol.get_track_boundaries(disk, a2)
        d2 = a2 - lo2  # (A - 2w) mod spt
        w = (d1 - d2) % spt
        a = (2 * d1 - d2) % spt
        return a, w

    def _allocate(
        self, zone_infos, n_cubes: int | None = None, first_cube: int = 0
    ) -> list[ZoneAllocation]:
        """Allocate ``n_cubes`` basic cubes (default: the whole plan),
        assigning them linear indices starting at ``first_cube``."""
        vol, disk = self.volume, self.disk
        tpc = self._tracks_per_cube
        k0_sectors = self.K[0] * self.cell_blocks
        remaining = self.plan.total_cubes if n_cubes is None else n_cubes
        out: list[ZoneAllocation] = []
        next_cube = first_cube
        for z in zone_infos:
            if remaining == 0:
                break
            packing = z.track_length // k0_sectors
            if packing == 0:
                continue
            free_groups = vol.free_tracks_in_zone(disk, z.index) // tpc
            if free_groups == 0:
                continue
            groups_needed = -(-remaining // packing)
            groups = min(groups_needed, free_groups)
            extent = vol.allocate_tracks(disk, groups * tpc, zone_index=z.index)
            n_here = min(remaining, groups * packing)
            a_off, w_off = self._derive_offsets(z.first_lbn, z.track_length)
            out.append(
                ZoneAllocation(
                    zone_index=z.index,
                    first_cube=next_cube,
                    n_cubes=n_here,
                    packing=packing,
                    track_length=z.track_length,
                    offset=a_off,
                    skew=w_off,
                    first_lbn=extent.start,
                )
            )
            next_cube += n_here
            remaining -= n_here
        if remaining:
            raise MappingError(
                f"allocation needs {remaining + next_cube - first_cube}"
                f" basic cubes; only {next_cube - first_cube} fit on disk"
                f" {disk}"
            )
        return out

    # ------------------------------------------------------------------
    # closed-form cell mapping
    # ------------------------------------------------------------------

    def _cube_slots(self, cube_idx):
        """(rec, group, slot) of each linear cube index: its zone
        allocation record, track group within it and slot on the
        group's tracks."""
        rec = (
            np.searchsorted(self._rec_first_cube, cube_idx, side="right") - 1
        )
        group, slot = divmod(
            cube_idx - self._rec_first_cube[rec], self._rec_pack[rec]
        )
        return rec, group, slot

    def _locate(self, cols):
        """(rec, track_offset_lbn, sector, spt) for each cell.

        ``cols`` holds one coordinate per dimension: a Python int shared
        by every cell, or an int64 array; the arrays broadcast together,
        and so do the results.  A beam's fixed coordinates therefore
        cost scalar arithmetic, and a box's rows come from per-axis
        index vectors (:func:`~repro.mappings.base.box_columns`).

        ``track_offset_lbn`` is the LBN of the cell's track start relative
        to the zone allocation's first LBN; adding ``sector`` gives the
        final LBN.
        """
        K = self.K
        cube_idx, rel0 = divmod(cols[0], K[0])
        dtrack = sigma = 0
        for x, k, g, step in zip(cols[1:], K[1:], self._grid_strides[1:],
                                 self._steps):
            c, r = divmod(x, k)
            cube_idx = cube_idx + c * g
            dtrack = dtrack + r * step
            sigma = sigma + r
        rec, group, slot = self._cube_slots(cube_idx)

        spt = self._rec_spt[rec]
        offset = self._rec_offset[rec]
        skew = self._rec_skew[rec]
        cb = self.cell_blocks
        base = slot * (K[0] * cb)
        shift = (offset * sigma - skew * dtrack) % spt
        if cb > 1:
            # Multi-block cells must stay cell-aligned so no cell straddles
            # a track end: round the angular shift up to a cell boundary
            # and wrap within the largest cell-aligned prefix of the track.
            spt_eff = (spt // cb) * cb
            shift = (-(-shift // cb) * cb) % spt_eff
            sector = (base + rel0 * cb + shift) % spt_eff
        else:
            sector = (base + rel0 + shift) % spt
        track_delta = group * self._tracks_per_cube + dtrack
        return rec, track_delta, sector, spt

    def _cell_lbns(self, cols):
        """LBN of each cell of :meth:`_locate`'s ``cols``."""
        rec, track_delta, sector, spt = self._locate(cols)
        return self._rec_lbn[rec] + track_delta * spt + sector

    def lbns(self, coords) -> np.ndarray:
        return self._cell_lbns(self._check_coords(coords).T)

    def write_extents(self, coords) -> tuple[np.ndarray, np.ndarray]:
        """Whole-cube write extents covering ``coords`` (§4.6 bulk load).

        A bulk load flushes buffered points as *whole basic cubes*: each
        touched cube's track group is laid down start to end as one long
        sequential run — "MultiMap can be used to allocate basic cubes
        to hold new points while preserving spatial locality" — instead
        of scattering cell-sized writes across the semi-sequential
        placement (whose ascending-LBN hops land just behind the head
        and pay near-full revolutions).  Returns sorted unique
        ``(starts, lengths)`` covering extents; packed cube groups share
        one extent.
        """
        arr = self._check_coords(coords)
        cube_idx = (arr // self.K) @ self._grid_strides
        rec, group, _ = self._cube_slots(cube_idx)
        spt = self._rec_spt[rec]
        tpc = self._tracks_per_cube
        starts = self._rec_lbn[rec] + group * tpc * spt
        uniq, idx = np.unique(starts, return_index=True)
        return uniq, (tpc * spt)[idx]

    def append_slabs(self, n_cells: int) -> None:
        """Bulk-append ``n_cells`` along the last dimension (§4.6).

        Observation-based applications "generate large amounts of new data
        at regular intervals and append the new data to the existing
        database in a bulk-load fashion.  In such applications, MultiMap
        can be used to allocate basic cubes to hold new points while
        preserving spatial locality."

        The last dimension is the slowest-varying in the cube enumeration,
        so growth appends cubes at the end of the linear order: existing
        cells keep their LBNs, new cells first fill the partial cubes of
        the final slab and fresh basic cubes are allocated only when a new
        cube row starts.
        """
        n_cells = _check_count("n_cells", n_cells, MappingError)
        old_dims = self.dims
        new_last = old_dims[-1] + n_cells
        k_last = self.K[-1]
        new_g_last = -(-new_last // k_last)
        added_rows = new_g_last - self._grid[-1]
        if added_rows > 0:
            per_row = int(
                np.prod(self._grid[:-1], dtype=np.int64)
            )
            first_new = self.plan.total_cubes
            saved = self.volume.allocation_cursor(self.disk)
            try:
                new_allocs = self._allocate(
                    self._zone_infos,
                    n_cubes=added_rows * per_row,
                    first_cube=first_new,
                )
            except MappingError:
                self.volume.restore_allocation(self.disk, saved)
                raise
            self._allocations = self._allocations + new_allocs
            self._refresh_records()
        self.dims = old_dims[:-1] + (new_last,)
        self._grid = self._grid[:-1] + (new_g_last,)
        self.plan = dataclasses.replace(
            self.plan,
            dims=self.dims,
            grid=self._grid,
            total_cubes=int(np.prod(self._grid, dtype=np.int64)),
        )
        # grid strides only involve grid[:-1]; they are unchanged.

    def first_lbn_of_cube(self, cube_coord) -> int:
        """LBN storing cell (0,..,0) of a cube — the Figure 5 anchor."""
        origin = np.asarray(cube_coord, dtype=np.int64) * self.K
        return int(self.lbns(origin[np.newaxis, :])[0])

    # ------------------------------------------------------------------
    # query planning
    # ------------------------------------------------------------------

    def beam_plan(self, axis, fixed, lo=0, hi=None) -> RequestPlan:
        axis, fixed, lo, hi = self._check_beam(axis, fixed, lo, hi)
        if axis == 0:
            starts, lengths = self._rows_to_runs(fixed[1:], lo, hi)
            order = np.argsort(starts, kind="stable")
            return RequestPlan.from_arrays(
                starts[order], lengths[order], "sorted", 0
            )
        # Semi-sequential path: one cell per request, already in path
        # (= ascending LBN) order.
        cols = list(fixed)
        cols[axis] = np.arange(lo, hi, dtype=np.int64)
        lbns = self._cell_lbns(cols)
        lengths = np.full(lbns.shape, self.cell_blocks, dtype=np.int64)
        return RequestPlan.from_arrays(lbns, lengths, "fifo", 0)

    def range_plan(self, lo, hi) -> RequestPlan:
        lo, hi = self._check_box(lo, hi)
        starts, lengths = self._rows_to_runs(
            box_columns(lo[1:], hi[1:]), lo[0], hi[0]
        )
        if self.n_dims == 1:
            return RequestPlan.from_arrays(starts, lengths, "sorted")
        order = np.argsort(starts, kind="stable")
        return RequestPlan.from_arrays(starts[order], lengths[order], "sptf")

    def _rows_to_runs(self, cols, x0_lo: int, x0_hi: int):
        """Runs covering x0 in [x0_lo, x0_hi) for each row; ``cols``
        holds the rows' coordinates on Dim1 onwards, as :meth:`_locate`
        takes them, and the runs follow the rows' ravel order.

        Rows are split at basic-cube columns (x0 crossing K0) and at track
        wrap-around (a skew-shifted row may straddle the track end, in
        which case it continues at sector 0 of the same track).
        """
        k0 = self.K[0]
        cb = self.cell_blocks
        all_starts = []
        all_lengths = []
        c_lo, c_hi = x0_lo // k0, (x0_hi - 1) // k0
        for c0 in range(c_lo, c_hi + 1):
            seg_lo = max(x0_lo, c0 * k0)
            seg_hi = min(x0_hi, (c0 + 1) * k0)
            seg_len = (seg_hi - seg_lo) * cb
            rec, track_delta, sector, spt = self._locate((seg_lo, *cols))
            base_lbn = np.ravel(self._rec_lbn[rec] + track_delta * spt)
            # rows wrap within the cell-aligned prefix of the track
            wrap_at = spt if cb == 1 else (spt // cb) * cb
            overflow = np.ravel(sector + seg_len - wrap_at)
            wraps = overflow > 0
            all_starts.append(base_lbn + np.ravel(sector))
            all_lengths.append(np.where(wraps, seg_len - overflow, seg_len))
            if bool(wraps.any()):
                all_starts.append(base_lbn[wraps])
                all_lengths.append(overflow[wraps])
        starts = np.concatenate(all_starts)
        lengths = np.concatenate(all_lengths)
        return starts, lengths
