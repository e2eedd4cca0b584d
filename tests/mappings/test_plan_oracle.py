"""Beam and range plans pinned to the coordinate-matrix planning they
replaced.

Every layout plans from per-axis index vectors: a linear beam is one
``arange`` of flat indices, a naive box lists its runs from broadcast
index vectors, and MultiMap's closed form takes one column per dimension
(a Python int shared by every cell, or an index vector).  The classes
below keep the earlier planning verbatim as references: build the
query's (n_cells, n_dims) coordinate matrix (``_beam_coords`` or
``enumerate_box``), map it with the strides, coalesce.  They read the
live mapper's placement (rank table, MultiMap's zone allocation records)
but none of its planning code, and the properties require exactly equal
int64 starts and lengths, policy and ``merge_gap`` for every registered
layout.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import Dataset
from repro.api.registry import LAYOUTS
from repro.core import MultiMapMapper
from repro.disk import synthetic_disk
from repro.errors import QueryError
from repro.lvm import LogicalVolume
from repro.mappings.base import RequestPlan, coalesce_ranks, enumerate_box
from repro.mappings.naive import NaiveMapper


def reference_coalesce_ranks(ranks):
    ranks = np.asarray(ranks, dtype=np.int64)
    if ranks.size == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    breaks = np.flatnonzero(np.diff(ranks) != 1)
    starts_idx = np.concatenate(([0], breaks + 1))
    ends_idx = np.concatenate((breaks, [ranks.size - 1]))
    starts = ranks[starts_idx]
    lengths = ranks[ends_idx] - starts + 1
    return starts, lengths


class ReferenceMapper:
    """The coordinate-matrix helpers every layout shared."""

    def __init__(self, mapper):
        self.mapper = mapper
        self.dims = mapper.dims
        self.n_dims = len(self.dims)
        self.cell_blocks = mapper.cell_blocks
        self.extent = mapper.extent

    def _beam_coords(self, axis, fixed, lo, hi) -> np.ndarray:
        if not 0 <= axis < self.n_dims:
            raise QueryError(f"axis {axis} out of range")
        hi = self.dims[axis] if hi is None else int(hi)
        if not 0 <= lo < hi <= self.dims[axis]:
            raise QueryError(f"beam span [{lo}, {hi}) invalid")
        fixed = tuple(fixed)
        if len(fixed) != self.n_dims:
            raise QueryError("fixed must have one entry per dimension")
        for d, v in enumerate(fixed):
            if d != axis and not 0 <= int(v) < self.dims[d]:
                raise QueryError(f"fixed[{d}]={v} out of range")
        count = hi - lo
        coords = np.empty((count, self.n_dims), dtype=np.int64)
        for d, v in enumerate(fixed):
            coords[:, d] = 0 if d == axis else int(v)
        coords[:, axis] = np.arange(lo, hi)
        return coords

    def _check_box(self, lo, hi):
        lo = tuple(int(v) for v in lo)
        hi = tuple(int(v) for v in hi)
        if len(lo) != self.n_dims or len(hi) != self.n_dims:
            raise QueryError("box rank does not match dataset rank")
        for d in range(self.n_dims):
            if not 0 <= lo[d] < hi[d] <= self.dims[d]:
                raise QueryError(
                    f"box [{lo[d]}, {hi[d]}) invalid on axis {d}"
                )
        return lo, hi


class ReferenceLinear(ReferenceMapper):
    """Naive and the curves: rank of ``coords @ strides``."""

    def __init__(self, mapper):
        super().__init__(mapper)
        strides = [1]
        for s in self.dims[:-1]:
            strides.append(strides[-1] * s)
        self._strides = np.asarray(strides, dtype=np.int64)

    def rank(self, coords):
        flat = coords @ self._strides
        if isinstance(self.mapper, NaiveMapper):
            return flat
        return self.mapper.rank_table()[flat]

    def lbns(self, coords):
        return self.extent.start + self.rank(coords) * self.cell_blocks

    def plan_from_ranks(self, ranks, policy="sorted", merge_gap=None):
        ranks = np.sort(np.asarray(ranks, dtype=np.int64))
        starts, lengths = reference_coalesce_ranks(ranks)
        cb = self.cell_blocks
        return RequestPlan.from_arrays(
            self.extent.start + starts * cb, lengths * cb, policy, merge_gap
        )

    def beam_plan(self, axis, fixed, lo=0, hi=None):
        coords = self._beam_coords(axis, fixed, lo, hi)
        return self.plan_from_ranks(self.rank(coords), "sorted", 0)

    def range_plan(self, lo, hi):
        if isinstance(self.mapper, NaiveMapper):
            return self._naive_range_plan(lo, hi)
        lo, hi = self._check_box(lo, hi)
        grid = self.mapper.rank_table().reshape(self.dims[::-1])
        box = tuple(slice(a, b) for a, b in zip(lo[::-1], hi[::-1]))
        return self.plan_from_ranks(grid[box].ravel())

    def _naive_range_plan(self, lo, hi):
        lo, hi = self._check_box(lo, hi)
        row_len = (hi[0] - lo[0]) * self.cell_blocks
        if self.n_dims == 1:
            rows = np.zeros((1, 1), dtype=np.int64)
        else:
            rows = enumerate_box(lo[1:], hi[1:])
        anchors = np.empty((rows.shape[0], self.n_dims), dtype=np.int64)
        anchors[:, 0] = lo[0]
        if self.n_dims > 1:
            anchors[:, 1:] = rows
        starts = self.extent.start + self.rank(anchors) * self.cell_blocks
        starts.sort()
        merged = np.flatnonzero(starts[1:] != starts[:-1] + row_len)
        run_start_idx = np.concatenate(([0], merged + 1))
        run_end_idx = np.concatenate((merged, [starts.size - 1]))
        return RequestPlan.from_arrays(
            starts[run_start_idx],
            starts[run_end_idx] + row_len - starts[run_start_idx],
            "sorted",
        )


class ReferenceMultiMap(ReferenceMapper):
    """MultiMap's closed form over a coordinate matrix."""

    def __init__(self, mapper):
        super().__init__(mapper)
        self.K = mapper.K
        self._K_arr = np.asarray(self.K, dtype=np.int64)
        grid_strides = [1]
        for g in mapper._grid[:-1]:
            grid_strides.append(grid_strides[-1] * g)
        self._grid_strides = np.asarray(grid_strides, dtype=np.int64)
        self._steps = mapper._steps
        self._tracks_per_cube = mapper._tracks_per_cube
        for name in ("_rec_first_cube", "_rec_pack", "_rec_spt",
                     "_rec_offset", "_rec_skew", "_rec_lbn"):
            setattr(self, name, getattr(mapper, name))

    def _locate(self, coords):
        cube_coord = coords // self._K_arr
        rel = coords - cube_coord * self._K_arr
        cube_idx = cube_coord @ self._grid_strides
        rec = (
            np.searchsorted(self._rec_first_cube, cube_idx, side="right") - 1
        )
        local = cube_idx - self._rec_first_cube[rec]
        pack = self._rec_pack[rec]
        group = local // pack
        slot = local - group * pack

        dtrack = np.zeros(coords.shape[0], dtype=np.int64)
        sigma = np.zeros(coords.shape[0], dtype=np.int64)
        for i in range(1, self.n_dims):
            dtrack += rel[:, i] * self._steps[i - 1]
            sigma += rel[:, i]

        spt = self._rec_spt[rec]
        offset = self._rec_offset[rec]
        skew = self._rec_skew[rec]
        cb = self.cell_blocks
        base = slot * (self.K[0] * cb)
        shift = (offset * sigma - skew * dtrack) % spt
        if cb > 1:
            spt_eff = (spt // cb) * cb
            shift = (-(-shift // cb) * cb) % spt_eff
            sector = (base + rel[:, 0] * cb + shift) % spt_eff
        else:
            sector = (base + rel[:, 0] + shift) % spt
        track_delta = group * self._tracks_per_cube + dtrack
        return rec, track_delta, sector, spt

    def lbns(self, coords):
        rec, track_delta, sector, spt = self._locate(coords)
        return self._rec_lbn[rec] + track_delta * spt + sector

    def beam_plan(self, axis, fixed, lo=0, hi=None):
        coords = self._beam_coords(axis, fixed, lo, hi)
        if axis == 0:
            starts, lengths = self._rows_to_runs(
                coords[:1], int(coords[0, 0]), int(coords[-1, 0]) + 1
            )
            order = np.argsort(starts, kind="stable")
            return RequestPlan.from_arrays(
                starts[order], lengths[order], "sorted", 0
            )
        lbns = self.lbns(coords)
        lengths = np.full(lbns.shape, self.cell_blocks, dtype=np.int64)
        return RequestPlan.from_arrays(lbns, lengths, "fifo", 0)

    def range_plan(self, lo, hi):
        lo, hi = self._check_box(lo, hi)
        if self.n_dims == 1:
            rows = np.zeros((1, 1), dtype=np.int64)
            rows[0, 0] = lo[0]
            starts, lengths = self._rows_to_runs(rows, lo[0], hi[0])
            return RequestPlan.from_arrays(starts, lengths, "sorted")
        row_coords = enumerate_box(lo[1:], hi[1:])
        anchors = np.empty(
            (row_coords.shape[0], self.n_dims), dtype=np.int64
        )
        anchors[:, 0] = lo[0]
        anchors[:, 1:] = row_coords
        starts, lengths = self._rows_to_runs(anchors, lo[0], hi[0])
        order = np.argsort(starts, kind="stable")
        return RequestPlan.from_arrays(starts[order], lengths[order], "sptf")

    def _rows_to_runs(self, anchors, x0_lo, x0_hi):
        k0 = self.K[0]
        cb = self.cell_blocks
        all_starts = []
        all_lengths = []
        c_lo, c_hi = x0_lo // k0, (x0_hi - 1) // k0
        for c0 in range(c_lo, c_hi + 1):
            seg_lo = max(x0_lo, c0 * k0)
            seg_hi = min(x0_hi, (c0 + 1) * k0)
            seg_len = (seg_hi - seg_lo) * cb
            coords = anchors.copy()
            coords[:, 0] = seg_lo
            rec, track_delta, sector, spt = self._locate(coords)
            base_lbn = self._rec_lbn[rec] + track_delta * spt
            wrap_at = spt if cb == 1 else (spt // cb) * cb
            overflow = sector + seg_len - wrap_at
            wraps = overflow > 0
            first_len = np.where(wraps, wrap_at - sector, seg_len)
            all_starts.append(base_lbn + sector)
            all_lengths.append(first_len)
            if bool(wraps.any()):
                all_starts.append(base_lbn[wraps])
                all_lengths.append(overflow[wraps])
        starts = np.concatenate(all_starts)
        lengths = np.concatenate(all_lengths)
        return starts, lengths


def reference(mapper):
    if isinstance(mapper, MultiMapMapper):
        return ReferenceMultiMap(mapper)
    return ReferenceLinear(mapper)


def assert_same_array(got, want):
    assert got.dtype == np.int64
    assert got.shape == want.shape
    assert np.array_equal(got, want)


def assert_same_plan(got, want):
    assert got.policy == want.policy
    assert got.merge_gap == want.merge_gap
    assert_same_array(got.starts, want.starts)
    assert_same_array(got.lengths, want.lengths)


@settings(max_examples=200, deadline=None)
@given(ranks=st.lists(st.integers(-40, 40), max_size=30),
       distinct_sorted=st.booleans())
def test_coalesce_ranks_matches_reference(ranks, distinct_sorted):
    """On sorted distinct ranks, what the mappers pass, and on unsorted
    or repeated ones, since the buffer pool coalesces its misses in
    plan order."""
    if distinct_sorted:
        ranks = sorted(set(ranks))
    arr = np.asarray(ranks, dtype=np.int64)
    for got, want in zip(coalesce_ranks(arr), reference_coalesce_ranks(arr)):
        assert_same_array(got, want)


# 1-D to 4-D grids; axes of size 1, powers of two and everything between
grid_dims = st.integers(1, 4).flatmap(
    lambda nd: st.tuples(*[st.integers(1, 9 if nd < 4 else 5)] * nd)
)


@st.composite
def boxes(draw, dims):
    """A box that often spans an axis or touches one of its edges, so
    naive's full-width merges and MultiMap's edge rows are exercised."""
    lo, hi = [], []
    for s in dims:
        kind = draw(st.sampled_from(["full", "low", "high", "inner"]))
        a = 0 if kind in ("full", "low") else draw(st.integers(0, s - 1))
        b = s if kind in ("full", "high") else draw(st.integers(a + 1, s))
        lo.append(a)
        hi.append(b)
    return tuple(lo), tuple(hi)


@st.composite
def beams(draw, dims):
    """A beam with a full or partial span; the axis entry of ``fixed``
    is any integer, since it is ignored."""
    axis = draw(st.integers(0, len(dims) - 1))
    fixed = tuple(
        draw(st.integers(-3, 20)) if d == axis else draw(st.integers(0, s - 1))
        for d, s in enumerate(dims)
    )
    lo = draw(st.integers(0, dims[axis] - 1))
    hi = draw(st.one_of(st.none(), st.integers(lo + 1, dims[axis])))
    return axis, fixed, lo, hi


def check_mapper(mapper, data, n_queries=3):
    """Every cell's LBN, then a few beams and boxes, against the
    reference."""
    ref = reference(mapper)
    every = enumerate_box((0,) * mapper.n_dims, mapper.dims)
    assert_same_array(mapper.lbns(every), ref.lbns(every))
    for _ in range(n_queries):
        axis, fixed, lo, hi = data.draw(beams(mapper.dims))
        assert_same_plan(mapper.beam_plan(axis, fixed, lo, hi),
                         ref.beam_plan(axis, fixed, lo, hi))
        lo, hi = data.draw(boxes(mapper.dims))
        assert_same_plan(mapper.range_plan(lo, hi), ref.range_plan(lo, hi))


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(layout=st.sampled_from(LAYOUTS.names()), dims=grid_dims,
       cell_blocks=st.integers(1, 3), shards=st.integers(1, 3),
       data=st.data())
def test_chunk_plans_match_reference(layout, dims, cell_blocks, shards,
                                     data):
    """Every registered layout, on every chunk of a 1- to 3-disk
    dataset."""
    ds = Dataset.create(dims, layout=layout, drive="minidrive",
                        cell_blocks=cell_blocks, seed=0)
    if shards > 1:
        ds.with_shards(shards)
    for copies in ds.storage.copy_mappers:
        check_mapper(copies[0], data)


def multizone_volume():
    """Three short zones, so a small grid's allocation crosses zones."""
    model = synthetic_disk(
        "oracle-zones",
        settle_ms=1.0,
        settle_cylinders=8,
        surfaces=2,
        zone_specs=[(12, 40), (12, 32), (200, 24)],
    )
    return LogicalVolume([model])


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(dims=grid_dims, cell_blocks=st.integers(1, 3),
       appended=st.integers(0, 7), data=st.data())
def test_multimap_across_zones_and_appends_matches_reference(
        dims, cell_blocks, appended, data):
    """MultiMap with several zone allocation records: a pre-filled
    first zone pushes the grid across zone boundaries at a drawn point,
    and §4.6 appends add records of their own."""
    vol = multizone_volume()
    used = data.draw(st.integers(0, vol.free_tracks_in_zone(0, 0)))
    if used:
        vol.allocate_tracks(0, used, zone_index=0)
    mapper = MultiMapMapper(dims, vol, cell_blocks=cell_blocks)
    if appended:
        mapper.append_slabs(appended)
    check_mapper(mapper, data)
