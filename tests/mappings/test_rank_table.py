"""The curve mappers' dense rank table, pinned to the encode + binary
search rank it replaced.

``ReferenceRank`` is that rank kept verbatim: a sorted table of every
cell's curve code (built in slabs along the last axis) and one
``encode`` + ``np.searchsorted`` per query.  The property below requires
``rank``, ``lbns``, ``beam_plan`` and ``range_plan`` to equal it exactly
for all three curves.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.lvm import Extent
from repro.mappings import (
    GrayMapper,
    HilbertMapper,
    NaiveMapper,
    ZOrderMapper,
    enumerate_box,
)

CURVES = [ZOrderMapper, HilbertMapper, GrayMapper]


class ReferenceRank:
    """Rank = position of the cell's code among the grid's sorted codes."""

    def __init__(self, mapper):
        self.mapper = mapper
        dims = mapper.dims
        n = mapper.n_cells
        table = np.empty(n, dtype=np.int64)
        last = dims[-1]
        per_slab = n // last
        lo = [0] * len(dims)
        hi = list(dims)
        for s in range(last):
            lo[-1], hi[-1] = s, s + 1
            coords = enumerate_box(lo, hi)
            table[s * per_slab:(s + 1) * per_slab] = mapper.encode(coords)
        table.sort()
        self.code_table = table

    def rank(self, coords):
        return np.searchsorted(self.code_table, self.mapper.encode(coords))

    def lbns(self, coords):
        m = self.mapper
        return m.extent.start + self.rank(coords) * m.cell_blocks

    def beam_plan(self, axis, fixed, lo, hi):
        hi = self.mapper.dims[axis] if hi is None else hi
        coords = np.tile(np.asarray(fixed, dtype=np.int64), (hi - lo, 1))
        coords[:, axis] = np.arange(lo, hi)
        return self.mapper.plan_from_ranks(self.rank(coords), "sorted", 0)

    def range_plan(self, lo, hi):
        return self.mapper.plan_from_ranks(self.rank(enumerate_box(lo, hi)))


def make(cls, dims, cell_blocks=1, start=37):
    n = int(np.prod(dims)) * cell_blocks
    return cls(dims, Extent(0, start, n), cell_blocks)


def assert_same_array(got, want):
    assert got.dtype == np.int64
    assert got.shape == want.shape
    assert np.array_equal(got, want)


def assert_same_plan(got, want):
    assert got.policy == want.policy
    assert got.merge_gap == want.merge_gap
    assert_same_array(got.starts, want.starts)
    assert_same_array(got.lengths, want.lengths)


# 1-D to 4-D grids; axes of size 1, powers of two and everything between
grid_dims = st.integers(1, 4).flatmap(
    lambda nd: st.tuples(*[st.integers(1, 9 if nd < 4 else 6)] * nd)
)


@st.composite
def boxes(draw, dims):
    lo, hi = [], []
    for s in dims:
        a = draw(st.integers(0, s - 1))
        lo.append(a)
        hi.append(draw(st.integers(a + 1, s)))
    return tuple(lo), tuple(hi)


@st.composite
def beams(draw, dims):
    axis = draw(st.integers(0, len(dims) - 1))
    fixed = tuple(draw(st.integers(0, s - 1)) for s in dims)
    lo = draw(st.integers(0, dims[axis] - 1))
    hi = draw(st.one_of(st.none(), st.integers(lo + 1, dims[axis])))
    return axis, fixed, lo, hi


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cls=st.sampled_from(CURVES), dims=grid_dims,
       cell_blocks=st.sampled_from([1, 3]), data=st.data())
def test_rank_table_matches_reference(cls, dims, cell_blocks, data):
    m = make(cls, dims, cell_blocks)
    ref = ReferenceRank(m)

    every = enumerate_box((0,) * len(dims), dims)
    assert_same_array(m.rank(every), ref.rank(every))
    assert_same_array(m.lbns(every), ref.lbns(every))

    rows = data.draw(st.lists(st.integers(0, every.shape[0] - 1),
                              max_size=12))
    cells = every[rows]
    assert_same_array(m.lbns(cells), ref.lbns(cells))

    axis, fixed, lo, hi = data.draw(beams(dims))
    assert_same_plan(m.beam_plan(axis, fixed, lo, hi),
                     ref.beam_plan(axis, fixed, lo, hi))

    lo, hi = data.draw(boxes(dims))
    assert_same_plan(m.range_plan(lo, hi), ref.range_plan(lo, hi))


@pytest.mark.parametrize("cls", CURVES)
def test_table_is_one_int64_per_cell_in_naive_order(cls):
    dims = (5, 1, 6, 3)
    m = make(cls, dims)
    table = m.rank_table()
    assert table.dtype == np.int64
    assert table.shape == (m.n_cells,)
    assert not table.flags.writeable
    # slot i holds the rank of the cell Naive stores at rank i
    naive = make(NaiveMapper, dims)
    every = enumerate_box((0,) * len(dims), dims)
    assert_same_array(table[naive.rank(every)], ReferenceRank(m).rank(every))


@pytest.mark.parametrize("cls", CURVES)
def test_queries_never_encode_once_the_table_exists(cls, monkeypatch):
    """Nor does the build: it takes its codes from the box encoder."""
    m = make(cls, (6, 5, 7), cell_blocks=3)

    def no_encode(coords):
        raise AssertionError("per-coordinate encode called")

    monkeypatch.setattr(m, "encode", no_encode)
    m.drop_cache()
    m.rank_table()
    m.rank(enumerate_box((0, 0, 0), (2, 2, 2)))
    m.lbns([[1, 2, 3]])
    m.beam_plan(1, (2, 0, 3))
    m.range_plan((1, 1, 1), (4, 5, 6))


def test_build_peak_memory_is_bounded():
    """The build reuses its code buffer as the table and inverts the
    argsort chunk by chunk: its transient peak stays within 2.5x the
    finished table."""
    m = make(HilbertMapper, (128, 64, 64))
    m.drop_cache()
    tracemalloc.start()
    try:
        table = m.rank_table()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        m.drop_cache()
    assert table.nbytes == 8 * m.n_cells
    assert peak <= 2.5 * table.nbytes


@pytest.mark.parametrize("cls", CURVES)
def test_many_dims_table_matches_reference_with_bounded_peak(cls):
    """Ten dims of three cells: Z-order and Gray use their box encoders
    (peak within 2.5x the table); above four dims the Hilbert box is
    enumerated and encoded cell by cell, so its peak holds one slab
    group's coordinate matrix (a third of this grid, ten int64 per cell)
    and the per-coordinate encoder's temporaries, about 11x the table."""
    dims = (3,) * 10
    m = make(cls, dims)
    m.drop_cache()
    tracemalloc.start()
    try:
        table = m.rank_table()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    every = enumerate_box((0,) * len(dims), dims)
    assert_same_array(m.rank(every), ReferenceRank(m).rank(every))
    m.drop_cache()
    assert peak <= (16 if cls is HilbertMapper else 2.5) * table.nbytes
