"""Executor behaviour with multi-block cells and partial beams."""

import numpy as np

from repro.api import Dataset
from repro.query import BeamQuery, RangeQuery


def make(small_model, dims, layout="naive", **opts):
    """A one-disk dataset on the small test disk (D = 16)."""
    return Dataset.create(dims, layout, small_model, depth=16, **opts)


def beam(ds, axis, fixed, lo=0, hi=None):
    return ds.storage.run_query(BeamQuery(axis, tuple(fixed), lo, hi))


def box(ds, lo, hi, *, rng=None):
    return ds.storage.run_query(RangeQuery(tuple(lo), tuple(hi)), rng=rng)


class TestMultiBlockCells:
    def test_naive_cell_blocks_counts(self, small_model):
        m = make(small_model, (20, 10, 8), cell_blocks=2)
        res = beam(m, 0, (0, 3, 4))
        assert res.n_cells == 20
        assert res.n_blocks == 40

    def test_multimap_cell_blocks_counts(self, small_model):
        m = make(small_model, (20, 10, 8), "multimap", cell_blocks=3)
        res = box(m, (0, 0, 0), (10, 5, 4))
        assert res.n_cells == 200
        assert res.n_blocks >= 600

    def test_larger_cells_cost_more_transfer(self, small_model):
        m1 = make(small_model, (20, 10, 8), "multimap", strategy="volume")
        m3 = make(small_model, (20, 10, 8), "multimap", cell_blocks=4,
                  strategy="volume")
        rng1, rng2 = np.random.default_rng(4), np.random.default_rng(4)
        t1 = box(m1, (0, 0, 0), (20, 10, 8), rng=rng1).total_ms
        t4 = box(m3, (0, 0, 0), (20, 10, 8), rng=rng2).total_ms
        assert t4 > t1 * 2


class TestPartialBeams:
    def test_beam_with_bounds(self, small_model):
        m = make(small_model, (30, 10, 8))
        res = beam(m, 0, (0, 2, 2), lo=5, hi=25)
        assert res.n_cells == 20
        assert res.n_blocks == 20

    def test_run_query_beam_with_bounds(self, small_model):
        m = make(small_model, (30, 10, 8))
        q = BeamQuery(axis=1, fixed=(4, 0, 3), lo=2, hi=9)
        res = m.storage.run_query(q)
        assert res.n_cells == 7

    def test_multimap_partial_beam_crossing_cubes(self, small_model):
        m = make(small_model, (40, 12, 10), "multimap")
        res = beam(m, 1, (7, 0, 3), lo=1, hi=12)
        assert res.n_cells == 11
        assert res.n_blocks == 11
