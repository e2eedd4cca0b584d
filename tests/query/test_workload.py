"""Tests for query definitions and generators."""

import numpy as np
import pytest

from repro.errors import QueryError
from repro.query import (
    BeamQuery,
    RangeQuery,
    random_beam,
    random_range_cube,
    range_for_selectivity,
)


class TestBeamQuery:
    def test_n_cells_full(self):
        q = BeamQuery(axis=1, fixed=(3, 0, 2))
        assert q.n_cells((10, 20, 30)) == 20

    def test_n_cells_partial(self):
        q = BeamQuery(axis=0, fixed=(0, 1, 1), lo=5, hi=9)
        assert q.n_cells((10, 20, 30)) == 4


class TestRangeQuery:
    def test_n_cells(self):
        q = RangeQuery(lo=(0, 0), hi=(4, 5))
        assert q.n_cells() == 20

    def test_shape(self):
        q = RangeQuery(lo=(1, 2, 3), hi=(4, 4, 9))
        assert q.shape == (3, 2, 6)


class TestRandomBeam:
    def test_fixed_coords_in_bounds(self, rng):
        dims = (10, 20, 30)
        for axis in range(3):
            q = random_beam(dims, axis, rng)
            for d, v in enumerate(q.fixed):
                if d != axis:
                    assert 0 <= v < dims[d]

    def test_bad_axis(self, rng):
        with pytest.raises(QueryError):
            random_beam((10, 10), 2, rng)

    def test_reproducible(self):
        a = random_beam((10, 20), 0, np.random.default_rng(5))
        b = random_beam((10, 20), 0, np.random.default_rng(5))
        assert a == b

    @pytest.mark.parametrize("axis", [1, np.int64(1), np.uint8(1)])
    def test_equals_the_checked_constructor(self, axis):
        """Built in one step, a drawn beam is the beam the dataclass's
        checked constructor builds from the same draws, with a Python
        int axis."""
        q = random_beam((10, 20, 30), axis, np.random.default_rng(5))
        assert type(q.axis) is int
        assert all(type(v) is int for v in q.fixed)
        assert q == BeamQuery(axis=1, fixed=q.fixed)
        assert repr(q) == repr(BeamQuery(axis=1, fixed=q.fixed))
        assert hash(q) == hash(BeamQuery(axis=1, fixed=q.fixed))

    @pytest.mark.parametrize("axis", [True, 1.0, np.float64(1.0), "1"])
    def test_bad_axis_type(self, axis, rng):
        with pytest.raises(QueryError, match="axis"):
            random_beam((10, 20), axis, rng)


class TestSelectivityShapes:
    def test_cube_shape_for_cubic_dims(self):
        assert range_for_selectivity((100, 100, 100), 100) == (100, 100, 100)

    def test_one_percent_of_259(self):
        # the paper's 1% query on 259^3 is a 56-cell cube
        assert range_for_selectivity((259, 259, 259), 1.0) == (56, 56, 56)

    def test_redistribution_on_flat_dims(self):
        shape = range_for_selectivity((1000, 4, 4), 100)
        assert shape == (1000, 4, 4)

    def test_partial_redistribution(self):
        shape = range_for_selectivity((1000, 4, 4), 50)
        assert shape[1] == 4 and shape[2] == 4
        assert 480 <= shape[0] <= 520

    def test_tiny_selectivity_min_one(self):
        shape = range_for_selectivity((10, 10), 0.01)
        assert all(w >= 1 for w in shape)

    def test_rejects_bad_selectivity(self):
        with pytest.raises(QueryError):
            range_for_selectivity((10, 10), 0)
        with pytest.raises(QueryError):
            range_for_selectivity((10, 10), 101)

    def test_selectivity_accuracy(self):
        dims = (200, 200, 200)
        for pct in (1, 5, 25):
            shape = range_for_selectivity(dims, pct)
            vol = np.prod(shape) / np.prod(dims) * 100
            assert vol == pytest.approx(pct, rel=0.15)


class TestRandomRangeCube:
    def test_box_within_bounds(self, rng):
        dims = (50, 60, 70)
        for _ in range(20):
            q = random_range_cube(dims, 5.0, rng)
            for d in range(3):
                assert 0 <= q.lo[d] < q.hi[d] <= dims[d]

    def test_equals_the_checked_constructor(self):
        q = random_range_cube((50, 60, 70), 5.0, np.random.default_rng(3))
        assert all(type(v) is int for v in q.lo + q.hi)
        assert q == RangeQuery(lo=q.lo, hi=q.hi)
        assert hash(q) == hash(RangeQuery(lo=q.lo, hi=q.hi))

    def test_full_selectivity_covers_everything(self, rng):
        dims = (30, 40, 50)
        q = random_range_cube(dims, 100.0, rng)
        assert q.lo == (0, 0, 0)
        assert q.hi == dims
