"""Tests for §4.6 bulk appends along the last dimension."""

import numpy as np
import pytest

from repro.core import MultiMapMapper
from repro.errors import MappingError
from repro.lvm import LogicalVolume
from repro.mappings.base import enumerate_box


@pytest.fixture()
def mapper(small_model):
    vol = LogicalVolume([small_model], depth=16)
    return MultiMapMapper((40, 12, 10), vol)


class TestAppendSlabs:
    def test_grows_last_dimension(self, mapper):
        mapper.append_slabs(6)
        assert mapper.dims == (40, 12, 16)
        assert mapper.n_cells == 40 * 12 * 16

    def test_existing_lbns_stable(self, mapper):
        coords = enumerate_box((0, 0, 0), (40, 12, 10))
        before = mapper.lbns(coords)
        mapper.append_slabs(7)
        after = mapper.lbns(coords)
        np.testing.assert_array_equal(before, after)

    def test_appended_cells_addressable_and_bijective(self, mapper):
        mapper.append_slabs(9)
        coords = enumerate_box((0, 0, 0), mapper.dims)
        lbns = mapper.lbns(coords)
        assert np.unique(lbns).size == coords.shape[0]

    def test_fill_within_partial_cube_allocates_nothing(self, mapper):
        # grow to the next multiple of K_last without crossing it
        k_last = mapper.K[-1]
        slack = mapper.plan.grid[-1] * k_last - mapper.dims[-1]
        if slack == 0:
            pytest.skip("last cube already full")
        n_allocs = len(mapper._allocations)
        mapper.append_slabs(slack)
        assert len(mapper._allocations) == n_allocs

    def test_crossing_cube_boundary_allocates(self, mapper):
        k_last = mapper.K[-1]
        slack = mapper.plan.grid[-1] * k_last - mapper.dims[-1]
        n_allocs = len(mapper._allocations)
        mapper.append_slabs(slack + 1)
        assert len(mapper._allocations) > n_allocs

    def test_repeated_appends(self, mapper):
        for _ in range(4):
            mapper.append_slabs(3)
        assert mapper.dims[-1] == 22
        coords = enumerate_box((0, 0, 0), mapper.dims)
        assert np.unique(mapper.lbns(coords)).size == mapper.n_cells

    def test_queries_span_old_and_new(self, mapper):
        mapper.append_slabs(10)
        plan = mapper.range_plan((0, 0, 8), (40, 12, 14))
        assert plan.n_blocks == 40 * 12 * 6

    def test_rejects_nonpositive(self, mapper):
        with pytest.raises(MappingError):
            mapper.append_slabs(0)

    @pytest.mark.parametrize("n", [1.5, True, np.float64(2.0), "3"],
                             ids=repr)
    def test_rejects_non_integer_counts(self, mapper, n):
        # 1.5 used to leave dims (40, 12, 11.5)
        with pytest.raises(MappingError, match="n_cells"):
            mapper.append_slabs(n)
        assert mapper.dims == (40, 12, 10)

    def test_exhaustion_raises_cleanly(self, small_model):
        vol = LogicalVolume([small_model], depth=16)
        mm = MultiMapMapper((60, 12, 10), vol)
        with pytest.raises(MappingError):
            mm.append_slabs(10_000_000)
