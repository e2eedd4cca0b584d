"""Tests for the linearised mappers: Naive, Z-order, Hilbert, Gray."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MappingError, QueryError
from repro.lvm import Extent, LogicalVolume
from repro.mappings import (
    GrayMapper,
    HilbertMapper,
    NaiveMapper,
    RequestPlan,
    ZOrderMapper,
    coalesce_ranks,
    enumerate_box,
)

ALL_MAPPERS = [NaiveMapper, ZOrderMapper, HilbertMapper, GrayMapper]


def make(cls, dims=(8, 6, 5), start=100, cell_blocks=1):
    n = int(np.prod(dims)) * cell_blocks
    return cls(dims, Extent(0, start, n), cell_blocks)


class TestEnumerateBox:
    def test_dim0_fastest(self):
        out = enumerate_box((0, 0), (3, 2))
        assert out[:3, 0].tolist() == [0, 1, 2]
        assert out[:3, 1].tolist() == [0, 0, 0]

    def test_cell_count(self):
        assert enumerate_box((1, 2, 3), (4, 4, 5)).shape == (12, 3)

    def test_offset_box(self):
        out = enumerate_box((5,), (8,))
        assert out[:, 0].tolist() == [5, 6, 7]


class TestCoalesceRanks:
    def test_empty(self):
        s, l = coalesce_ranks(np.array([], dtype=np.int64))
        assert s.size == 0 and l.size == 0

    def test_single_run(self):
        s, l = coalesce_ranks(np.arange(5))
        assert s.tolist() == [0] and l.tolist() == [5]

    def test_split_runs(self):
        s, l = coalesce_ranks(np.array([1, 2, 3, 7, 8, 20]))
        assert s.tolist() == [1, 7, 20]
        assert l.tolist() == [3, 2, 1]


class TestCommonMapperBehaviour:
    @pytest.mark.parametrize("cls", ALL_MAPPERS)
    def test_lbns_are_a_permutation_of_the_extent(self, cls):
        m = make(cls)
        coords = enumerate_box((0, 0, 0), m.dims)
        lbns = m.lbns(coords)
        assert sorted(lbns.tolist()) == list(
            range(m.extent.start, m.extent.start + m.n_cells)
        )

    @pytest.mark.parametrize("cls", ALL_MAPPERS)
    def test_range_plan_covers_exact_blocks(self, cls):
        m = make(cls)
        lo, hi = (1, 2, 0), (5, 5, 4)
        plan = m.range_plan(lo, hi)
        n_cells = int(np.prod([b - a for a, b in zip(lo, hi)]))
        assert plan.n_blocks == n_cells
        # the planned blocks are exactly the cells' LBNs
        got = np.sort(
            np.concatenate(
                [np.arange(s, s + n) for s, n in zip(plan.starts, plan.lengths)]
            )
        )
        expected = np.sort(m.lbns(enumerate_box(lo, hi)))
        np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("cls", ALL_MAPPERS)
    def test_beam_plan_covers_beam_cells(self, cls):
        m = make(cls)
        plan = m.beam_plan(1, (3, 0, 2))
        assert plan.n_blocks == m.dims[1]
        assert plan.merge_gap == 0

    @pytest.mark.parametrize("cls", ALL_MAPPERS)
    def test_full_range_is_whole_extent(self, cls):
        m = make(cls)
        plan = m.range_plan((0, 0, 0), m.dims)
        assert plan.n_runs == 1
        assert plan.starts[0] == m.extent.start
        assert plan.lengths[0] == m.n_cells

    @pytest.mark.parametrize("cls", ALL_MAPPERS)
    def test_out_of_bounds_coords_rejected(self, cls):
        m = make(cls)
        with pytest.raises(QueryError):
            m.lbns(np.array([[8, 0, 0]]))

    @pytest.mark.parametrize("cls", ALL_MAPPERS)
    def test_bad_box_rejected(self, cls):
        m = make(cls)
        with pytest.raises(QueryError):
            m.range_plan((0, 0, 0), (9, 6, 5))
        with pytest.raises(QueryError):
            m.range_plan((2, 0, 0), (2, 6, 5))

    @pytest.mark.parametrize("cls", ALL_MAPPERS)
    def test_bad_beam_rejected(self, cls):
        m = make(cls)
        with pytest.raises(QueryError):
            m.beam_plan(3, (0, 0, 0))
        with pytest.raises(QueryError):
            m.beam_plan(0, (0, 6, 0))

    @pytest.mark.parametrize("cls", ALL_MAPPERS)
    @pytest.mark.parametrize("dims", [
        (4.5, True), (True, 8), (8, np.float64(2.0)), (8, "8"), (), 5,
        (0, 8),
    ], ids=repr)
    def test_dims_must_be_positive_integers(self, cls, dims):
        # (4.5, True) used to build a (4, 1) mapper without complaint
        with pytest.raises(MappingError, match="shape"):
            cls(dims, Extent(0, 0, 100))

    @pytest.mark.parametrize("cls", ALL_MAPPERS)
    @pytest.mark.parametrize("cell_blocks", [1.5, True, 0], ids=repr)
    def test_cell_blocks_must_be_a_positive_integer(self, cls, cell_blocks):
        # 1.5 used to be read as 1 block per cell
        with pytest.raises(MappingError, match="cell_blocks"):
            cls((4, 4), Extent(0, 0, 100), cell_blocks)

    def test_numpy_dims_are_stored_as_ints(self):
        m = NaiveMapper(np.array([4, 3]), Extent(0, 0, 12))
        assert m.dims == (4, 3)
        assert all(type(s) is int for s in m.dims)

    @pytest.mark.parametrize("cls", ALL_MAPPERS)
    def test_cell_blocks_scale_plans(self, cls):
        m = make(cls, cell_blocks=3)
        plan = m.range_plan((0, 0, 0), (2, 2, 1))
        assert plan.n_blocks == 4 * 3


class TestNaiveSpecifics:
    def test_rank_is_row_major_dim0_fastest(self):
        m = make(NaiveMapper, dims=(4, 3, 2))
        assert m.lbns(np.array([[1, 0, 0]]))[0] == m.extent.start + 1
        assert m.lbns(np.array([[0, 1, 0]]))[0] == m.extent.start + 4
        assert m.lbns(np.array([[0, 0, 1]]))[0] == m.extent.start + 12

    def test_beam_along_dim0_is_one_run(self):
        m = make(NaiveMapper)
        plan = m.beam_plan(0, (0, 2, 3))
        assert plan.n_runs == 1
        assert plan.lengths[0] == m.dims[0]

    def test_range_rows_are_runs(self):
        m = make(NaiveMapper, dims=(10, 10, 10))
        plan = m.range_plan((2, 3, 4), (7, 6, 8))
        # 3 x 4 rows of length 5
        assert plan.n_blocks == 5 * 3 * 4
        assert (plan.lengths == 5).all()

    def test_full_width_rows_merge(self):
        m = make(NaiveMapper, dims=(10, 10, 10))
        plan = m.range_plan((0, 0, 0), (10, 10, 3))
        assert plan.n_runs == 1

    def test_1d_dataset(self):
        m = NaiveMapper((32,), Extent(0, 0, 32))
        plan = m.range_plan((4,), (20,))
        assert plan.n_runs == 1
        assert plan.lengths[0] == 16


class TestCurveMapperSpecifics:
    def test_rank_table_cached(self):
        m = make(ZOrderMapper)
        t1 = m.rank_table()
        t2 = m.rank_table()
        assert t1 is t2
        m.drop_cache()
        assert m.rank_table() is not t1

    def test_rank_compaction_dense(self):
        """Ranks on a non-power-of-two grid must be dense 0..n-1."""
        m = make(HilbertMapper, dims=(5, 6, 7))
        coords = enumerate_box((0, 0, 0), m.dims)
        ranks = m.rank(coords)
        assert sorted(ranks.tolist()) == list(range(5 * 6 * 7))

    def test_order_follows_curve(self):
        m = make(ZOrderMapper, dims=(4, 4, 4))
        coords = enumerate_box((0, 0, 0), m.dims)
        codes = m.encode(coords)
        ranks = m.rank(coords)
        # ranks must order exactly like codes
        np.testing.assert_array_equal(
            np.argsort(codes, kind="stable"),
            np.argsort(ranks, kind="stable"),
        )

    @pytest.mark.parametrize("cls", [ZOrderMapper, HilbertMapper, GrayMapper])
    def test_clustering_beats_naive_for_small_boxes(self, cls):
        """Curve layouts should need fewer runs than Naive for a small
        cube — the clustering property that motivates them."""
        dims = (32, 32, 32)
        curve = make(cls, dims=dims)
        naive = make(NaiveMapper, dims=dims)
        lo, hi = (8, 8, 8), (16, 16, 16)
        assert curve.range_plan(lo, hi).n_runs <= naive.range_plan(
            lo, hi
        ).n_runs


class TestAgainstVolumeAllocation:
    def test_mapper_on_allocated_extent(self, small_model):
        vol = LogicalVolume([small_model], depth=16)
        ext = vol.allocate_blocks(0, 8 * 8 * 8)
        m = ZOrderMapper((8, 8, 8), ext)
        lbns = m.lbns(np.array([[0, 0, 0], [7, 7, 7]]))
        assert (lbns >= ext.start).all()
        assert (lbns < ext.end).all()

    @given(
        seed=st.integers(0, 2**31),
        cls_idx=st.integers(0, len(ALL_MAPPERS) - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_property_bijection_on_random_boxes(self, seed, cls_idx):
        rng = np.random.default_rng(seed)
        dims = tuple(int(rng.integers(2, 9)) for _ in range(3))
        m = make(ALL_MAPPERS[cls_idx], dims=dims)
        coords = enumerate_box((0,) * 3, dims)
        lbns = m.lbns(coords)
        assert np.unique(lbns).size == coords.shape[0]
