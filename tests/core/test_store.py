"""Tests for §4.6 variable-size dataset support (CellStore)."""

import numpy as np
import pytest

from repro import Dataset, layout_names
from repro.core import CellStore, MultiMapMapper
from repro.errors import DatasetError, MappingError
from repro.lvm import LogicalVolume
from repro.mappings import NaiveMapper


@pytest.fixture()
def store_setup(small_model):
    vol = LogicalVolume([small_model], depth=16)
    mapper = MultiMapMapper((20, 6, 5), vol)
    store = CellStore(
        vol and mapper, vol, points_per_cell=8, fill_factor=0.75,
        reclaim_threshold=0.25,
    )
    return vol, mapper, store


class TestConstruction:
    def test_rejects_bad_fill_factor(self, small_model):
        vol = LogicalVolume([small_model], depth=16)
        m = NaiveMapper((10, 10), vol.allocate_blocks(0, 100))
        with pytest.raises(DatasetError):
            CellStore(m, vol, fill_factor=0.0)
        with pytest.raises(DatasetError):
            CellStore(m, vol, fill_factor=1.5)

    def test_rejects_bad_threshold(self, small_model):
        vol = LogicalVolume([small_model], depth=16)
        m = NaiveMapper((10, 10), vol.allocate_blocks(0, 100))
        with pytest.raises(DatasetError):
            CellStore(m, vol, reclaim_threshold=1.0)

    def test_rejects_bad_capacity(self, small_model):
        vol = LogicalVolume([small_model], depth=16)
        m = NaiveMapper((10, 10), vol.allocate_blocks(0, 100))
        with pytest.raises(DatasetError):
            CellStore(m, vol, points_per_cell=0)


class TestBulkLoad:
    def test_load_within_budget_no_overflow(self, store_setup):
        vol, mapper, store = store_setup
        coords = np.array([[0, 0, 0], [1, 0, 0]])
        spilled = store.bulk_load(coords, counts=np.array([6, 6]))
        assert spilled == 0  # budget = 8 * 0.75 = 6

    def test_load_beyond_budget_spills(self, store_setup):
        vol, mapper, store = store_setup
        spilled = store.bulk_load(
            np.array([[0, 0, 0]]), counts=np.array([10])
        )
        assert spilled == 4
        assert store.stats().overflow_points == 4

    def test_repeated_coords_accumulate(self, store_setup):
        vol, mapper, store = store_setup
        coords = np.array([[2, 1, 1]] * 4)
        store.bulk_load(coords)
        stats = store.stats()
        assert stats.n_points == 4

    def test_budget_counts_what_a_cell_holds(self, store_setup):
        vol, mapper, store = store_setup
        cell = np.array([[0, 0, 0]])
        assert store.bulk_load(cell, counts=np.array([6])) == 0
        # the first load used the whole budget of 6: all 6 spill
        assert store.bulk_load(cell, counts=np.array([6])) == 6
        stats = store.stats()
        assert stats.overflow_points == 6
        assert stats.n_points == 12
        # a cell filled past its budget by inserts takes none either
        store.insert((1, 0, 0), 8)
        assert store.bulk_load(np.array([[1, 0, 0]])) == 1


class TestInserts:
    def test_insert_into_free_cell(self, store_setup):
        vol, mapper, store = store_setup
        assert store.insert((0, 0, 0), 5) == "cell"

    def test_insert_overflow_when_full(self, store_setup):
        vol, mapper, store = store_setup
        store.insert((0, 0, 0), 8)
        assert store.insert((0, 0, 0), 1) == "overflow"
        assert store.stats().overflow_pages == 1

    def test_overflow_pages_chain(self, store_setup):
        vol, mapper, store = store_setup
        store.insert((0, 0, 0), 8 + 20)
        assert store.stats().overflow_pages == 3  # ceil(20/8)

    def test_delete_drains_overflow_first(self, store_setup):
        vol, mapper, store = store_setup
        store.insert((0, 0, 0), 12)
        store.delete((0, 0, 0), 4)
        stats = store.stats()
        assert stats.overflow_points == 0
        assert stats.n_points == 8

    def test_delete_into_cell(self, store_setup):
        vol, mapper, store = store_setup
        store.insert((0, 0, 0), 6)
        store.delete((0, 0, 0), 4)
        assert store.stats().n_points == 2

    def test_overflow_extent_exhaustion(self, small_model):
        vol = LogicalVolume([small_model], depth=16)
        m = NaiveMapper((4, 4), vol.allocate_blocks(0, 16))
        store = CellStore(m, vol, points_per_cell=2, max_overflow_pages=1)
        store.insert((0, 0), 2)
        store.insert((0, 0), 2)  # fills the only overflow page
        with pytest.raises(MappingError):
            store.insert((0, 0), 4)


class TestReadPlans:
    def test_plain_cells(self, store_setup):
        vol, mapper, store = store_setup
        coords = np.array([[0, 0, 0], [5, 2, 3]])
        plan = store.read_plan(coords)
        assert plan.n_blocks == 2

    def test_overflow_pages_included(self, store_setup):
        vol, mapper, store = store_setup
        store.insert((0, 0, 0), 20)
        plan = store.read_plan(np.array([[0, 0, 0]]))
        assert plan.n_blocks == 1 + 2  # cell + ceil(12/8) overflow pages

    @pytest.mark.parametrize("layout", layout_names())
    def test_every_block_of_a_cell(self, layout):
        ds = Dataset.create((8, 4, 4), layout=layout, drive="minidrive",
                            cell_blocks=2)
        coords = np.array([[1, 0, 0], [2, 1, 0]])
        plan = ds.store.read_plan(coords)
        got = [lbn for start, n in zip(plan.starts.tolist(),
                                       plan.lengths.tolist())
               for lbn in range(start, start + n)]
        first = ds.store.mapper.lbns(coords).tolist()
        assert got == sorted(f + b for f in first for b in range(2))


class TestReclamation:
    def test_underflow_detection(self, store_setup):
        vol, mapper, store = store_setup
        store.insert((0, 0, 0), 1)  # 1/8 < 0.25
        assert store.needs_reorganization
        assert len(store.underflow_cells) == 1

    def test_healthy_cells_not_flagged(self, store_setup):
        vol, mapper, store = store_setup
        store.insert((0, 0, 0), 4)
        assert not store.needs_reorganization

    def test_reorganize_folds_overflow_back(self, store_setup):
        vol, mapper, store = store_setup
        store.insert((0, 0, 0), 12)
        store.delete((0, 0, 0), 0)
        # drain the cell so overflow can fold back
        store._occupancy[store._flat((0, 0, 0))[0]] = 2
        freed = store.reorganize()
        assert freed >= 1
        assert store.stats().overflow_points == 0

    def test_stats_fields(self, store_setup):
        vol, mapper, store = store_setup
        store.insert((0, 0, 0), 4)
        s = store.stats()
        assert s.n_cells == 20 * 6 * 5
        assert s.capacity_per_cell == 8
        assert s.fill_factor == 0.75
        assert 0 < s.mean_fill <= 1
