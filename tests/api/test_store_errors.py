"""Bad input to the cell-store updates raises a typed error, unchanged.

Each case below used to run with a silently wrong result or die in a
bare builtin or numpy error: a negative coordinate wrapped to the last
cell, one past an edge landed in the next row, ``0.5`` truncated to 0,
``True`` read as 1, a negative ``n`` left occupancy below zero, and
``2.5`` stored 2 points; ``CellStore.bulk_insert`` stored ``(0, 5, 0)``
in cell ``(0, 1, 1)`` and a count of -3 as -3 points; a ragged list of
coordinates raised numpy's bare ``ValueError``.  Coordinates are now
checked by the one coordinate check of :mod:`repro.errors`
(:class:`QueryError`) and point counts by the store
(:class:`DatasetError`), both before any state changes.
"""

import pytest

from repro.api import Dataset
from repro.errors import DatasetError, QueryError

SHAPE = (8, 4, 4)


def dataset():
    return Dataset.create(SHAPE, layout="naive", drive="minidrive")


def assert_untouched(ds):
    stats = ds.store_stats()
    assert stats.n_points == 0
    assert stats.overflow_pages == 0


@pytest.mark.parametrize("coord, n, error", [
    ((-1, 0, 0), 3, QueryError),
    ((8, 0, 0), 3, QueryError),
    ((7, 3, 4), 1, QueryError),
    ((0.5, 0, 0), 1, QueryError),
    ((True, 0, 0), 1, QueryError),
    ((0, 0), 1, QueryError),
    ((0, 0, 0), -3, DatasetError),
    ((0, 0, 0), 0, DatasetError),
    ((0, 0, 0), 2.5, DatasetError),
    ((0, 0, 0), True, DatasetError),
])
def test_insert_rejects_bad_input(coord, n, error):
    ds = dataset()
    with pytest.raises(error):
        ds.insert(coord, n)
    assert_untouched(ds)


@pytest.mark.parametrize("coord, n, error", [
    ((-1, 0, 0), 1, QueryError),
    ((0, 4, 0), 1, QueryError),
    ((0, 0, 1.0), 1, QueryError),
    ((0, False, 0), 1, QueryError),
    ((0, 0, 0), -2, DatasetError),
    ((0, 0, 0), 1.5, DatasetError),
])
def test_delete_rejects_bad_input(coord, n, error):
    ds = dataset()
    ds.insert((0, 0, 0), 2)
    with pytest.raises(error):
        ds.delete(coord, n)
    assert ds.store_stats().n_points == 2


@pytest.mark.parametrize("coords, counts, error", [
    ([(-1, 0, 0)], [5], QueryError),
    ([(0, 0, 9)], [5], QueryError),
    ([(0.5, 0, 0)], None, QueryError),
    ([(0, 0)], None, QueryError),
    ([(0, 0, 0)], [-1], DatasetError),
    ([(0, 0, 0)], [1.5], DatasetError),
    ([(0, 0, 0)], [True], DatasetError),
    ([(0, 0, 0)], [1, 2], DatasetError),
    ([(True, 0, 0)], None, QueryError),
    ([(0, 0, 0), (1, 1)], None, QueryError),
])
def test_bulk_load_rejects_bad_input(coords, counts, error):
    ds = dataset()
    with pytest.raises(error):
        ds.bulk_load(coords, counts)
    assert_untouched(ds)


@pytest.mark.parametrize("coords, counts, error", [
    ([(0, 5, 0)], None, QueryError),
    ([(0, 0, 9)], None, QueryError),
    ([(0.5, 0, 0)], None, QueryError),
    ([(True, 0, 0)], None, QueryError),
    ([(0, 0, 0)], [-3], DatasetError),
    ([(0, 0, 0)], [2.5], DatasetError),
    ([(0, 0, 0), (1, 0, 0)], [2], DatasetError),
    ([(0, 0, 0), (1, 1)], None, QueryError),
])
def test_bulk_insert_rejects_bad_input(coords, counts, error):
    ds = dataset()
    with pytest.raises(error):
        ds.store.bulk_insert(coords, counts)
    assert_untouched(ds)


RAGGED = [(0, 0, 0), (1, 1)]


@pytest.mark.parametrize("call", [
    lambda ds: ds.read_cells(RAGGED),
    lambda ds: ds.mapper.lbns(RAGGED),
], ids=["read_cells", "mapper.lbns"])
def test_ragged_coordinates_raise_query_error(call):
    """A ragged list used to escape as numpy's bare ValueError
    ("inhomogeneous shape") from every coordinate entry point (the
    store's are among the bad inputs above)."""
    ds = dataset()
    with pytest.raises(QueryError, match="rectangular"):
        call(ds)
    assert_untouched(ds)


def test_read_cells_rejects_a_bool_in_a_list():
    # used to read cell (1, 0, 0): read_cells converted the list to an
    # integer array before the mapper's bool scan could see it
    ds = dataset()
    with pytest.raises(QueryError, match="bools"):
        ds.read_cells([[True, 0, 0]])


def test_bulk_insert_lands_valid_rows():
    ds = dataset()
    assert ds.store.bulk_insert([(7, 3, 3), (7, 3, 3), (0, 1, 0)]) == 0
    assert ds.store.bulk_insert([(0, 1, 0)], [0]) == 0
    assert ds.store_stats().n_points == 3


def test_valid_updates_still_land():
    ds = dataset()
    assert ds.insert((7, 3, 3), 2) == "cell"
    ds.delete((7, 3, 3), 0)
    ds.delete((7, 3, 3), 1)
    assert ds.bulk_load([(0, 0, 0), (1, 1, 1)], [3, 0]) == 0
    assert ds.store_stats().n_points == 4
