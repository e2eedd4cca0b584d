"""The storage settings are integers of at least 1.

``window`` and ``cell_blocks`` are checked by :class:`StorageManager`
and by :meth:`Dataset.create` before any drive or volume is built.
Each bad value below used to be accepted, truncated, or fail later in a
bare ``TypeError``/``ValueError`` (``window=nan`` only on the first
range query).  The SPTF run limit and the coalescing gap are constants
of :mod:`repro.query.scheduler`, not settings.  The dataset's ``shape``
is checked at the same point.
"""

import numpy as np
import pytest

import repro.query.executor
from repro.api import Dataset
from repro.disk import toy_disk
from repro.errors import DatasetError, MappingError, QueryError
from repro.lvm import LogicalVolume
from repro.query import StorageManager

NAN = float("nan")
NOT_INTEGERS = [2.5, NAN, True, "4", None]


def create(**setting):
    """``Dataset.create`` with one setting; asserts no drive was built."""
    built = []

    def factory():
        built.append(True)
        return toy_disk()

    try:
        return Dataset.create((5, 5, 5), layout="naive",
                              drive=("toy", factory), **setting)
    finally:
        assert not built


def manager(**setting):
    return StorageManager(LogicalVolume([toy_disk()], depth=4), **setting)


@pytest.mark.parametrize("build", [create, manager])
@pytest.mark.parametrize("value", NOT_INTEGERS)
def test_window_must_be_an_integer(build, value):
    with pytest.raises(QueryError, match="window"):
        build(window=value)


@pytest.mark.parametrize("name", ["sptf_run_limit",
                                  "coalesce_gap_blocks"])
def test_retired_storage_settings_are_refused(name):
    """A retired setting is an unknown layout keyword to
    ``Dataset.create``, refused before any drive is built."""
    with pytest.raises(MappingError, match=name):
        create(**{name: 0})


@pytest.mark.parametrize("value", [0, -2, "2", *NOT_INTEGERS])
def test_cell_blocks_must_be_a_positive_integer(value):
    with pytest.raises(MappingError, match="cell_blocks"):
        create(cell_blocks=value)


def test_integer_settings_are_stored_as_ints():
    ds = Dataset.create((5, 5, 5), layout="naive", drive="toy", depth=4,
                        window=np.int32(8), cell_blocks=np.int16(1))
    storage = ds.storage
    settings = (storage.window, storage.cell_blocks)
    assert settings == (8, 1)
    assert all(type(v) is int for v in settings)


def test_zero_sptf_run_limit_serves_sptf_sorted(monkeypatch):
    ds = Dataset.create((5, 5, 5), layout="multimap", drive="toy",
                        depth=4, seed=1)
    monkeypatch.setattr(repro.query.executor, "SPTF_RUN_LIMIT", 0)
    report = ds.range((0, 0, 0), (4, 4, 4)).run()
    assert [r.policy for r in report.results] == ["sorted"]


@pytest.mark.parametrize("shape", [
    (), "abc", 5, None, (16.5, 8, 8), (True, 8, 8), (0, 8, 8), (8, -1),
    (8, np.float64(2.0)), (8, "8"),
], ids=repr)
def test_shape_must_be_positive_integers(shape):
    # () used to build a 0-dimensional dataset that failed on first
    # use, (16.5, 8, 8) and (True, 8, 8) were truncated, "abc" raised
    # a bare ValueError and (0, 8, 8) failed only at the storage build
    built = []

    def factory():
        built.append(True)
        return toy_disk()

    with pytest.raises(DatasetError, match="shape"):
        Dataset.create(shape, layout="naive", drive=("toy", factory))
    assert not built


def test_shape_is_stored_as_ints():
    ds = Dataset.create(np.array([5, 4, 3]), layout="naive", drive="toy")
    assert ds.shape == (5, 4, 3)
    assert all(type(s) is int for s in ds.shape)
