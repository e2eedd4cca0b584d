"""Non-integer query bounds and cell coordinates raise ``QueryError``.

Each case below used to run with a silently wrong result (a float bound
or coordinate truncated, ``axis=1.0`` read as axis 1 when sharded) or
die in a builtin ``TypeError``/``ValueError`` or a numpy broadcast
error.  Queries now validate at construction, and mappers reject float
and bool coordinate arrays.
"""

import numpy as np
import pytest

from repro.api import Dataset
from repro.errors import QueryError
from repro.query import BeamQuery, RangeQuery, random_beam

SHAPE = (16, 8, 8)


def dataset(shards=None):
    ds = Dataset.create(SHAPE, layout="zorder", drive="minidrive", seed=1)
    return ds if shards is None else ds.with_shards(shards)


def test_integer_queries_still_construct():
    BeamQuery(axis=np.int64(1), fixed=(np.int32(0), 1, np.uint8(2)),
              lo=1, hi=np.int64(5))
    RangeQuery(lo=np.array([0, 1, 2]), hi=(3, 3, 3))


@pytest.mark.parametrize("shards", [None, 2])
def test_float_range_bound_rejected(shards):
    # unsharded used to report 18 cells and sharded 27 for this box
    ds = dataset(shards)
    with pytest.raises(QueryError, match=r"lo\[0\]"):
        ds.run([RangeQuery(lo=(0.5, 0, 0), hi=(3, 3, 3))])
    with pytest.raises(QueryError, match=r"hi\[2\]"):
        ds.range((0, 0, 0), (3, 3, 3.0))


def test_float_fixed_coordinate_rejected():
    # used to read fixed[1] = 1
    with pytest.raises(QueryError, match=r"fixed\[1\]"):
        BeamQuery(axis=0, fixed=(0, 1.5, 2))
    with pytest.raises(QueryError, match=r"fixed\[1\]"):
        dataset().beam(0, (0, 1.5, 2))


@pytest.mark.parametrize("shards", [None, 2])
def test_float_axis_rejected(shards):
    # a builtin TypeError unsharded; ran as axis 1 when sharded
    ds = dataset(shards)
    with pytest.raises(QueryError, match="axis"):
        ds.run([BeamQuery(axis=1.0, fixed=(0, 1, 2))])
    with pytest.raises(QueryError, match="axis"):
        ds.beam(1.0, (0, 1, 2))
    with pytest.raises(QueryError, match="axis"):
        ds.beam(1.0).run()
    with pytest.raises(QueryError, match="axis"):
        ds.random_beams(1.0, 2).run()


def test_bool_axis_and_bounds_rejected():
    # axis=True died in a numpy broadcast ValueError
    with pytest.raises(QueryError, match="axis"):
        BeamQuery(axis=True, fixed=(0, 1, 2))
    with pytest.raises(QueryError, match=r"fixed\[0\]"):
        BeamQuery(axis=1, fixed=(False, 1, 2))
    with pytest.raises(QueryError, match="hi"):
        BeamQuery(axis=1, fixed=(0, 1, 2), hi=True)
    with pytest.raises(QueryError, match=r"lo\[1\]"):
        RangeQuery(lo=(0, True, 0), hi=(3, 3, 3))
    with pytest.raises(QueryError, match="axis"):
        random_beam(SHAPE, True, np.random.default_rng(0))


@pytest.mark.parametrize("bad", ["a", float("nan"), None])
def test_string_nan_and_none_bounds_rejected(bad):
    # a builtin ValueError for strings and NaN
    with pytest.raises(QueryError):
        RangeQuery(lo=(0, 0, 0), hi=(bad, 3, 3))
    with pytest.raises(QueryError):
        BeamQuery(axis=0, fixed=(0, 1, 2), lo=bad)
    with pytest.raises(QueryError):
        BeamQuery(axis=0, fixed=(0, bad, 2))


def test_non_sequence_bounds_rejected():
    with pytest.raises(QueryError, match="sequence"):
        RangeQuery(lo=0, hi=(3, 3, 3))
    with pytest.raises(QueryError, match="sequence"):
        BeamQuery(axis=0, fixed=5)


def test_read_cells_rejects_float_coordinates():
    # used to read cell (0, 1, 2)
    ds = dataset()
    with pytest.raises(QueryError, match="integers"):
        ds.read_cells([[0.5, 1, 2]])
    with pytest.raises(QueryError, match="integers"):
        ds.read_cells(np.array([True, True, False]))
    assert ds.read_cells([[0, 1, 2]]).n_cells == 1


@pytest.mark.parametrize("layout", ["naive", "zorder", "hilbert",
                                    "multimap"])
def test_mapper_lbns_rejects_float_and_bool_coordinates(layout):
    # used to translate [[0.5, 1, 2]] as cell (0, 1, 2)
    mapper = Dataset.create(SHAPE, layout=layout, drive="minidrive",
                            seed=1).mapper
    with pytest.raises(QueryError, match="integers"):
        mapper.lbns([[0.5, 1, 2]])
    with pytest.raises(QueryError, match="integers"):
        mapper.lbns(np.zeros((2, 3), dtype=bool))
    ok = mapper.lbns(np.array([[0, 1, 2]], dtype=np.uint16))
    assert ok.tolist() == mapper.lbns([[0, 1, 2]]).tolist()
