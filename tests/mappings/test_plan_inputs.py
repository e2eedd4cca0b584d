"""``Mapper.beam_plan`` and ``Mapper.range_plan`` take integers only.

Axis, beam span, every ``fixed`` entry and every box bound must be an
integer (numpy integers included, bools not), on every registered
layout; anything else raises :class:`QueryError`.  Each bad value below
used to be truncated (``hi=4.5`` read as 4, ``fixed`` entries ``0.5`` as
0 and ``True`` as 1, a box bound ``True`` as 1), or to fail in a builtin
``TypeError`` (``lo=1.5``, ``axis=1.0``) or a numpy broadcast
``ValueError`` (``axis=True``).
"""

import numpy as np
import pytest

from repro.api import Dataset
from repro.api.registry import LAYOUTS
from repro.errors import QueryError

SHAPE = (4, 4, 4)
_MAPPERS: dict = {}


def mapper(layout):
    if layout not in _MAPPERS:
        _MAPPERS[layout] = Dataset.create(SHAPE, layout=layout,
                                          drive="minidrive", seed=1).mapper
    return _MAPPERS[layout]


BEAM = dict(axis=1, fixed=(1, 0, 2), lo=0, hi=None)
BAD_BEAMS = [
    dict(hi=4.5),
    dict(hi=np.float64(3.0)),
    dict(lo=1.5),
    dict(lo=True),
    dict(axis=True),
    dict(axis=1.0),
    dict(fixed=(0.5, 0, 2)),
    dict(fixed=(True, 0, 2)),
    dict(fixed=(1, 0, 2.0)),
    dict(fixed=(1, 0, "2")),
    dict(fixed=5),
]

BOX = dict(lo=(0, 0, 0), hi=SHAPE)
BAD_BOXES = [
    dict(lo=(True, 0, 0)),
    dict(lo=(0, 0.5, 0)),
    dict(lo=(0, None, 0)),
    dict(lo=0),
    dict(hi=(4.5, 4, 4)),
    dict(hi=(4, 4, np.float64(4.0))),
    dict(hi=(4, "4", 4)),
    dict(hi=(4, 4, True)),
]


@pytest.mark.parametrize("layout", LAYOUTS.names())
@pytest.mark.parametrize("bad", BAD_BEAMS, ids=repr)
def test_beam_plan_rejects_non_integers(layout, bad):
    with pytest.raises(QueryError, match="integer"):
        mapper(layout).beam_plan(**{**BEAM, **bad})


@pytest.mark.parametrize("layout", LAYOUTS.names())
@pytest.mark.parametrize("bad", BAD_BOXES, ids=repr)
def test_range_plan_rejects_non_integers(layout, bad):
    with pytest.raises(QueryError, match="integer"):
        mapper(layout).range_plan(**{**BOX, **bad})


@pytest.mark.parametrize("layout", LAYOUTS.names())
def test_numpy_integers_plan_like_python_ints(layout):
    m = mapper(layout)
    for axis in range(len(SHAPE)):
        got = m.beam_plan(np.int64(axis),
                          (np.int32(1), np.uint8(0), np.int64(2)),
                          np.int16(1), np.int64(4))
        want = m.beam_plan(axis, (1, 0, 2), 1, 4)
        assert got.policy == want.policy
        assert np.array_equal(got.starts, want.starts)
        assert np.array_equal(got.lengths, want.lengths)
    got = m.range_plan(np.array([1, 0, 2]), np.array([4, 3, 4]))
    want = m.range_plan((1, 0, 2), (4, 3, 4))
    assert np.array_equal(got.starts, want.starts)
    assert np.array_equal(got.lengths, want.lengths)
