"""``depth``, ``seed`` and ``rng`` are checked at the API boundary.

Each case below used to be accepted with a silently different meaning
or to die in a builtin error: ``depth=2.5`` built depth 2 and
``depth=True`` depth 1, ``seed="x"`` and ``seed=1.5`` raised a bare
``TypeError`` from numpy's ``SeedSequence``, ``seed=-1`` a bare
``ValueError``, ``seed=True`` seeded as 1, and ``rng=5`` died in an
``AttributeError`` at the first draw.  ``depth`` must be None or an
integer of at least 1 and ``seed`` None or an integer of at least 0
(numpy integers included, bools not), else :class:`DatasetError`;
``rng`` must be None or a :class:`numpy.random.Generator`, else
:class:`QueryError` (:class:`IngestError` on the write path), raised
before the dataset's seed sequence is drawn from.
"""

import numpy as np
import pytest

from repro.api import Dataset
from repro.errors import DatasetError, IngestError, QueryError

SHAPE = (8, 4, 4)


def dataset(**opts):
    return Dataset.create(SHAPE, layout="naive", drive="minidrive", **opts)


@pytest.mark.parametrize("opts", [
    {"depth": 2.5},
    {"depth": True},
    {"depth": 0},
    {"depth": "4"},
    {"seed": "x"},
    {"seed": 1.5},
    {"seed": -1},
    {"seed": True},
    {"seed": [1, 2]},
], ids=lambda opts: "{}={!r}".format(*next(iter(opts.items()))))
def test_create_rejects_bad_depth_and_seed(opts):
    with pytest.raises(DatasetError, match=next(iter(opts))):
        dataset(**opts)


def test_numpy_integers_accepted_as_python_ints():
    ds = dataset(depth=np.int32(4), seed=np.int64(7))
    assert ds.depth == 4 and type(ds.depth) is int
    assert ds.seed == 7 and type(ds.seed) is int
    assert ds.volume.depth(0) == 4
    # seeded as the plain integer would be
    assert (ds.rng().integers(1 << 30)
            == dataset(seed=7).rng().integers(1 << 30))
    assert dataset(seed=0).seed == 0


BAD_RNGS = {
    "int": 5,
    "float": 1.5,
    "str": "rng",
    "RandomState": np.random.RandomState(0),
    "SeedSequence": np.random.SeedSequence(0),
}


def _runs(ds, rng):
    return {
        "Dataset.run": lambda: ds.run(rng=rng),
        "QueryBatch.run": lambda: ds.random_beams(axis=0, n=2).run(rng=rng),
        "TrafficRun.run": lambda: ds.traffic().clients(1, queries=1)
        .run(rng=rng),
        "Dataset.read_cells": lambda: ds.read_cells([0, 0, 0], rng=rng),
    }


@pytest.mark.parametrize("rng", BAD_RNGS.values(), ids=BAD_RNGS)
@pytest.mark.parametrize("entry", list(_runs(None, None)))
def test_run_rejects_bad_rng_before_drawing(entry, rng):
    """A rejected call draws nothing from the dataset's seed sequence:
    the next unseeded batch replays a fresh same-seed dataset's."""
    ds = dataset(seed=11)
    with pytest.raises(QueryError, match="rng"):
        _runs(ds, rng)[entry]()
    got = ds.random_beams(axis=1, n=3).run()
    want = dataset(seed=11).random_beams(axis=1, n=3).run()
    assert [r.total_ms for r in got.results] == [
        r.total_ms for r in want.results]


def test_ingest_rejects_bad_rng():
    ds = dataset(seed=3)
    with pytest.raises(IngestError, match="rng"):
        ds.ingest(n_points=16).run(rng=5)


@pytest.mark.parametrize("entry", list(_runs(None, None)))
def test_generator_and_none_accepted(entry):
    ds = dataset(seed=5)
    _runs(ds, np.random.default_rng(1))[entry]()
    _runs(ds, None)[entry]()
