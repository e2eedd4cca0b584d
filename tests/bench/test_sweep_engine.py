"""The sweep engine behind ``cache``, ``scale``, ``avail``, ``ingest``
and ``traffic``, and the typed errors for what those sweeps accept."""

import math

import numpy as np
import pytest

from repro import Dataset
from repro.bench.cli import main
from repro.bench.sweep import render_sweep, run_sweep
from repro.cache import run_cache_sweep
from repro.errors import (
    BenchmarkError,
    DatasetError,
    IngestError,
    QueryError,
    ReplicaError,
)
from repro.ingest import run_ingest_sweep
from repro.replica import run_avail_sweep
from repro.shard import run_scale_sweep
from repro.traffic import run_storm
from repro.traffic.storm import run_one_storm

SHAPE = (16, 8, 8)


class TestRunSweep:
    def test_cells_meta_and_fresh_datasets(self, small_model):
        built = []

        def measure(fresh, value):
            a, b = fresh(), fresh()
            built.append((a, b))
            return {"layout": a.layout, "value": value,
                    "same": a.describe() == b.describe()}

        data = run_sweep(SHAPE, ("naive", "multimap"), (2, 1), measure,
                         drive=small_model, seed=7, meta={"x": 1})
        assert list(data) == ["naive", "multimap", "meta"]
        assert list(data["naive"]) == [2, 1]
        assert data["multimap"][1] == {"layout": "multimap", "value": 1,
                                       "same": True}
        assert data["meta"] == {"shape": [16, 8, 8], "drive": "small",
                                "x": 1}
        # every fresh() call builds a new dataset
        assert all(a is not b for a, b in built)
        assert len({id(ds) for pair in built for ds in pair}) == 8

    def test_render_one_table_per_caption(self):
        data = {
            "naive": {1: {"v": 0.5}, 2: {"v": 0.25}},
            "multimap": {1: {"v": 1.0}, 2: {"v": 0.75}},
            "meta": {},
        }
        text = render_sweep(data, "title", [1, 2], [
            ("first", "n={}".format, "{0[v]:.2f}".format),
            ("second", "{} x".format, lambda c: f"{c['v']:.0%}"),
        ])
        parts = text.split("\n\n")
        assert parts[0] == "title"
        assert parts[1] == "first" and parts[3] == "second"
        assert "n=1" in parts[2] and "n=2" in parts[2]
        assert "0.25" in parts[2] and "75%" in parts[4]
        rows = [line.split()[0] for line in parts[2].splitlines()]
        assert rows[-2:] == ["naive", "multimap"]


def _beams(**kw):
    return dict(dict(drive="minidrive", n_beams=2), **kw)


NAN = math.nan
# (label, error, call): each call used to raise a bare builtin error,
# truncate a value silently or run an empty sweep; every call is small
# enough to finish at once if its check ever goes missing
BAD_SWEEPS = [
    # cache
    ("cache axes=()", BenchmarkError,
     lambda: run_cache_sweep(SHAPE, **_beams(axes=()))),
    ("cache --axes ,", BenchmarkError,
     lambda: main(["cache", "--shape", "16,8,8", "--axes", ",",
                   "--quiet"])),
    ("cache region_frac=nan", BenchmarkError,
     lambda: run_cache_sweep(SHAPE, **_beams(region_frac=NAN))),
    ("cache region_frac=inf", BenchmarkError,
     lambda: run_cache_sweep(SHAPE, **_beams(region_frac=math.inf))),
    ("cache region_frac=0", BenchmarkError,
     lambda: run_cache_sweep(SHAPE, **_beams(region_frac=0))),
    ("cache region_frac=1.5", BenchmarkError,
     lambda: run_cache_sweep(SHAPE, **_beams(region_frac=1.5))),
    ("cache n_beams=0", BenchmarkError,
     lambda: run_cache_sweep(SHAPE, **_beams(n_beams=0))),
    ("cache n_beams=2.5", BenchmarkError,
     lambda: run_cache_sweep(SHAPE, **_beams(n_beams=2.5))),
    ("cache layouts=()", BenchmarkError,
     lambda: run_cache_sweep(SHAPE, (), **_beams())),
    ("cache capacities=()", BenchmarkError,
     lambda: run_cache_sweep(SHAPE, capacities=(), **_beams())),
    ("cache capacities=(10.5,)", DatasetError,
     lambda: run_cache_sweep(SHAPE, ("naive",), (10.5,), **_beams())),
    ("cache repeats=2.5", QueryError,
     lambda: run_cache_sweep(SHAPE, ("naive",), (0,),
                             **_beams(repeats=2.5))),
    # scale
    ("scale n_beams=0", BenchmarkError,
     lambda: run_scale_sweep(SHAPE, **_beams(n_beams=0))),
    ("scale shard_counts=()", BenchmarkError,
     lambda: run_scale_sweep(SHAPE, shard_counts=(), **_beams())),
    ("scale shard_counts=(1.5,)", DatasetError,
     lambda: run_scale_sweep(SHAPE, ("naive",), (1.5,), **_beams())),
    ("scale split_axis=7", BenchmarkError,
     lambda: run_scale_sweep(SHAPE, ("naive",), (1,),
                             **_beams(split_axis=7))),
    ("scale split_axis=-4", BenchmarkError,
     lambda: run_scale_sweep(SHAPE, ("naive",), (1,),
                             **_beams(split_axis=-4))),
    ("scale split_axis=1.0", BenchmarkError,
     lambda: run_scale_sweep(SHAPE, ("naive",), (1,),
                             **_beams(split_axis=1.0))),
    # avail
    ("avail n_beams=0", BenchmarkError,
     lambda: run_avail_sweep(SHAPE, **_beams(n_beams=0, n_disks=2,
                                             ks=(1,)))),
    ("avail ks=()", BenchmarkError,
     lambda: run_avail_sweep(SHAPE, ks=(), **_beams(n_disks=2))),
    ("avail ks=(1.5,)", DatasetError,
     lambda: run_avail_sweep(SHAPE, ("naive",), (1.5,),
                             **_beams(n_disks=2))),
    ("avail n_disks=2.5", DatasetError,
     lambda: run_avail_sweep(SHAPE, ("naive",), (1,),
                             **_beams(n_disks=2.5))),
    # ingest
    ("ingest loaders=()", BenchmarkError,
     lambda: run_ingest_sweep(SHAPE, loaders=(), drive="minidrive")),
    ("ingest n_shards=2.7", DatasetError,
     lambda: run_ingest_sweep(SHAPE, ("naive",), ("fixed",),
                              n_shards=2.7, drive="minidrive")),
    ("ingest n_shards=0", DatasetError,
     lambda: run_ingest_sweep(SHAPE, ("naive",), ("fixed",),
                              n_shards=0, drive="minidrive")),
    ("ingest k=0", DatasetError,
     lambda: run_ingest_sweep(SHAPE, ("naive",), ("fixed",),
                              n_points=64, k=0, drive="minidrive")),
    ("ingest n_points=100.7", IngestError,
     lambda: run_ingest_sweep(SHAPE, ("naive",), ("fixed",),
                              n_points=100.7, drive="minidrive")),
    ("ingest flush_points=True", IngestError,
     lambda: run_ingest_sweep(SHAPE, ("naive",), ("fixed",),
                              flush_points=True, drive="minidrive")),
    ("avail kill_disk=1.5", ReplicaError,
     lambda: run_avail_sweep(SHAPE, ("naive",), (2,),
                             **_beams(n_disks=2, kill_disk=1.5))),
    # traffic
    ("storm clients=()", BenchmarkError,
     lambda: run_storm(SHAPE, clients=(), drive="minidrive")),
    ("storm clients=(1.5,)", QueryError,
     lambda: run_storm(SHAPE, ("naive",), (1.5,), queries=1,
                       drive="minidrive")),
    ("storm queries=2.5", QueryError,
     lambda: run_storm(SHAPE, ("naive",), (1,), queries=2.5,
                       drive="minidrive")),
    ("storm repeated clients", BenchmarkError,
     lambda: run_storm(SHAPE, ("naive",), (1, 1), queries=1,
                       drive="minidrive")),
    ("storm repeated layouts", BenchmarkError,
     lambda: run_storm(SHAPE, ("naive", "naive"), (1,), queries=1,
                       drive="minidrive")),
    # shapes
    ("cache shape (16.5, 8, 8)", DatasetError,
     lambda: run_cache_sweep((16.5, 8, 8), **_beams())),
    ("storm shape (16, True, 8)", DatasetError,
     lambda: run_storm((16, True, 8), ("naive",), (1,), queries=1,
                       drive="minidrive")),
]


@pytest.mark.parametrize("label, error, call", BAD_SWEEPS,
                         ids=[case[0] for case in BAD_SWEEPS])
def test_bad_sweep_parameters_raise_typed_errors(label, error, call):
    with pytest.raises(error):
        call()


def _ds():
    return Dataset.create(SHAPE, layout="naive", drive="minidrive", seed=1)


# each builder accepted these and truncated them (10.5 blocks, 2.5
# disks, 1.5 copies, 1.5 repeats, 1.5 clients, 2.5 queries, True as 1)
BAD_BUILDS = [
    ("with_cache(10.5)", DatasetError, lambda: _ds().with_cache(10.5)),
    ("with_cache(nan)", DatasetError, lambda: _ds().with_cache(NAN)),
    ("with_cache(True)", DatasetError, lambda: _ds().with_cache(True)),
    ("with_shards(2.5)", DatasetError, lambda: _ds().with_shards(2.5)),
    ("with_shards(True)", DatasetError, lambda: _ds().with_shards(True)),
    ("with_replication(1.5)", DatasetError,
     lambda: _ds().with_shards(2).with_replication(1.5)),
    ("with_replication(True)", DatasetError,
     lambda: _ds().with_shards(2).with_replication(True)),
    ("repeats(1.5)", QueryError, lambda: _ds().query().repeats(1.5)),
    ("repeats(True)", QueryError, lambda: _ds().query().repeats(True)),
    ("clients(1.5)", QueryError, lambda: _ds().traffic().clients(1.5)),
    ("clients(True)", QueryError, lambda: _ds().traffic().clients(True)),
    ("clients(queries=2.5)", QueryError,
     lambda: _ds().traffic().clients(1, queries=2.5)),
]


@pytest.mark.parametrize("label, error, call", BAD_BUILDS,
                         ids=[case[0] for case in BAD_BUILDS])
def test_builders_reject_non_integer_counts(label, error, call):
    with pytest.raises(error):
        call()


# run_one_storm (behind trace) let a scalar shape escape as a TypeError
BAD_ONE_STORMS = [
    ("shape=16", DatasetError,
     lambda: run_one_storm(16, clients=1, queries=1, telemetry={},
                           drive="minidrive")),
]


@pytest.mark.parametrize("label, error, call", BAD_ONE_STORMS,
                         ids=[case[0] for case in BAD_ONE_STORMS])
def test_one_storm_rejects_bad_counts(label, error, call):
    with pytest.raises(error):
        call()


def test_builders_accept_numpy_integers():
    ds = _ds().with_shards(np.int64(2)).with_replication(np.int32(2))
    assert ds.with_cache(np.int64(64)).cache.capacity == 64
    batch = ds.random_beams(axis=1, n=1).repeats(np.int16(2))
    assert len(batch.run().records) == 2
    report = ds.traffic().clients(np.int64(2), queries=np.int8(1)).run()
    assert report.aggregate()["n_queries"] == 2


def test_storm_slice_runs_zero_serves_whole_queries():
    kw = dict(layouts=("multimap",), clients=(2,), queries=2,
              drive="minidrive")
    whole = run_storm(SHAPE, slice_runs=0, **kw)
    assert whole["meta"]["slice_runs"] is None
    assert whole == run_storm(SHAPE, slice_runs=None, **kw)


def test_one_disk_one_copy_ingest_equals_plain_dataset():
    """Ingest calls ``with_shards`` and ``with_replication`` for every
    count, and 1 x 1 is the plain dataset."""
    kw = dict(n_points=256, batch_points=64, flush_points=128,
              drive="minidrive", n_shards=1, k=1, reorganize=True)
    data = run_ingest_sweep(SHAPE, ("naive", "multimap"), **kw)
    for layout in ("naive", "multimap"):
        for loader in ("fixed", "adaptive"):
            report = Dataset.create(
                SHAPE, layout=layout, drive="minidrive", seed=42,
            ).with_ingest(
                stream="clustered", loader=loader, n_points=256,
                batch_points=64, flush_points=128, seed=42,
                reorganize=True,
            ).ingest().run()
            assert data[layout][loader]["total_ms"] == report.total_ms
            assert data[layout][loader]["plan"] == report.plan
