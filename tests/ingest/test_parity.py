"""Parity: the read path is bit-identical with ingest detached.

The acceptance bar of the ingest subsystem: loading the write path —
attaching a ``with_ingest`` spec, or building a full
:class:`IngestPipeline` (stores, twin overflow extents) against a
dataset — must leave every pure-read output byte-for-byte what the
PR 5 stack produced: executor ``QueryResult`` s, batch ``Report`` JSON,
traffic JSON, with and without an active cache.  Every comparison is
``==`` on full JSON or dataclass fields, no tolerances — the same bar
the shard, cache, and replica parities hold.
"""

import numpy as np
import pytest

from repro.api import Dataset
from repro.ingest.loader import resolve_loader
from repro.ingest.pipeline import IngestPipeline
from repro.ingest.streams import UniformStream
from repro.query.workload import random_beam, random_range_cube
from repro.traffic import QueryMix

LAYOUTS = ["multimap", "naive", "zorder", "hilbert"]
SHAPE = (24, 12, 12)


def attach_pipeline(ds):
    """Build the full write path against ``ds`` without flushing."""
    stream = UniformStream(SHAPE, n_points=64, seed=3)
    plan = resolve_loader("fixed").fn(ds, stream)
    IngestPipeline(ds, stream, plan, flush_points=1024)
    return ds


@pytest.mark.parametrize("layout", LAYOUTS)
class TestDetachedParity:
    def test_report_json_identical(self, small_model, layout):
        def run(ds):
            return ds.query().random_beams(axis=1, n=5) \
                     .range_selectivity(5.0).run()

        bare = Dataset.create(SHAPE, layout=layout, drive=small_model,
                              seed=11).with_shards(2)
        loaded = attach_pipeline(
            Dataset.create(SHAPE, layout=layout, drive=small_model,
                           seed=11).with_shards(2)
        )
        assert run(bare).to_json() == run(loaded).to_json()

    def test_executor_results_identical(self, small_model, layout):
        ds1 = Dataset.create(SHAPE, layout=layout,
                             drive=small_model).with_shards(2) \
            .with_replication(2)
        ds2 = attach_pipeline(
            Dataset.create(SHAPE, layout=layout,
                           drive=small_model).with_shards(2)
            .with_replication(2)
        )
        rng1 = np.random.default_rng(5)
        rng2 = np.random.default_rng(5)
        for _ in range(3):
            q1 = random_beam(SHAPE, 1, rng1)
            q2 = random_beam(SHAPE, 1, rng2)
            assert ds1.storage.run_query(q1, rng=rng1) \
                == ds2.storage.run_query(q2, rng=rng2)
        for _ in range(2):
            q1 = random_range_cube(SHAPE, 8.0, rng1)
            q2 = random_range_cube(SHAPE, 8.0, rng2)
            assert ds1.storage.run_query(q1, rng=rng1) \
                == ds2.storage.run_query(q2, rng=rng2)


class TestTrafficParity:
    @pytest.mark.parametrize("layout", ["multimap", "zorder"])
    def test_seeded_traffic_json_identical(self, small_model, layout):
        def run(ds):
            return (
                ds.traffic()
                .clients(3, mix=QueryMix.beams(1, 2), queries=6)
                .slice_runs(8)
                .run()
            )

        bare = Dataset.create(SHAPE, layout=layout, drive=small_model,
                              seed=9).with_shards(2)
        loaded = attach_pipeline(
            Dataset.create(SHAPE, layout=layout, drive=small_model,
                           seed=9).with_shards(2)
        )
        assert run(bare).to_json() == run(loaded).to_json()


class TestCachedParity:
    def test_cached_batch_report_identical(self, small_model):
        """An active pool composes with the detached write path
        bit-for-bit (write-invalidate never fires without writes)."""
        def build(load):
            ds = Dataset.create(SHAPE, layout="multimap",
                                drive=small_model, seed=21) \
                .with_shards(2) \
                .with_cache(2048, policy="slru", prefetch="track")
            return attach_pipeline(ds) if load else ds

        r_bare = build(False).query().random_beams(axis=1, n=6) \
                             .repeats(2).run()
        r_load = build(True).query().random_beams(axis=1, n=6) \
                            .repeats(2).run()
        assert r_bare.to_json() == r_load.to_json()

    def test_cached_traffic_identical(self, small_model):
        def run(load):
            ds = Dataset.create(SHAPE, layout="multimap",
                                drive=small_model, seed=27) \
                .with_shards(2)
            ds.with_cache(2048, prefetch="track")
            if load:
                attach_pipeline(ds)
            return (
                ds.traffic()
                .clients(2, mix=QueryMix.beams(1, 2), queries=5)
                .slice_runs(8)
                .run()
            )

        assert run(False).to_json() == run(True).to_json()
