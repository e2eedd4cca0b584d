"""Parity: capacity 0 (or no pool) is bit-identical to pre-cache main.

The acceptance bar of the cache subsystem: with no cache — and with a
capacity-0 pool attached directly to the storage manager —
``QueryBatch.run``, ``execute_plan``, and a seeded ``TrafficSim`` run
must produce bit-identical results and JSON to the uncached stack.
Every comparison below is ``==`` on full JSON or dataclass fields, no
tolerances.
"""

import numpy as np
import pytest

from repro.api import Dataset
from repro.cache import BufferPool
from repro.query.workload import random_beam, random_range_cube
from repro.traffic import QueryMix

LAYOUTS = ["multimap", "naive", "zorder", "hilbert"]


@pytest.mark.parametrize("layout", LAYOUTS)
class TestBatchParity:
    def test_with_cache_zero_json_identical(self, small_model, layout):
        shape = (24, 12, 12)
        plain = Dataset.create(shape, layout=layout, drive=small_model,
                               seed=11)
        r_plain = plain.query().random_beams(axis=1, n=5) \
                       .range_selectivity(5.0).run()
        cached0 = Dataset.create(shape, layout=layout, drive=small_model,
                                 seed=11).with_cache(0)
        r_cached0 = cached0.query().random_beams(axis=1, n=5) \
                           .range_selectivity(5.0).run()
        assert r_plain.to_json() == r_cached0.to_json()

    def test_capacity_zero_pool_on_executor(self, small_model, layout):
        """A literal capacity-0 BufferPool wired into the manager (not
        just ``with_cache(0)``'s detach) is also bit-identical."""
        shape = (24, 12, 12)
        ds1 = Dataset.create(shape, layout=layout, drive=small_model)
        ds2 = Dataset.create(shape, layout=layout, drive=small_model)
        ds2.storage.cache = BufferPool(0, prefetch="track")
        rng1 = np.random.default_rng(5)
        rng2 = np.random.default_rng(5)
        for _ in range(3):
            q1 = random_beam(shape, 1, rng1)
            q2 = random_beam(shape, 1, rng2)
            assert ds1.storage.run_query(q1, rng=rng1) \
                == ds2.storage.run_query(q2, rng=rng2)
        for _ in range(2):
            q1 = random_range_cube(shape, 8.0, rng1)
            q2 = random_range_cube(shape, 8.0, rng2)
            assert ds1.storage.execute_plan(
                ds1.mapper, ds1.mapper.range_plan(q1.lo, q1.hi),
                q1.n_cells(), rng=rng1,
            ) == ds2.storage.execute_plan(
                ds2.mapper, ds2.mapper.range_plan(q2.lo, q2.hi),
                q2.n_cells(), rng=rng2,
            )


class TestTrafficParity:
    @pytest.mark.parametrize("layout", ["multimap", "zorder"])
    def test_seeded_traffic_json_identical(self, small_model, layout):
        shape = (24, 12, 12)

        def run(ds):
            return (
                ds.traffic()
                .clients(3, mix=QueryMix.beams(1, 2), queries=6)
                .slice_runs(8)
                .run()
            )

        plain = Dataset.create(shape, layout=layout, drive=small_model,
                               seed=9)
        cached0 = Dataset.create(shape, layout=layout, drive=small_model,
                                 seed=9).with_cache(0)
        assert run(plain).to_json() == run(cached0).to_json()

    def test_capacity_zero_pool_in_engine(self, small_model):
        """Pool object with capacity 0 threaded through the engine."""
        shape = (24, 12, 12)

        def run(ds):
            return (
                ds.traffic()
                .clients(2, mix=QueryMix.beams(1), queries=5)
                .run()
            )

        plain = Dataset.create(shape, layout="multimap",
                               drive=small_model, seed=13)
        with_pool = Dataset.create(shape, layout="multimap",
                                   drive=small_model, seed=13)
        with_pool.storage.cache = BufferPool(0, prefetch="adjacent")
        assert run(plain).to_json() == run(with_pool).to_json()

    def test_uncached_meta_has_no_cache_key(self, make_dataset):
        report = make_dataset().traffic().clients(1, queries=3).run()
        assert "cache" not in report.meta
        assert report.cache_stats() is None


class TestActiveCacheStillDeterministic:
    def test_same_seed_same_json_with_cache(self, small_model):
        shape = (24, 12, 12)

        def run():
            ds = Dataset.create(shape, layout="multimap",
                                drive=small_model, seed=21)
            ds.with_cache(2048, policy="slru", prefetch="track")
            return (
                ds.traffic()
                .clients(3, mix=QueryMix.beams(1, 2), queries=6)
                .slice_runs(16)
                .run()
            )

        assert run().to_json() == run().to_json()
