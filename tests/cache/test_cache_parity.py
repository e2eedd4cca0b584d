"""Parity: ``with_cache(0)`` detaches, bit-identical to no pool.

A pool has at least one frame; capacity 0 on the façade means no pool
at all, so ``QueryBatch.run`` and a seeded traffic run after
``with_cache(0)`` must produce JSON identical to a dataset that never
had one.  Every comparison below is ``==`` on full JSON, no tolerances.
"""

import pytest

from repro.api import Dataset
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
            ds.with_cache(2048, prefetch="track")
            return (
                ds.traffic()
                .clients(3, mix=QueryMix.beams(1, 2), queries=6)
                .slice_runs(16)
                .run()
            )

        assert run().to_json() == run().to_json()
