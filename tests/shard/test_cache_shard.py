"""The one buffer pool of a sharded dataset spans every member disk."""

import pytest

from repro.api import Dataset
from repro.cache import BufferPool
from repro.errors import RegistryError

SHAPE = (24, 12, 12)


class TestDatasetComposition:
    def test_shared_pool_spans_shards(self, small_model):
        ds = Dataset.create(SHAPE, layout="multimap", drive=small_model,
                            seed=5).with_shards(3).with_cache(
            4096, prefetch="track",
        )
        assert isinstance(ds.cache, BufferPool)
        ds.random_beams(axis=2, n=4).repeats(2).run()
        assert ds.cache.stats.hits > 0

    def test_with_shards_reinstates_cache_spec(self, small_model):
        ds = Dataset.create(SHAPE, layout="multimap", drive=small_model,
                            seed=5).with_cache(8192)
        first = ds.cache
        ds.with_shards(4)
        assert isinstance(ds.cache, BufferPool)
        assert ds.cache is not first
        assert ds.cache.capacity == 8192
        ds.range((0, 0, 0), SHAPE).run()
        # one pool holds frames of several member disks
        assert len([d for d, lbns in ds.cache._resident.items()
                    if lbns]) > 1

    def test_rejected_cache_config_leaves_spec_unchanged(self,
                                                         small_model):
        """A pool constructor failure must not commit a stale spec."""
        ds = Dataset.create(SHAPE, layout="multimap", drive=small_model)
        with pytest.raises(RegistryError):
            ds.with_cache(1024, policy="nope")
        assert ds.cache is None
        assert "cache" not in ds.describe()
        # and the dataset still shards cleanly afterwards
        ds.with_shards(2)
        assert ds.cache is None
        # a rejected call leaves an attached pool and its spec in place
        ds.with_cache(512, prefetch="track")
        pool, spec = ds.cache, ds.describe()["cache"]
        with pytest.raises(RegistryError):
            ds.with_cache(1024, prefetch="bogus")
        assert ds.cache is pool
        assert ds.describe()["cache"] == spec
