"""Cache integration across the executor, façade, and traffic engine."""

import numpy as np
import pytest

from repro.api import Dataset
from repro.cache import BufferPool
from repro.traffic import QueryMix


@pytest.fixture()
def cached_dataset(small_model):
    ds = Dataset.create((24, 12, 12), layout="multimap",
                        drive=small_model, seed=3)
    ds.with_cache(4096, policy="lru", prefetch="none")
    return ds


class TestExecutorPath:
    def test_repeat_query_hits_and_speeds_up(self, cached_dataset):
        ds = cached_dataset
        q = ds.query().beam(1, fixed=(5, 0, 5))
        first = q.run()
        again = ds.query().beam(1, fixed=(5, 0, 5)).run()
        rec1 = first.records[0].result
        rec2 = again.records[0].result
        # identical logical work, but served from memory
        assert rec2.n_blocks == rec1.n_blocks
        assert rec2.n_cells == rec1.n_cells
        assert rec2.total_ms < rec1.total_ms
        assert rec2.seek_ms == rec2.rotation_ms == rec2.transfer_ms == 0.0
        stats = ds.cache.stats
        assert stats.hits == rec1.n_blocks
        assert stats.hits + stats.misses == stats.accesses

    def test_memory_time_accounting(self, cached_dataset):
        ds = cached_dataset
        ds.query().beam(1, fixed=(5, 0, 5)).run()
        res = ds.query().beam(1, fixed=(5, 0, 5)).run().records[0].result
        expected = res.n_blocks * ds.cache.service_ms_per_block
        assert res.total_ms == pytest.approx(expected)

    def test_report_meta_carries_cache_snapshot(self, cached_dataset):
        rep = cached_dataset.random_beams(axis=1, n=2).run()
        snap = rep.meta["cache"]
        assert snap["capacity_blocks"] == 4096
        assert snap["stats"]["accesses"] > 0

    def test_prepare_partitions_plan(self, cached_dataset):
        ds = cached_dataset
        ds.query().beam(1, fixed=(5, 0, 5)).run()
        from repro.query.workload import BeamQuery

        prepared = ds.storage.prepare(BeamQuery(1, (5, 0, 5)))
        assert prepared.cache_hits == 12
        assert prepared.subs[0].plan.n_runs == 0
        assert prepared.cache_ms > 0


class TestWithCacheFacade:
    def test_with_cache_zero_detaches(self, cached_dataset):
        assert cached_dataset.cache is not None
        cached_dataset.with_cache(0)
        assert cached_dataset.cache is None
        assert "cache" not in cached_dataset.describe()

    def test_negative_capacity_rejected(self, cached_dataset):
        from repro.errors import DatasetError

        with pytest.raises(DatasetError):
            cached_dataset.with_cache(-4)

    def test_bad_names_rejected_even_at_capacity_zero(self, small_model):
        from repro.errors import RegistryError

        ds = Dataset.create((24, 12, 12), layout="naive",
                            drive=small_model)
        with pytest.raises(RegistryError):
            ds.with_cache(0, policy="nope")
        with pytest.raises(RegistryError):
            ds.with_cache(0, prefetch="bogus")

    def test_policy_instances_rejected(self, small_model):
        """A pre-built policy object would be shared across with_layout
        clones (one pool's residency leaking into another layout's
        measurements), and a class bypasses the registry: with_cache
        takes registered names only, at every capacity."""
        from repro.cache import LRUPolicy, TrackPrefetcher
        from repro.errors import CacheError

        ds = Dataset.create((24, 12, 12), layout="naive",
                            drive=small_model)
        for capacity in (64, 0):
            for spec in (dict(policy=LRUPolicy(64)),
                         dict(policy=LRUPolicy),
                         dict(prefetch=TrackPrefetcher)):
                with pytest.raises(CacheError):
                    ds.with_cache(capacity, **spec)
        assert ds.cache is None

    def test_describe_gains_cache_spec(self, cached_dataset):
        spec = cached_dataset.describe()["cache"]
        assert spec == {"capacity_blocks": 4096, "policy": "lru",
                        "prefetch": "none"}

    def test_with_layout_clones_spec_not_pool(self, cached_dataset):
        clone = cached_dataset.with_layout("zorder")
        assert clone.cache is not None
        assert clone.cache is not cached_dataset.cache
        assert clone.describe()["cache"] \
            == cached_dataset.describe()["cache"]

    def test_chainable_from_create(self, small_model):
        ds = Dataset.create((24, 12, 12), layout="naive",
                            drive=small_model, seed=1).with_cache(
            512, policy="scan", prefetch="adjacent",
        )
        assert ds.cache.policy.describe() == "scan"
        assert ds.cache.prefetcher.describe() == "adjacent[4]"


class TestPrefetchers:
    def test_track_prefetch_rounds_to_track(self, small_model):
        ds = Dataset.create((24, 12, 12), layout="multimap",
                            drive=small_model, seed=3)
        ds.with_cache(8192, prefetch="track")
        ds.query().beam(0, fixed=(0, 2, 3)).run()
        geom = ds.volume.models[0].geometry
        # every block of every track the beam touched is now resident
        plan = ds.mapper.beam_plan(0, (0, 2, 3))
        for start in plan.starts.tolist():
            lo, hi = geom.track_boundaries(int(start))
            assert all(ds.cache.contains(0, lbn) for lbn in range(lo, hi))
        assert ds.cache.stats.prefetch_issued > 0

    def test_adjacent_prefetch_pulls_successors(self, small_model):
        ds = Dataset.create((24, 12, 12), layout="multimap",
                            drive=small_model, seed=3)
        ds.with_cache(8192, prefetch="adjacent")
        ds.query().beam(0, fixed=(0, 2, 3)).run()
        plan = ds.mapper.beam_plan(0, (0, 2, 3))
        adj = ds.volume.adjacency[0]
        last = int(plan.starts[-1] + plan.lengths[-1] - 1)
        for step in (1, 2, 3, 4):
            assert ds.cache.contains(0, adj.get_adjacent(last, step))

    def test_prefetch_hits_counted(self, small_model):
        # naive on the 120-sector tracks packs 5 rows per track, so
        # rounding one beam out to its track caches the neighbor rows
        ds = Dataset.create((24, 12, 12), layout="naive",
                            drive=small_model, seed=3)
        ds.with_cache(8192, prefetch="track")
        ds.query().beam(0, fixed=(0, 2, 3)).run()
        issued = ds.cache.stats.prefetch_issued
        assert issued > 0
        # the neighboring beam lives on the prefetched track
        ds.query().beam(0, fixed=(0, 3, 3)).run()
        assert ds.cache.stats.prefetch_hits > 0
        assert ds.cache.stats.prefetch_hits <= issued


class TestUpdateInvalidation:
    def test_insert_invalidates_cell_home_blocks(self, small_model):
        ds = Dataset.create((24, 12, 12), layout="multimap",
                            drive=small_model, seed=3)
        ds.with_cache(4096)
        ds.query().beam(1, fixed=(5, 0, 5)).run()
        import numpy as np

        cell = (5, 4, 5)
        first = int(ds.mapper.lbns(np.asarray([cell]))[0])
        assert ds.cache.contains(0, first)
        ds.insert(cell)
        assert not ds.cache.contains(0, first)

    def test_reorganize_clears_pool(self, small_model):
        ds = Dataset.create((24, 12, 12), layout="multimap",
                            drive=small_model, seed=3)
        ds.with_cache(4096)
        ds.configure_store(points_per_cell=8)
        ds.query().beam(1, fixed=(5, 0, 5)).run()
        assert ds.cache.occupancy > 0
        ds.insert((1, 1, 1))  # 1/8 underflows the reclaim threshold
        assert ds.needs_reorganization
        ds.reorganize()
        assert ds.cache.occupancy == 0

    def test_bulk_load_clears_pool(self, small_model):
        ds = Dataset.create((24, 12, 12), layout="multimap",
                            drive=small_model, seed=3)
        ds.with_cache(4096)
        ds.query().beam(1, fixed=(5, 0, 5)).run()
        assert ds.cache.occupancy > 0
        ds.bulk_load([(0, 0, 0), (1, 0, 0)])
        assert ds.cache.occupancy == 0


class TestTrafficIntegration:
    def test_shared_pool_across_clients(self, small_model):
        ds = Dataset.create((24, 12, 12), layout="multimap",
                            drive=small_model, seed=5)
        ds.with_cache(4096, prefetch="track")
        report = (
            ds.traffic()
            .clients(4, mix=QueryMix.beams(1), queries=8)
            .run()
        )
        snap = report.cache_stats()
        assert snap["stats"]["hits"] > 0
        assert snap["stats"]["hits"] + snap["stats"]["misses"] \
            == snap["stats"]["accesses"]
        # trace totals still count cached blocks as work done
        assert all(tr.n_blocks > 0 for tr in report.traces)
        assert "cache" in report.render_table()

    def test_fully_cached_query_completes(self, small_model):
        """A query whose every block hits never touches the drive but
        still completes, with memory-only service time."""
        ds = Dataset.create((24, 12, 12), layout="multimap",
                            drive=small_model, seed=5)
        ds.with_cache(8192)
        from repro.query.workload import BeamQuery

        beam = BeamQuery(1, (7, 0, 7))
        ds.query().add([beam]).run()  # warm
        from repro.traffic import Replay

        report = (
            ds.traffic()
            .clients(1, mix=Replay([beam]), queries=3)
            .run()
        )
        assert len(report.traces) == 3
        last = report.traces[-1]
        assert last.n_blocks == 12
        assert last.service_ms == pytest.approx(
            12 * ds.cache.service_ms_per_block
        )
        assert last.n_slices == 0  # never entered the drive queue
        # the drive did no work and recorded no phantom slices
        for d in report.drives:
            assert d.served_slices == 0
            assert d.served_blocks == 0
            assert d.busy_ms == 0.0

    def test_engine_admits_on_completion(self, small_model):
        ds = Dataset.create((24, 12, 12), layout="naive",
                            drive=small_model, seed=5)
        ds.with_cache(4096)
        assert ds.cache.occupancy == 0
        ds.traffic().clients(1, mix=QueryMix.beams(1), queries=2).run()
        assert ds.cache.occupancy > 0


class TestStorageManagerDirect:
    def test_constructor_accepts_pool(self, small_model):
        from repro.lvm.volume import LogicalVolume
        from repro.query.executor import StorageManager

        volume = LogicalVolume([small_model])
        pool = BufferPool(128)
        sm = StorageManager(volume, cache=pool)
        assert sm.cache is pool

    def test_run_query_admits_and_hits(self, small_model):
        ds = Dataset.create((24, 12, 12), layout="naive",
                            drive=small_model, seed=2)
        ds.storage.cache = BufferPool(2048)
        rng = np.random.default_rng(0)
        from repro.query.workload import BeamQuery

        q = BeamQuery(2, (3, 3, 0))
        cold = ds.storage.run_query(q, rng=rng)
        warm = ds.storage.run_query(q, rng=rng)
        assert warm.total_ms < cold.total_ms
        assert warm.n_blocks == cold.n_blocks
        assert ds.storage.cache.stats.hit_ratio == 0.5
