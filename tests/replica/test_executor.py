"""Replicated datasets: read policies, failover, degraded stats."""

import numpy as np
import pytest

from repro.api import Dataset
from repro.errors import DatasetError, RegistryError, ReplicaError
from repro.query.workload import BeamQuery, RangeQuery
from repro.query.scatter import ShardedPrepared
from repro.replica import read_policy_names

SHAPE = (24, 12, 12)


def build(small_model, *, n=3, k=2, layout="multimap", seed=7, **opts):
    return Dataset.create(
        SHAPE, layout=layout, drive=small_model, seed=seed,
    ).with_shards(n).with_replication(k, **opts)


class TestFacadeWiring:
    def test_requires_sharding_first(self, small_model):
        ds = Dataset.create(SHAPE, drive=small_model)
        with pytest.raises(DatasetError, match="with_shards"):
            ds.with_replication(2)

    def test_k_bounded_by_disks(self, small_model):
        ds = Dataset.create(SHAPE, drive=small_model).with_shards(2)
        with pytest.raises(DatasetError, match="k=3"):
            ds.with_replication(3)
        with pytest.raises(DatasetError, match="k must be >= 1"):
            ds.with_replication(0)

    def test_bad_names_leave_dataset_untouched(self, small_model):
        ds = Dataset.create(SHAPE, drive=small_model,
                            seed=1).with_shards(2)
        storage = ds.storage
        with pytest.raises(RegistryError):
            ds.with_replication(2, placement="nope")
        with pytest.raises(RegistryError):
            ds.with_replication(2, read_policy="nope")
        assert ds.storage is storage
        assert not ds.is_replicated

    def test_with_layout_clone_carries_replication(self, small_model):
        ds = build(small_model, k=2, read_policy="round_robin")
        clone = ds.with_layout("zorder")
        assert clone.replication_k == 2
        assert clone._replica_spec == ds._replica_spec
        assert clone.replica_map.k == 2
        # fresh stack: the clone's storage is its own
        assert clone.storage is not ds.storage

    def test_resharding_reapplies_replication(self, small_model):
        ds = build(small_model, n=3, k=2)
        ds.with_shards(4)
        assert ds.n_shards == 4
        assert ds.replication_k == 2
        assert ds.replica_map.n_disks == 4

    def test_resharding_below_k_raises_and_leaves_intact(self,
                                                         small_model):
        ds = build(small_model, n=3, k=3)
        storage = ds.storage
        with pytest.raises(DatasetError, match="at least k member"):
            ds.with_shards(2)
        # the failed call left the dataset exactly as it was
        assert ds.storage is storage
        assert ds.n_shards == 3
        assert ds.replication_k == 3
        assert ds.is_replicated

    def test_primary_placement_matches_sharded_stack(self, small_model):
        """Copy-0 mappers occupy exactly the sharded stack's LBNs."""
        sharded = Dataset.create(SHAPE, drive=small_model).with_shards(3)
        replicated = build(small_model, n=3, k=2)
        for m_s, copies in zip(sharded.storage.mapper.chunk_mappers,
                               replicated.storage.copy_mappers):
            coords = np.asarray([[0, 0, 0], [1, 2, 3]], dtype=np.int64)
            np.testing.assert_array_equal(
                m_s.lbns(coords), copies[0].lbns(coords)
            )
            assert m_s.disk_index == copies[0].disk_index

    def test_replica_mappers_on_distinct_disks(self, small_model):
        ds = build(small_model, n=3, k=3)
        for i, copies in enumerate(ds.storage.copy_mappers):
            disks = [m.disk_index for m in copies]
            assert len(set(disks)) == 3
            assert disks == list(ds.replica_map.copies_of(i))


class TestReadPolicies:
    def test_builtins_registered(self):
        for name in ("primary", "round_robin", "least_loaded"):
            assert name in read_policy_names()

    def test_primary_routes_to_copy_zero_when_healthy(self, small_model):
        ds = build(small_model, k=2, read_policy="primary")
        ds.random_beams(axis=2, n=4).run()
        stats = ds.storage.replica_stats
        assert stats.replica_reads == 0
        assert stats.primary_reads > 0

    def test_round_robin_alternates_copies(self, small_model):
        ds = build(small_model, k=2, read_policy="round_robin")
        q = BeamQuery(2, (0, 0, 0), 0, None)
        rng = np.random.default_rng(0)
        ds.storage.run_query(ds.mapper, q, rng=rng)
        ds.storage.run_query(ds.mapper, q, rng=rng)
        stats = ds.storage.replica_stats
        assert stats.primary_reads > 0 and stats.replica_reads > 0

    def test_least_loaded_spreads_blocks(self, small_model):
        ds = build(small_model, k=2, read_policy="least_loaded")
        ds.random_beams(axis=1, n=6).run()
        stats = ds.storage.replica_stats
        blocks = [b for b in stats.planned_blocks if b]
        assert len(blocks) >= 2  # load landed on several disks

    def test_prepared_carries_sources(self, small_model):
        ds = build(small_model, k=2)
        prepared = ds.storage.prepare(
            ds.mapper, RangeQuery((0, 0, 0), (24, 12, 4))
        )
        assert isinstance(prepared, ShardedPrepared)
        assert len(prepared.sources) == len(prepared.subs)
        for source, sub in zip(prepared.sources, prepared.subs):
            disk = ds.replica_map.disks[source.chunk, source.copy]
            assert sub.disk_index == int(disk)


class TestFailover:
    def test_failed_primary_diverts_reads(self, small_model):
        ds = build(small_model, n=3, k=2)
        victim = int(ds.replica_map.disks[0, 0])
        ds.storage.fail_disk(victim)
        report = ds.random_beams(axis=2, n=4).run()
        stats = report.meta["replicas"]["stats"]
        assert report.meta["replicas"]["failed"] == [victim]
        assert stats["replica_reads"] > 0
        assert stats["degraded_queries"] > 0
        # no sub-plan may touch the dead disk
        prepared = ds.storage.prepare(
            ds.mapper, RangeQuery((0, 0, 0), SHAPE)
        )
        assert all(s.disk_index != victim for s in prepared.subs)

    def test_revive_restores_primary_routing(self, small_model):
        ds = build(small_model, n=3, k=2)
        ds.storage.fail_disk(1)
        ds.storage.revive_disk(1)
        ds.random_beams(axis=2, n=3).run()
        assert ds.storage.replica_stats.replica_reads == 0

    def test_all_copies_dead_raises(self, small_model):
        ds = build(small_model, n=3, k=2)
        disks = ds.replica_map.copies_of(0)
        for d in disks:
            ds.storage.fail_disk(d)
        with pytest.raises(ReplicaError, match="unreadable"):
            ds.storage.prepare(ds.mapper, RangeQuery((0, 0, 0), SHAPE))

    def test_k1_failure_loses_chunks(self, small_model):
        ds = build(small_model, n=3, k=1)
        ds.storage.fail_disk(0)
        with pytest.raises(ReplicaError, match="all 1 copies"):
            ds.storage.prepare(ds.mapper, RangeQuery((0, 0, 0), SHAPE))

    def test_fail_disk_validates_range(self, small_model):
        ds = build(small_model, n=3, k=2)
        with pytest.raises(ReplicaError, match="out of range"):
            ds.storage.fail_disk(9)

    def test_failover_sub_restarts_on_live_copy(self, small_model):
        ds = build(small_model, n=3, k=2)
        prepared = ds.storage.prepare(
            ds.mapper, RangeQuery((0, 0, 0), SHAPE)
        )
        source = prepared.sources[0]
        dead = int(ds.replica_map.disks[source.chunk, source.copy])
        ds.storage.fail_disk(dead)
        moved, sub = ds.storage.failover_sub(source)
        assert moved.chunk == source.chunk
        assert moved.copy != source.copy
        assert sub.disk_index != dead
        assert sub.n_cells == source.n_cells
        assert ds.storage.replica_stats.failovers == 1

    def test_degraded_results_still_cover_all_cells(self, small_model):
        """Same query, healthy vs degraded: identical cells and blocks,
        only the timing (and serving disks) differ."""
        healthy = build(small_model, n=3, k=2, seed=5)
        degraded = build(small_model, n=3, k=2, seed=5)
        degraded.storage.fail_disk(0)
        q = RangeQuery((0, 0, 0), (24, 12, 6))
        r_h = healthy.storage.run_query(
            healthy.mapper, q, rng=np.random.default_rng(1)
        )
        r_d = degraded.storage.run_query(
            degraded.mapper, q, rng=np.random.default_rng(1)
        )
        assert r_h.n_cells == r_d.n_cells
        assert r_h.n_blocks == r_d.n_blocks


def _resident_on(pool, disk: int) -> int:
    """Frames a shared pool currently holds for one member disk."""
    return len(pool._resident.get(disk, ()))


class TestCacheIntegration:
    def test_fail_disk_drops_cached_frames(self, small_model):
        ds = build(small_model, n=3, k=2).with_cache(8192)
        ds.random_beams(axis=2, n=4).run()
        pool = ds.cache
        assert pool.occupancy > 0
        dead = max(range(3), key=lambda d: _resident_on(pool, d))
        n_dead = _resident_on(pool, dead)
        assert n_dead > 0
        before = pool.occupancy
        ds.storage.fail_disk(dead)
        assert _resident_on(pool, dead) == 0
        assert pool.occupancy == before - n_dead

    def test_per_shard_pool_drops_failed_member(self, small_model):
        ds = build(small_model, n=3, k=2).with_cache(
            1024, scope="per_shard"
        )
        ds.random_beams(axis=2, n=4).run()
        victim = max(
            range(3), key=lambda d: ds.cache.pools[d].occupancy
        )
        assert ds.cache.pools[victim].occupancy > 0
        ds.storage.fail_disk(victim)
        assert ds.cache.pools[victim].occupancy == 0

    def test_admit_skips_failed_disks(self, small_model):
        ds = build(small_model, n=3, k=2).with_cache(8192)
        prepared = ds.storage.prepare(
            ds.mapper, RangeQuery((0, 0, 0), SHAPE)
        )
        victim = prepared.subs[0].disk_index
        ds.storage.fail_disk(victim)
        for sub in prepared.subs:
            ds.storage.admit_prepared(sub)
        assert _resident_on(ds.cache, victim) == 0
        assert ds.cache.occupancy > 0  # live disks' blocks did land
