"""Replicated datasets: copy routing, failover, degraded stats."""

import numpy as np
import pytest

from repro.api import Dataset
from repro.errors import DatasetError, ReplicaError
from repro.query.workload import RangeQuery
from repro.query.scatter import ShardedPrepared

SHAPE = (24, 12, 12)


def build(small_model, *, n=3, k=2, layout="multimap", seed=7):
    return Dataset.create(
        SHAPE, layout=layout, drive=small_model, seed=seed,
    ).with_shards(n).with_replication(k)


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

    def test_with_layout_clone_carries_replication(self, small_model):
        ds = build(small_model, k=2)
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
    def test_primary_routes_to_copy_zero_when_healthy(self, small_model):
        ds = build(small_model, k=2)
        report = ds.random_beams(axis=2, n=4).run()
        stats = report.meta["replicas"]["stats"]
        assert stats["replica_reads"] == 0
        assert stats["primary_reads"] > 0

    def test_prepared_carries_sources(self, small_model):
        ds = build(small_model, k=2)
        prepared = ds.storage.prepare(RangeQuery((0, 0, 0), (24, 12, 4)))
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
        prepared = ds.storage.prepare(RangeQuery((0, 0, 0), SHAPE))
        assert all(s.disk_index != victim for s in prepared.subs)

    @pytest.mark.parametrize("failed", [(0,), (0, 1), (1, 3)])
    def test_lowest_live_copy_serves(self, small_model, failed):
        """Every chunk piece reads its lowest-numbered copy on a live
        disk: copy 0 while its primary lives, else the next copy along
        the rotation."""
        ds = build(small_model, n=4, k=3)
        for disk in failed:
            ds.storage.fail_disk(disk)
        prepared = ds.storage.prepare(RangeQuery((0, 0, 0), SHAPE))
        disks = ds.replica_map.disks
        copies = set()
        for source, sub in zip(prepared.sources, prepared.subs):
            live = [r for r in range(3)
                    if int(disks[source.chunk, r]) not in failed]
            assert source.copy == live[0]
            assert sub.disk_index == int(disks[source.chunk, live[0]])
            copies.add(source.copy)
        assert len(copies) > 1  # some pieces moved off their primary

    def test_revive_restores_primary_routing(self, small_model):
        ds = build(small_model, n=3, k=2)
        ds.storage.fail_disk(1)
        ds.storage.revive_disk(1)
        report = ds.random_beams(axis=2, n=3).run()
        assert report.meta["replicas"]["stats"]["replica_reads"] == 0

    def test_all_copies_dead_raises(self, small_model):
        ds = build(small_model, n=3, k=2)
        disks = ds.replica_map.copies_of(0)
        for d in disks:
            ds.storage.fail_disk(d)
        with pytest.raises(ReplicaError, match="unreadable"):
            ds.storage.prepare(RangeQuery((0, 0, 0), SHAPE))

    def test_k1_failure_loses_chunks(self, small_model):
        ds = build(small_model, n=3, k=1)
        ds.storage.fail_disk(0)
        with pytest.raises(ReplicaError, match="all 1 copies"):
            ds.storage.prepare(RangeQuery((0, 0, 0), SHAPE))

    def test_fail_disk_validates_range(self, small_model):
        ds = build(small_model, n=3, k=2)
        with pytest.raises(ReplicaError, match="out of range"):
            ds.storage.fail_disk(9)

    @pytest.mark.parametrize("method, disk", [
        ("fail_disk", 1.7), ("fail_disk", True), ("fail_disk", "1"),
        ("revive_disk", 99), ("revive_disk", 0.5),
    ], ids=["fail 1.7", "fail True", "fail '1'", "revive 99",
            "revive 0.5"])
    def test_disk_argument_is_a_member_index(self, small_model, method,
                                             disk):
        """``disk`` is checked as a failure event checks it, then
        range-checked: 1.7, True and "1" used to kill disk 1, 99 was
        revived silently and 0.5 revived disk 0.  A rejected call
        changes neither the failed set nor the pool."""
        ds = build(small_model, n=3, k=2).with_cache(8192)
        ds.storage.fail_disk(0)
        ds.random_beams(axis=2, n=4).run()
        resident = {d: set(lbns) for d, lbns in ds.cache._resident.items()}
        assert any(resident.values())
        with pytest.raises(ReplicaError, match="disk"):
            getattr(ds.storage, method)(disk)
        assert ds.storage.failed == {0}
        assert {d: set(lbns) for d, lbns in ds.cache._resident.items()} \
            == resident

    def test_failover_sub_restarts_on_live_copy(self, small_model):
        ds = build(small_model, n=3, k=2)
        prepared = ds.storage.prepare(RangeQuery((0, 0, 0), SHAPE))
        source = prepared.sources[0]
        dead = int(ds.replica_map.disks[source.chunk, source.copy])
        ds.storage.fail_disk(dead)
        moved, sub = ds.storage.failover_sub(source)
        assert moved.chunk == source.chunk
        assert moved.copy != source.copy
        assert sub.disk_index != dead
        assert sub.n_cells == source.n_cells

    def test_degraded_results_still_cover_all_cells(self, small_model):
        """Same query, healthy vs degraded: identical cells and blocks,
        only the timing (and serving disks) differ."""
        healthy = build(small_model, n=3, k=2, seed=5)
        degraded = build(small_model, n=3, k=2, seed=5)
        degraded.storage.fail_disk(0)
        q = RangeQuery((0, 0, 0), (24, 12, 6))
        r_h = healthy.storage.run_query(q, rng=np.random.default_rng(1))
        r_d = degraded.storage.run_query(q, rng=np.random.default_rng(1))
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

    def test_admit_skips_failed_disks(self, small_model):
        ds = build(small_model, n=3, k=2).with_cache(8192)
        prepared = ds.storage.prepare(RangeQuery((0, 0, 0), SHAPE))
        victim = prepared.subs[0].disk_index
        ds.storage.fail_disk(victim)
        for sub in prepared.subs:
            ds.storage.admit_prepared(sub)
        assert _resident_on(ds.cache, victim) == 0
        assert ds.cache.occupancy > 0  # live disks' blocks did land
