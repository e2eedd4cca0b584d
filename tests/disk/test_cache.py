"""Tests for the firmware track cache (modern-storage ablation feature)."""

import numpy as np
import pytest

from repro.disk import DiskDrive, TrackCache


class TickTrackCache:
    """The original O(capacity)-eviction TrackCache, kept as the
    reference for the insertion-order implementation."""

    def __init__(self, capacity_tracks: int):
        self.capacity = int(capacity_tracks)
        self._lru: dict[int, int] = {}
        self._tick = 0

    def hit(self, track_first: int, track_last: int) -> bool:
        tracks = range(track_first, track_last + 1)
        if all(t in self._lru for t in tracks):
            for t in tracks:
                self._tick += 1
                self._lru[t] = self._tick
            return True
        return False

    def insert(self, track_first: int, track_last: int) -> None:
        for t in range(track_first, track_last + 1):
            self._tick += 1
            self._lru[t] = self._tick
        while len(self._lru) > self.capacity:
            oldest = min(self._lru, key=self._lru.get)
            del self._lru[oldest]


class TestTrackCache:
    def test_miss_then_hit(self):
        c = TrackCache(4)
        assert not c.hit(3, 3)
        c.insert(3, 3)
        assert c.hit(3, 3)

    def test_multi_track_hit_needs_all(self):
        c = TrackCache(4)
        c.insert(3, 4)
        assert c.hit(3, 4)
        assert not c.hit(3, 5)

    def test_lru_eviction(self):
        c = TrackCache(2)
        c.insert(1, 1)
        c.insert(2, 2)
        c.insert(3, 3)  # evicts 1
        assert not c.hit(1, 1)
        assert c.hit(2, 2)
        assert c.hit(3, 3)

    def test_hit_refreshes_recency(self):
        c = TrackCache(2)
        c.insert(1, 1)
        c.insert(2, 2)
        c.hit(1, 1)      # 1 becomes most recent
        c.insert(3, 3)   # evicts 2
        assert c.hit(1, 1)
        assert not c.hit(2, 2)

    def test_clear(self):
        c = TrackCache(4)
        c.insert(1, 2)
        c.clear()
        assert not c.hit(1, 1)

    @pytest.mark.parametrize("capacity", [1, 3, 16])
    def test_matches_tick_reference_on_random_trace(self, capacity):
        """Same hit answers and the same evictions, in the same order
        (least recently used first), as the tick-counter original."""
        rng = np.random.default_rng(capacity)
        new, ref = TrackCache(capacity), TickTrackCache(capacity)
        for _ in range(3000):
            first = int(rng.integers(0, 40))
            last = first + int(rng.integers(0, 4))
            if rng.random() < 0.5:
                assert new.hit(first, last) == ref.hit(first, last)
                continue
            before_new, before_ref = list(new._lru), dict(ref._lru)
            new.insert(first, last)
            ref.insert(first, last)
            evicted_new = [t for t in before_new if t not in new._lru]
            evicted_ref = sorted(
                (t for t in before_ref if t not in ref._lru),
                key=before_ref.get,
            )
            assert evicted_new == evicted_ref
            assert set(new._lru) == set(ref._lru)


class TestCachedDrive:
    def test_no_cache_by_default(self, small_model):
        assert DiskDrive(small_model).cache is None

    def test_repeat_read_hits(self, small_model):
        drive = DiskDrive(small_model, cache_tracks=8)
        miss = drive.service(100).total_ms
        hit = drive.service(100).total_ms
        assert hit < miss / 3
        assert hit == pytest.approx(
            small_model.mechanics.command_overhead_ms
            + DiskDrive.CACHE_BLOCK_MS
        )

    def test_same_track_neighbour_hits(self, small_model):
        drive = DiskDrive(small_model, cache_tracks=8)
        drive.service(100)
        hit = drive.service(101)
        assert hit.seek_ms == 0.0
        assert hit.rotation_ms == 0.0

    def test_other_track_still_misses(self, small_model):
        drive = DiskDrive(small_model, cache_tracks=8)
        drive.service(100)
        spt = small_model.geometry.track_length(0)
        miss = drive.service(100 + 5 * spt)
        assert miss.total_ms > 0.5

    def test_hits_do_not_move_the_head(self, small_model):
        drive = DiskDrive(small_model, cache_tracks=8)
        drive.service(100)
        track = drive.current_track
        drive.service(100)  # hit
        assert drive.current_track == track

    def test_batch_path_uses_cache(self, small_model):
        drive = DiskDrive(small_model, cache_tracks=8)
        lbns = np.array([100, 103, 100, 101])
        res = drive.service_lbns(lbns, policy="fifo", collect=True)
        # first request misses, the rest hit the cached track
        assert res.per_request_ms[0] > res.per_request_ms[1] * 3
        assert res.n_requests == 4

    def test_sptf_batch_bypasses_cache(self, small_model):
        """An in-zone sptf batch neither consults nor fills the cache: it
        costs what it costs on a cacheless drive, and leaves the buffered
        tracks and their recency order as they were."""
        drive = DiskDrive(small_model, cache_tracks=8)
        spt = small_model.geometry.track_length(0)
        drive.service(100 + 2 * spt)
        drive.service(100)
        buffered = list(drive.cache._lru)
        plain = DiskDrive(small_model)
        plain.reset(drive.current_track, drive.now_ms)
        lbns = np.array([101, 100 + 2 * spt, 100 + 5 * spt, 102])
        got = drive.service_lbns(lbns, policy="sptf", collect=True)
        want = plain.service_lbns(lbns, policy="sptf", collect=True)
        assert list(drive.cache._lru) == buffered
        assert got.total_ms == want.total_ms
        assert np.array_equal(got.order, want.order)
        assert np.array_equal(got.per_request_ms, want.per_request_ms)

    def test_cached_beats_uncached_on_clustered_reads(self, small_model):
        rng = np.random.default_rng(2)
        spt = small_model.geometry.track_length(0)
        lbns = rng.integers(0, 4 * spt, size=200)  # 4 tracks, heavy reuse
        cold = DiskDrive(small_model).service_lbns(lbns, policy="fifo")
        warm = DiskDrive(small_model, cache_tracks=8).service_lbns(
            lbns, policy="fifo"
        )
        assert warm.total_ms < cold.total_ms / 5
