"""Edge-path tests for the drive simulator: cross-zone batches, collect
paths, degenerate inputs, adjacency corner cases."""

import math

import numpy as np
import pytest

from repro.disk import AdjacencyModel, DiskDrive, toy_disk
from repro.errors import AdjacencyError, GeometryError
from test_service_oracle import reference_batch, reference_service


class TestCrossZoneBatches:
    """Zone-crossing runs take the batch path; each case is checked
    against servicing the runs one by one through the scalar reference."""

    @staticmethod
    def _check(model, starts, lengths, policy):
        drive, ref = DiskDrive(model), DiskDrive(model)
        res = drive.service_runs(np.array(starts), np.array(lengths),
                                 policy=policy, collect=True)
        order, timings = reference_batch(ref, starts, lengths, policy)
        assert res.order.tolist() == order.tolist()
        assert res.per_request_ms.tolist() == pytest.approx(
            [tm.total_ms for tm in timings], rel=1e-12
        )
        assert drive.current_track == ref.current_track
        return res

    def test_cross_zone_collect(self, small_model):
        lo, hi = small_model.geometry.zone_lbn_span(0)
        res = self._check(small_model, [hi - 2, 10], [4, 2], "fifo")
        assert res.order.tolist() == [0, 1]

    def test_cross_zone_sorted_order(self, small_model):
        lo, hi = small_model.geometry.zone_lbn_span(0)
        res = self._check(small_model, [hi - 1, 0], [2, 1], "sorted")
        assert res.order.tolist() == [1, 0]

    def test_run_spanning_three_zones_scalar(self):
        from repro.disk import synthetic_disk

        model = synthetic_disk(
            "tiny3z",
            surfaces=1,
            settle_cylinders=2,
            zone_specs=[(3, 20), (3, 16), (3, 12)],
        )
        geom = model.geometry
        drive, ref = DiskDrive(model), DiskDrive(model)
        # run from zone 0 into zone 2
        start = geom.zone_lbn_span(0)[1] - 4
        n = 4 + geom.zone_lbn_span(1)[1] - geom.zone_lbn_span(1)[0] + 3
        tm = drive.service(start, nblocks=n)
        want = reference_service(ref, start, n)
        for field in ("seek_ms", "rotation_ms", "transfer_ms", "switch_ms"):
            assert getattr(tm, field) == pytest.approx(
                getattr(want, field), rel=1e-12
            ), field
        assert drive.current_track == geom.track_of(start + n - 1)


class TestServiceStateEvolution:
    def test_head_lands_on_last_run_track(self, small_drive):
        starts = np.array([10, 500, 900])
        small_drive.service_runs(starts, np.ones(3, dtype=int), policy="fifo")
        geom = small_drive.geometry
        assert small_drive.current_track == geom.track_of(900)

    def test_time_accumulates_across_batches(self, small_drive):
        small_drive.service_runs(
            np.array([0]), np.array([1]), policy="fifo"
        )
        t1 = small_drive.now_ms
        small_drive.service_runs(
            np.array([1000]), np.array([1]), policy="fifo"
        )
        assert small_drive.now_ms > t1

    def test_reset_rejects_bad_track(self, small_drive):
        with pytest.raises(GeometryError):
            small_drive.reset(track=10**9)


class TestBatchInputValidation:
    """Malformed batches fail with GeometryError, not a numpy error or
    a silent truncation; an empty batch stays legal."""

    def test_two_dimensional_starts_rejected(self, small_drive):
        with pytest.raises(GeometryError, match="1-D"):
            small_drive.service_runs(
                np.array([[0, 10], [20, 30]]), np.ones((2, 2), dtype=int)
            )

    def test_float_lbns_rejected(self, small_drive):
        with pytest.raises(GeometryError, match="integers"):
            small_drive.service_runs(np.array([0.5]), np.array([1]))
        with pytest.raises(GeometryError, match="integers"):
            small_drive.service_lbns([0.5, 3.0])
        assert small_drive.now_ms == 0.0

    def test_float_lengths_rejected(self, small_drive):
        with pytest.raises(GeometryError, match="integers"):
            small_drive.service_runs(np.array([0]), np.array([1.5]))

    @pytest.mark.parametrize("window", [0, -1, 2.5, True, "4", None])
    def test_sptf_window_below_one_rejected(self, small_drive, window):
        """A window below 1 or not an integer (bools included)."""
        with pytest.raises(GeometryError, match="window"):
            small_drive.service_runs(
                np.array([0, 10]), np.array([1, 1]),
                policy="sptf", window=window,
            )
        assert small_drive.now_ms == 0.0

    @pytest.mark.parametrize("policy", ["fifo", "sorted", "sptf"])
    def test_empty_batch_stays_legal(self, small_drive, policy):
        for empty in ([], np.array([]), np.empty((0, 2))):
            res = small_drive.service_runs(empty, empty, policy=policy,
                                           window=0)
            assert res.n_requests == 0
        assert small_drive.service_lbns([]).n_requests == 0


class TestSingleRunInputValidation:
    """The single-run entry points take Python or numpy integers for
    LBNs, counts, tracks and cache sizes, and a finite clock.  Anything
    else (bools included) fails with a GeometryError naming the
    argument, never a truncated read or a NaN clock."""

    @pytest.mark.parametrize("args, name", [
        ((0.5,), "lbn"),
        ((10, 2.5), "nblocks"),
        ((True,), "lbn"),
        (("5",), "lbn"),
        ((np.float64(3.0),), "lbn"),
        ((0, False), "nblocks"),
    ])
    def test_service(self, small_drive, args, name):
        with pytest.raises(GeometryError, match=name):
            small_drive.service(*args)
        assert (small_drive.current_track, small_drive.now_ms) == (0, 0.0)

    @pytest.mark.parametrize("lbn", [0.5, True, "5", None])
    def test_positioning_time(self, small_drive, lbn):
        with pytest.raises(GeometryError, match="lbn"):
            small_drive.positioning_time(lbn)

    @pytest.mark.parametrize("track, time_ms, name", [
        (2.5, 0.0, "track"),
        (True, 0.0, "track"),
        (0, math.nan, "time_ms"),
        (0, math.inf, "time_ms"),
        (0, "1.0", "time_ms"),
        (np.float64(1.0), 0.0, "track"),
        (np.bool_(True), 0.0, "track"),
        (-1, 0.0, "track"),
        (0, -math.inf, "time_ms"),
        pytest.param(0, np.float64("nan"), "time_ms", id="0-np.nan-time_ms"),
        (0, None, "time_ms"),
    ])
    def test_reset(self, small_drive, track, time_ms, name):
        small_drive.service(500)
        before = (small_drive.current_track, small_drive.now_ms)
        with pytest.raises(GeometryError, match=name):
            small_drive.reset(track, time_ms)
        assert (small_drive.current_track, small_drive.now_ms) == before

    @pytest.mark.parametrize("cache_tracks", [2.7, -1, True, "8", None])
    def test_cache_tracks(self, small_model, cache_tracks):
        with pytest.raises(GeometryError, match="cache_tracks"):
            DiskDrive(small_model, cache_tracks=cache_tracks)

    @pytest.mark.parametrize("track, time_ms", [
        (3, 2.5), (np.int64(3), np.float64(2.5)), (np.uint16(3), 2.5),
        (3, np.float32(2.5)),
    ])
    def test_reset_stores_python_numbers(self, small_drive, track, time_ms):
        small_drive.reset(track, time_ms)
        assert type(small_drive.current_track) is int
        assert type(small_drive.now_ms) is float
        assert (small_drive.current_track, small_drive.now_ms) == (3, 2.5)

    def test_numpy_integers_accepted(self, small_model):
        drive = DiskDrive(small_model, cache_tracks=np.int64(4))
        assert drive.cache.capacity == 4
        drive.reset(np.int32(1), np.float32(1.5))  # cylinder 0, head 1
        assert drive.current_track == 1
        seek, _ = drive.positioning_time(np.int64(7))  # track 0
        assert seek == pytest.approx(small_model.mechanics.head_switch_ms)
        tm = drive.service(np.int64(7), np.uint8(2))
        assert tm.transfer_ms > 0
        res = drive.service_runs(np.array([0, 9]), np.array([1, 1]),
                                 policy="sptf", window=np.int64(2))
        assert res.n_requests == 2


class TestAdjacencyEdges:
    def test_toy_expected_hop_uses_settle_when_offset_zero(self, toy_model):
        adj = AdjacencyModel.for_model(toy_model, depth=9)
        assert adj.adjacency_offset_sectors(0) == 0
        assert adj.expected_hop_ms(0) == pytest.approx(
            toy_model.mechanics.settle_ms
        )

    def test_semi_sequential_path_single_element(self, small_adjacency):
        path = small_adjacency.semi_sequential_path(42, 1)
        assert path.tolist() == [42]

    def test_get_adjacent_near_zone_end_raises_not_wraps(self, small_model):
        adj = AdjacencyModel.for_model(small_model)
        geom = small_model.geometry
        # second-to-last track of zone 0: step 2 would cross
        t = geom.zone_tracks(0) - 2
        lbn = geom.track_first_lbn(t)
        assert adj.get_adjacent(lbn, 1) > lbn
        with pytest.raises(AdjacencyError):
            adj.get_adjacent(lbn, 2)

    def test_max_depth_equals_r_times_c_everywhere(self, small_model):
        adj = AdjacencyModel.for_model(small_model)
        geom = small_model.geometry
        rng = np.random.default_rng(1)
        for _ in range(20):
            lbn = int(rng.integers(0, geom.zone_lbn_span(0)[1] // 2))
            target = adj.get_adjacent(lbn, adj.D)
            d_cyl = abs(
                geom.cylinder_of(target) - geom.cylinder_of(lbn)
            )
            assert d_cyl <= small_model.mechanics.settle_cylinders


class TestToyDiskTiming:
    def test_one_ms_per_sector_streaming(self, toy_model):
        drive = DiskDrive(toy_model)
        drive.service(0)
        tm = drive.service(1, nblocks=3)
        assert tm.transfer_ms == pytest.approx(3.0)

    def test_full_revolution_is_track_length_ms(self, toy_model):
        drive = DiskDrive(toy_model)
        drive.service(0)
        tm = drive.service(0)
        # re-reading the same sector: one revolution minus nothing special
        assert tm.total_ms == pytest.approx(5.0, abs=0.01)
