"""Edge-path tests for the drive simulator: cross-zone batches, collect
paths, degenerate inputs, adjacency corner cases."""

import numpy as np
import pytest

from repro.disk import AdjacencyModel, DiskDrive, toy_disk
from repro.errors import AdjacencyError, GeometryError


class TestCrossZoneBatches:
    def test_cross_zone_collect(self, small_model):
        geom = small_model.geometry
        lo, hi = geom.zone_lbn_span(0)
        drive = DiskDrive(small_model)
        res = drive.service_runs(
            np.array([hi - 2, 10]),
            np.array([4, 2]),
            policy="fifo",
            collect=True,
        )
        assert res.per_request_ms is not None
        assert res.per_request_ms.size == 2
        assert res.order.tolist() == [0, 1]

    def test_cross_zone_sorted_order(self, small_model):
        geom = small_model.geometry
        lo, hi = geom.zone_lbn_span(0)
        drive = DiskDrive(small_model)
        res = drive.service_runs(
            np.array([hi - 1, 0]),
            np.array([2, 1]),
            policy="sorted",
            collect=True,
        )
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
        drive = DiskDrive(model)
        # run from zone 0 into zone 2
        start = geom.zone_lbn_span(0)[1] - 4
        n = 4 + geom.zone_lbn_span(1)[1] - geom.zone_lbn_span(1)[0] + 3
        tm = drive.service(start, nblocks=n)
        assert tm.total_ms > 0
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

    @pytest.mark.parametrize("window", [0, -1])
    def test_sptf_window_below_one_rejected(self, small_drive, window):
        with pytest.raises(GeometryError, match="window"):
            small_drive.service_runs(
                np.array([0, 10]), np.array([1, 1]),
                policy="sptf", window=window,
            )

    @pytest.mark.parametrize("policy", ["fifo", "sorted", "sptf"])
    def test_empty_batch_stays_legal(self, small_drive, policy):
        for empty in ([], np.array([]), np.empty((0, 2))):
            res = small_drive.service_runs(empty, empty, policy=policy,
                                           window=0)
            assert res.n_requests == 0
        assert small_drive.service_lbns([]).n_requests == 0


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
