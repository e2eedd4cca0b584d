"""Tests for the drive simulator: access timing, batch service, policies."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.disk import DiskDrive, synthetic_disk
from repro.disk.drive import BatchResult, _add_reduce
from repro.errors import GeometryError
from test_service_oracle import reference_batch, reference_service


class TestSingleRequests:
    def test_read_at_head_position_costs_less_than_a_revolution(
        self, small_drive
    ):
        tm = small_drive.service(0)
        assert tm.seek_ms == 0.0
        assert tm.total_ms < small_drive.mechanics.rotation_ms + 1e-9

    def test_same_track_reread_costs_full_revolution(self, small_drive):
        small_drive.service(0)
        tm = small_drive.service(0)
        # one sector passed; waiting for it again costs rot - 1 sector
        rot = small_drive.mechanics.rotation_ms
        spt = small_drive.geometry.track_length(0)
        assert tm.rotation_ms == pytest.approx(rot - rot / spt)

    def test_sequential_blocks_stream(self, small_drive):
        spt = small_drive.geometry.track_length(0)
        rot = small_drive.mechanics.rotation_ms
        small_drive.service(0)
        tm = small_drive.service(1, nblocks=spt - 1)
        assert tm.seek_ms == 0.0
        assert tm.rotation_ms == pytest.approx(0.0, abs=1e-9)
        assert tm.transfer_ms == pytest.approx((spt - 1) * rot / spt)

    def test_head_switch_cost(self, small_drive):
        geom = small_drive.geometry
        mech = small_drive.mechanics
        small_drive.service(0)
        # same cylinder, other surface
        lbn = geom.track_first_lbn(1)
        tm = small_drive.service(lbn)
        assert tm.seek_ms == pytest.approx(mech.head_switch_ms)

    def test_seek_cost_uses_profile(self, small_drive):
        geom = small_drive.geometry
        mech = small_drive.mechanics
        small_drive.service(0)
        # 100 cylinders away: beyond the settle region (C = 8)
        lbn = geom.track_first_lbn(100 * geom.surfaces)
        tm = small_drive.service(lbn)
        assert tm.seek_ms == pytest.approx(float(mech.seek_time(100)))
        assert tm.seek_ms > mech.settle_ms

    def test_track_boundary_crossing_costs_one_skew(self, small_drive):
        geom = small_drive.geometry
        rot = small_drive.mechanics.rotation_ms
        spt = geom.track_length(0)
        skew = geom.zone(0).skew_sectors
        small_drive.service(0)
        tm = small_drive.service(1, nblocks=2 * spt - 2)  # crosses one track
        assert tm.switch_ms == pytest.approx(skew * rot / spt)

    def test_full_sweep_updates_state(self, small_drive):
        tm = small_drive.service(0, nblocks=5)
        assert small_drive.now_ms == pytest.approx(tm.end_ms)
        assert small_drive.current_track == 0

    def test_rejects_zero_blocks(self, small_drive):
        with pytest.raises(GeometryError):
            small_drive.service(0, nblocks=0)

    def test_rejects_overflow_run(self, small_drive):
        n = small_drive.geometry.n_lbns
        with pytest.raises(GeometryError):
            small_drive.service(n - 1, nblocks=2)

    def test_positioning_time_has_no_side_effects(self, small_drive):
        before = (small_drive.now_ms, small_drive.current_track)
        small_drive.positioning_time(500)
        assert (small_drive.now_ms, small_drive.current_track) == before

    def test_reset(self, small_drive):
        small_drive.service(1000)
        small_drive.reset()
        assert small_drive.now_ms == 0.0
        assert small_drive.current_track == 0

    def test_randomize_position(self, small_drive, rng):
        small_drive.randomize_position(rng)
        assert 0 <= small_drive.current_track < small_drive.geometry.n_tracks
        assert 0 <= small_drive.now_ms < small_drive.mechanics.rotation_ms


class TestZoneCrossing:
    def test_run_across_zone_boundary_scalar(self, small_drive):
        geom = small_drive.geometry
        lo, hi = geom.zone_lbn_span(0)
        tm = small_drive.service(hi - 2, nblocks=4)
        # 2 sectors in zone 0, 2 in zone 1, one boundary
        rot = small_drive.mechanics.rotation_ms
        expected = 2 * rot / geom.zone(0).sectors_per_track + 2 * rot / geom.zone(
            1
        ).sectors_per_track
        assert tm.transfer_ms == pytest.approx(expected)
        assert tm.switch_ms > 0

    def test_batch_with_zone_crossing_run_matches_reference(self,
                                                            small_model):
        """A batch holding a zone-crossing run is serviced like any
        other, and costs what servicing it run by run does."""
        lo, hi = small_model.geometry.zone_lbn_span(0)
        starts, lengths = np.array([hi - 2, 0]), np.array([4, 3])
        drive, ref = DiskDrive(small_model), DiskDrive(small_model)
        res = drive.service_runs(starts, lengths, policy="sorted",
                                 collect=True)
        order, timings = reference_batch(ref, starts, lengths, "sorted")
        assert (res.n_requests, res.n_blocks) == (2, 7)
        assert res.order.tolist() == order.tolist() == [1, 0]
        assert res.per_request_ms.tolist() == pytest.approx(
            [tm.total_ms for tm in timings], rel=1e-12
        )
        assert drive.now_ms == pytest.approx(ref.now_ms, rel=1e-12)
        assert drive.current_track == ref.current_track


class TestBatchService:
    def test_empty_batch(self, small_drive):
        res = small_drive.service_runs(np.array([]), np.array([]))
        assert res.total_ms == 0.0
        assert res.n_requests == 0

    def test_batch_matches_sequential_service_fifo(self, small_model):
        starts = np.array([0, 500, 1200, 7, 3000])
        lengths = np.array([3, 1, 10, 2, 5])
        d1 = DiskDrive(small_model)
        batch = d1.service_runs(starts, lengths, policy="fifo")
        d2 = DiskDrive(small_model)
        total = 0.0
        for s, n in zip(starts, lengths):
            tm = reference_service(d2, int(s), int(n))
            total += tm.total_ms
        assert batch.total_ms == pytest.approx(total)
        assert d1.now_ms == pytest.approx(d2.now_ms)
        assert d1.current_track == d2.current_track

    def test_batch_matches_sequential_service_sorted(self, small_model):
        starts = np.array([900, 20, 4000, 123])
        lengths = np.array([2, 2, 2, 2])
        d1 = DiskDrive(small_model)
        batch = d1.service_runs(starts, lengths, policy="sorted")
        order = np.argsort(starts)
        d2 = DiskDrive(small_model)
        total = sum(
            reference_service(d2, int(starts[i]), int(lengths[i])).total_ms
            for i in order
        )
        assert batch.total_ms == pytest.approx(total)

    def test_sorted_no_slower_than_fifo_for_scattered(self, small_model):
        rng = np.random.default_rng(7)
        starts = rng.integers(0, small_model.geometry.n_lbns - 1, size=200)
        lengths = np.ones_like(starts)
        fifo = DiskDrive(small_model).service_runs(
            starts, lengths, policy="fifo"
        )
        srt = DiskDrive(small_model).service_runs(
            starts, lengths, policy="sorted"
        )
        assert srt.total_ms <= fifo.total_ms * 1.05

    def test_collect_returns_per_request_and_order(self, small_drive):
        starts = np.array([10, 900, 44])
        res = small_drive.service_runs(
            starts, np.ones(3, dtype=int), policy="sorted", collect=True
        )
        assert res.per_request_ms is not None
        assert len(res.per_request_ms) == 3
        assert sorted(res.order.tolist()) == [0, 1, 2]
        assert res.total_ms == pytest.approx(float(res.per_request_ms.sum()))

    def test_breakdown_sums_to_total(self, small_drive):
        starts = np.array([5, 600, 2000, 100])
        res = small_drive.service_runs(
            starts, np.full(4, 3), policy="sorted"
        )
        assert res.seek_ms + res.rotation_ms + res.transfer_ms + res.switch_ms == pytest.approx(
            res.total_ms
        )

    def test_service_lbns_is_single_blocks(self, small_drive):
        res = small_drive.service_lbns(np.array([1, 2, 3]), policy="fifo")
        assert res.n_blocks == 3
        assert res.n_requests == 3

    def test_unknown_policy_rejected(self, small_drive):
        with pytest.raises(GeometryError, match="fifo, sorted, sptf"):
            small_drive.service_runs(
                np.array([0]), np.array([1]), policy="nope"
            )

    @pytest.mark.parametrize("batch", ["zone_crossing", "empty"])
    def test_unknown_policy_rejected_before_any_work(self, small_drive,
                                                     batch):
        """The policy is checked first: a batch with a zone-crossing run
        and an empty batch reject it too, and the head does not move."""
        hi = small_drive.geometry.zone_lbn_span(0)[1]
        starts, lengths = {
            "zone_crossing": ([hi - 2, 10], [4, 2]),
            "empty": ([], []),
        }[batch]
        with pytest.raises(GeometryError, match="'bogus'"):
            small_drive.service_runs(
                np.array(starts, dtype=np.int64),
                np.array(lengths, dtype=np.int64), policy="bogus",
            )
        assert (small_drive.current_track, small_drive.now_ms) == (0, 0.0)

    def test_bad_lengths_rejected(self, small_drive):
        with pytest.raises(GeometryError):
            small_drive.service_runs(np.array([0]), np.array([0]))


class TestSPTF:
    def test_sptf_not_worse_than_fifo(self, small_model):
        rng = np.random.default_rng(3)
        starts = rng.integers(0, small_model.geometry.n_lbns - 1, size=100)
        lengths = np.ones_like(starts)
        fifo = DiskDrive(small_model).service_runs(
            starts, lengths, policy="fifo"
        )
        sptf = DiskDrive(small_model).service_runs(
            starts, lengths, policy="sptf", window=100
        )
        assert sptf.total_ms <= fifo.total_ms + 1e-9

    def test_sptf_services_all_requests_once(self, small_drive):
        starts = np.arange(0, 1000, 37)
        res = small_drive.service_runs(
            starts,
            np.ones_like(starts),
            policy="sptf",
            window=8,
            collect=True,
        )
        assert sorted(res.order.tolist()) == list(range(len(starts)))
        assert res.n_requests == len(starts)

    def test_sptf_window_one_equals_fifo(self, small_model):
        starts = np.array([40, 900, 10, 2000, 77])
        lengths = np.ones_like(starts)
        fifo = DiskDrive(small_model).service_runs(
            starts, lengths, policy="fifo"
        )
        w1 = DiskDrive(small_model).service_runs(
            starts, lengths, policy="sptf", window=1
        )
        assert w1.total_ms == pytest.approx(fifo.total_ms)

    def test_sptf_picks_semi_sequential_order(self, small_model):
        """Issue adjacent blocks in reverse; SPTF should reorder to the
        semi-sequential path and service each hop in ~settle time."""
        from repro.disk import AdjacencyModel

        adj = AdjacencyModel.for_model(small_model)
        drive = DiskDrive(small_model)
        path = adj.semi_sequential_path(0, 10, 1)
        res = drive.service_runs(
            path[::-1].copy(),
            np.ones(10, dtype=int),
            policy="sptf",
            window=10,
        )
        settle = small_model.mechanics.settle_ms
        rot = small_model.mechanics.rotation_ms
        # Each hop costs about one skew of rotation; far below random access.
        assert res.total_ms / 10 < settle + 3 * rot / 90


class TestStreamingBandwidth:
    def test_streaming_matches_simulated_long_read(self, small_model):
        drive = DiskDrive(small_model)
        geom = small_model.geometry
        spt = geom.track_length(0)
        nblocks = spt * 20
        drive.service(0)  # position at track start
        tm = drive.service(1, nblocks=nblocks - 1)
        simulated = (nblocks - 1) * 512 / (tm.total_ms / 1000)
        predicted = drive.streaming_bandwidth_bytes_per_s(0)
        assert simulated == pytest.approx(predicted, rel=0.02)

    def test_outer_zone_faster_than_inner(self, atlas_drive):
        assert atlas_drive.streaming_bandwidth_bytes_per_s(
            0
        ) > atlas_drive.streaming_bandwidth_bytes_per_s(7)


class TestPaperScaleTimings:
    """Sanity-check magnitudes against the numbers the paper reports."""

    def test_semi_sequential_hop_near_settle(self, atlas_model):
        from repro.disk import AdjacencyModel

        adj = AdjacencyModel.for_model(atlas_model)
        drive = DiskDrive(atlas_model)
        drive.service(0)
        for j in (1, 2, 64, 128):
            drive.reset()
            drive.service(0)
            tm = drive.service(adj.get_adjacent(0, j))
            # paper: ~1.2-1.5 ms per cell for MultiMap's non-primary dims
            assert 1.1 < tm.total_ms < 1.6

    def test_random_access_costs_seek_plus_half_rotation(self, atlas_model):
        rng = np.random.default_rng(0)
        drive = DiskDrive(atlas_model)
        lbns = rng.integers(0, atlas_model.geometry.n_lbns, size=300)
        res = drive.service_lbns(lbns, policy="fifo")
        avg = res.total_ms / 300
        assert 6.0 < avg < 9.5  # ~avg seek + ~3 ms rotation

    @given(seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=20, deadline=None)
    def test_property_time_always_advances(self, small_model, seed):
        rng = np.random.default_rng(seed)
        drive = DiskDrive(small_model)
        lbns = rng.integers(0, small_model.geometry.n_lbns, size=20)
        t = 0.0
        for lbn in lbns:
            tm = drive.service(int(lbn))
            assert tm.end_ms >= t
            assert tm.total_ms >= 0
            t = tm.end_ms


class TestSharedZoneTables:
    def test_built_once_per_model_and_read_only(self, small_model):
        a, b = DiskDrive(small_model), DiskDrive(small_model, 4)
        assert a._zone_rows is b._zone_rows is small_model.zone_tables.rows
        assert a._boundary_cost is b._boundary_cost
        assert a._exit_cost is b._exit_cost
        for table in (a._boundary_cost, a._exit_cost):
            with pytest.raises(ValueError):
                table[0] = 0.0

    def test_equal_across_equal_models(self):
        specs = dict(surfaces=2, settle_cylinders=2,
                     zone_specs=[(3, 20), (2, 16), (3, 12)])
        a = synthetic_disk("three-zone", **specs).zone_tables
        b = synthetic_disk("three-zone", **specs).zone_tables
        assert a is not b
        assert a.rows == b.rows and a.firsts == b.firsts
        assert a.boundary_cost.tolist() == b.boundary_cost.tolist()
        assert a.exit_cost.tolist() == b.exit_cost.tolist()


def test_batch_results_add_in_place_as_they_add():
    rng = np.random.default_rng(7)
    parts = [BatchResult(*rng.random(1).tolist(), int(rng.integers(9)),
                         int(rng.integers(9)), *rng.random(5).tolist())
             for _ in range(6)]
    total, acc = BatchResult.empty(), BatchResult.empty()
    alias = acc
    for part in parts:
        total = total + part
        acc += part
    assert acc is alias and acc == total


#: finite floats of every magnitude, subnormals and signed zeros
#: included, small enough that no sum of 300 overflows
_VALUES = st.one_of(
    st.floats(-1e300, 1e300),
    st.floats(-1e-300, 1e-300),
    st.sampled_from([0.0, -0.0, 1.0, 1e16, 0.1]),
)


class TestAddReduce:
    """The scalar pass sums seek, transfer and switch in Python, as
    numpy's pairwise float64 reduction sums them on the numpy path."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_VALUES, max_size=300))
    def test_equals_numpy_bit_for_bit(self, values):
        want = np.add.reduce(np.array(values, dtype=np.float64))
        got = _add_reduce(values)
        assert struct.pack("<d", got) == struct.pack("<d", want)

    @pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 127, 128, 129, 136,
                                   255, 256, 300])
    def test_every_branch(self, n):
        rng = np.random.default_rng(n)
        values = (rng.standard_normal(n)
                  * 10.0 ** rng.integers(-8, 9, n)).tolist()
        assert struct.pack("<d", _add_reduce(values)) == struct.pack(
            "<d", np.add.reduce(np.array(values, dtype=np.float64)))

    def test_empty_and_zeros(self):
        for values in ([], [-0.0], [-0.0] * 9, [0.0, -0.0]):
            got = _add_reduce(values)
            assert type(got) is float and struct.pack("<d", got) == \
                struct.pack("<d", 0.0)
