"""Per-run scalar oracle for the drive's fifo/sorted batches and service().

``reference_service`` is the drive's single-run ``service()`` as it stood
when it was a scalar loop, kept verbatim (as free functions taking the
drive): the firmware cache check, the seek to the run's first track, the
rotational wait, and a track-by-track transfer that settles and realigns
at every boundary, zone boundaries included.  The drive once serviced
every fifo/sorted batch on a cache-enabled drive, and every batch with a
zone-crossing run, through that loop, run by run.

The properties below pin :meth:`DiskDrive.service_runs` to it on every
registered drive and on a synthetic three-zone disk, at cache sizes 0, 1,
8 and 64 tracks, from random heads and clocks.  Service order, the cache
lookups and their hits, the buffered tracks and their recency order, and
the final head track must match exactly.  The batch path sums the same
costs in another order, so the clock, totals, cost components and
per-request times must match within ``REL`` relative, with an ``ABS`` ms
floor for values at or near zero (a rotational wait of a sequential run
is zero or a rounding error of the clock).

``reference_prepare_runs`` is the batch path's per-run preparation as
it stood when it decomposed every run's first *and* last LBN, kept
verbatim.  The drive now decomposes only the first LBNs and derives an
in-zone run's end track from its start; the properties below pin every
array it returns to the reference exactly, values and dtype, with runs
drawn to start on a zone's first LBN and end on a zone's last LBN or on
the disk's last LBN.  A batch the drive rejects must raise
:class:`GeometryError` before it changes the clock, the head or the
cache.
"""

from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.registry import drive_names, get_drive
from repro.disk import DiskDrive, TrackCache, synthetic_disk
from repro.disk.drive import POLICIES, RunTiming, _wait_rev
from repro.errors import GeometryError

REL = 1e-9
ABS = 1e-9
CACHE_SIZES = (0, 1, 8, 64)


def _seek_component(drive, target_track: int) -> float:
    """Seek/settle cost to reach ``target_track`` from the current one."""
    if target_track == drive._track:
        return 0.0
    surfaces = drive.geometry.surfaces
    dist = abs(target_track // surfaces - drive._track // surfaces)
    if dist == 0:
        return float(drive.mechanics.head_switch_ms)
    return float(drive.model.seek_table[dist])


def _transfer_scalar(drive, lbn: int, nblocks: int, t: float):
    """Exact transfer of a run, track by track (handles zone crossings).

    Returns (transfer_ms, switch_ms, final_track).  ``t`` is the time at
    which the first sector starts passing under the head.
    """
    geom = drive.geometry
    mech = drive.mechanics
    rot = drive._rot
    track = geom.track_of(lbn)
    sector = geom.sector_of(lbn)
    spt = geom.track_length(track)
    transfer = 0.0
    switch = 0.0
    remaining = nblocks
    while True:
        burst = min(remaining, spt - sector)
        transfer += burst * (rot / spt)
        t += burst * (rot / spt)
        remaining -= burst
        if remaining == 0:
            return transfer, switch, track
        # cross to the next track: settle, then wait for its first
        # sector to come around (the skew normally absorbs the settle).
        track += 1
        spt = geom.track_length(track)
        sector = 0
        t_settle = t + mech.head_switch_ms
        next_angle = geom.start_angle(geom.track_first_lbn(track))
        realign = _wait_rev(next_angle - t_settle / rot) * rot
        switch += mech.head_switch_ms + realign
        t = t_settle + realign


def reference_service(drive, lbn: int, nblocks: int = 1) -> RunTiming:
    """Service one run of ``nblocks`` consecutive LBNs; advance state."""
    geom = drive.geometry
    start_ms = drive._time_ms
    track = geom.track_of(lbn)
    if drive.cache is not None:
        last_track = geom.track_of(lbn + nblocks - 1)
        if drive.cache.hit(track, last_track):
            cost = drive._overhead + nblocks * drive.CACHE_BLOCK_MS
            drive._time_ms += cost
            return RunTiming(
                start_ms, 0.0, 0.0, nblocks * drive.CACHE_BLOCK_MS,
                0.0, drive._overhead,
            )
    seek = _seek_component(drive, track)
    arrival = drive._time_ms + drive._overhead + seek
    angle = geom.start_angle(lbn)
    wait = _wait_rev(angle - arrival / drive._rot) * drive._rot
    t = arrival + wait
    transfer, switch, end_track = _transfer_scalar(drive, lbn, nblocks, t)
    drive._time_ms = t + transfer + switch
    drive._track = end_track
    if drive.cache is not None:
        drive.cache.insert(track, end_track)
    return RunTiming(start_ms, seek, wait, transfer, switch, drive._overhead)


def reference_batch(drive, starts, lengths, policy: str):
    """A fifo/sorted batch serviced run by run through
    :func:`reference_service`: the service order and each run's timing."""
    order = (
        np.argsort(starts, kind="stable")
        if policy == "sorted"
        else np.arange(len(starts), dtype=np.int64)
    )
    return order, [
        reference_service(drive, int(starts[i]), int(lengths[i]))
        for i in order
    ]


def reference_prepare_runs(self, starts, lengths):
    """Vectorised per-run geometry and cost for the batch schedulers.

    Returns a dict of ndarrays: start cylinder/track/angle, end
    cylinder/track, and each run's in-run transfer and switch cost.
    """
    geom = self.geometry
    rot = self._rot
    starts = np.asarray(starts, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    if starts.shape != lengths.shape:
        raise GeometryError("starts and lengths must have equal shape")
    if lengths.size and lengths.min() < 1:
        raise GeometryError("run lengths must be >= 1")
    ends = starts + lengths - 1

    zi0, track0, _, spt0, a0 = geom.decompose(starts)
    zie, tracke, _, _, _ = geom.decompose(ends)

    sector_time = rot / spt0
    boundaries = tracke - track0
    transfer = lengths * sector_time
    # Each in-zone boundary costs settle + realign to the skewed next
    # track; that cost depends only on the zone, precomputed at init.
    switch = boundaries * self._boundary_cost[zi0]
    crossing = zi0 != zie
    if crossing.any():
        rows = np.flatnonzero(crossing)
        zones = range(int(zi0[rows].min()), int(zie[rows].max()) + 1)
        transfer[rows], switch[rows] = self._cross_zone_costs(
            starts[rows], ends[rows], zones
        )

    surfaces = self.geometry.surfaces
    return {
        "starts": starts,
        "lengths": lengths,
        "cyl0": track0 // surfaces,
        "track0": track0,
        "a0": a0,
        "cyle": tracke // surfaces,
        "tracke": tracke,
        "transfer": transfer,
        "switch": switch,
    }


class LoggedCache(TrackCache):
    """A :class:`TrackCache` that logs every lookup as
    ``(first_track, last_track, hit)``."""

    def __init__(self, capacity_tracks: int):
        super().__init__(capacity_tracks)
        self.log = []

    def hit(self, track_first: int, track_last: int) -> bool:
        found = super().hit(track_first, track_last)
        self.log.append((track_first, track_last, found))
        return found


def three_zone_disk():
    """Three zones of a few tracks each, so one run can span all three."""
    return synthetic_disk(
        "three-zone", surfaces=2, settle_cylinders=2,
        zone_specs=[(3, 20), (2, 16), (3, 12)],
    )


@cache
def _model(name):
    if name == "three-zone":
        return three_zone_disk()
    return get_drive(name).factory()


def _pair(model, cache_tracks, head):
    """The drive under test and the reference drive, identically placed
    and with logged caches (or none)."""
    drives = []
    for _ in range(2):
        drive = DiskDrive(model)
        if cache_tracks:
            drive.cache = LoggedCache(cache_tracks)
        drive.reset(*head)
        drives.append(drive)
    return drives


def _close(got, want):
    assert got == pytest.approx(want, rel=REL, abs=ABS)


def _runs(model, rng, n):
    """``n`` runs near a few anchors (so a cache sees repeats): single
    blocks, runs of up to three tracks, and runs from the last two tracks
    of a zone to the first two of the next, or of the one after where
    the zone between is at most four tracks."""
    geom = model.geometry
    n_zones = len(geom.zones)
    anchors = rng.integers(0, geom.n_lbns, size=3)
    starts, lengths = [], []
    for _ in range(n):
        kind = rng.integers(3 if n_zones > 1 else 2)
        if kind == 2:  # from zone `first` into zone z
            z = int(rng.integers(1, n_zones))
            first = z - 1
            if z > 1 and geom.zone_tracks(z - 1) <= 4 and rng.random() < .5:
                first = z - 2
            spt = geom.zone(first).sectors_per_track
            start = geom.zone_lbn_span(first)[1] - int(
                rng.integers(1, 2 * spt + 1)
            )
            end = geom.zone_first_lbn(z) + int(
                rng.integers(0, 2 * geom.zone(z).sectors_per_track)
            )
            length = end - start + 1
        else:
            spt = geom.track_length(0)
            start = int(rng.choice(anchors)) + int(
                rng.integers(-2 * spt, 2 * spt + 1)
            )
            length = 1 if kind == 0 else int(rng.integers(2, 3 * spt + 1))
        start = min(max(start, 0), geom.n_lbns - 1)
        starts.append(start)
        lengths.append(min(length, geom.n_lbns - start))
    return (np.array(starts, dtype=np.int64),
            np.array(lengths, dtype=np.int64))


def _assert_batch_matches(drive, ref, starts, lengths, policy, collect):
    got = drive.service_runs(starts, lengths, policy=policy,
                             collect=collect)
    order, timings = reference_batch(ref, starts, lengths, policy)

    assert got.n_requests == len(timings)
    assert got.n_blocks == int(lengths.sum())
    for field in ("seek_ms", "rotation_ms", "transfer_ms", "switch_ms",
                  "overhead_ms"):
        _close(getattr(got, field), sum(getattr(tm, field) for tm in timings))
    _close(got.total_ms, sum(tm.total_ms for tm in timings))
    if collect:
        assert np.array_equal(got.order, order)
        for mine, tm in zip(got.per_request_ms.tolist(), timings):
            _close(mine, tm.total_ms)
    if ref.cache is not None:
        # the same lookups in the same order, with the same hits
        assert drive.cache.log == ref.cache.log
        assert list(drive.cache._lru) == list(ref.cache._lru)
    assert drive.current_track == ref.current_track
    _close(drive.now_ms, ref.now_ms)


@st.composite
def _cases(draw):
    return (
        draw(st.sampled_from([*drive_names(), "three-zone"])),
        draw(st.sampled_from(CACHE_SIZES)),
        draw(st.integers(0, 2**32 - 1)),
        draw(st.lists(st.integers(1, 30), min_size=1, max_size=3)),
        draw(st.sampled_from(["fifo", "sorted"])),
        draw(st.booleans()),
    )


class TestBatchMatchesScalarReference:
    @settings(max_examples=300, deadline=None)
    @given(_cases())
    def test_fifo_and_sorted_batches(self, case):
        """Consecutive batches on one drive, so the clock, head and
        cache carry over from one to the next."""
        name, cache_tracks, seed, sizes, policy, collect = case
        model = _model(name)
        rng = np.random.default_rng(seed)
        head = (int(rng.integers(model.geometry.n_tracks)),
                float(rng.uniform(0.0, 1e4)))
        drive, ref = _pair(model, cache_tracks, head)
        for n in sizes:
            starts, lengths = _runs(model, rng, n)
            _assert_batch_matches(drive, ref, starts, lengths, policy,
                                  collect)

    @pytest.mark.parametrize("cache_tracks", CACHE_SIZES)
    def test_run_across_all_three_zones(self, cache_tracks):
        model = _model("three-zone")
        geom = model.geometry
        start = geom.zone_first_lbn(1) - 5
        end = geom.zone_first_lbn(2) + 7
        starts = np.array([start, 3, start, end], dtype=np.int64)
        lengths = np.array([end - start + 1, 4, end - start + 1, 1],
                           dtype=np.int64)
        drive, ref = _pair(model, cache_tracks, (5, 2.5))
        _assert_batch_matches(drive, ref, starts, lengths, "fifo", True)


@st.composite
def _single_runs(draw):
    return (
        draw(st.sampled_from([*drive_names(), "three-zone"])),
        draw(st.sampled_from(CACHE_SIZES)),
        draw(st.integers(0, 2**32 - 1)),
        draw(st.integers(1, 12)),
    )


class TestServiceIsOneRunBatch:
    @settings(max_examples=100, deadline=None)
    @given(_single_runs())
    def test_service_equals_one_run_batch(self, case):
        """service() returns the one-run fifo batch's components and
        leaves the drive exactly as service_runs leaves it."""
        name, cache_tracks, seed, n = case
        model = _model(name)
        rng = np.random.default_rng(seed)
        head = (int(rng.integers(model.geometry.n_tracks)),
                float(rng.uniform(0.0, 1e4)))
        single, batch = _pair(model, cache_tracks, head)
        starts, lengths = _runs(model, rng, n)
        for lbn, nblocks in zip(starts.tolist(), lengths.tolist()):
            before = single.now_ms
            tm = single.service(lbn, nblocks)
            res = batch.service_runs([lbn], [nblocks], policy="fifo")
            assert tm.start_ms == before
            assert (tm.seek_ms, tm.rotation_ms, tm.transfer_ms,
                    tm.switch_ms, tm.overhead_ms) == (
                res.seek_ms, res.rotation_ms, res.transfer_ms,
                res.switch_ms, res.overhead_ms)
            assert single.now_ms == batch.now_ms
            assert single.current_track == batch.current_track
            if cache_tracks:
                assert single.cache.log == batch.cache.log
                assert list(single.cache._lru) == list(batch.cache._lru)


def _edge_runs(model, rng, n):
    """``n`` runs on zone edges: each starts on a zone's first LBN or
    ends on a zone's last LBN (of its own zone or a later one) or on
    the disk's last LBN, with up to three tracks on the other side."""
    geom = model.geometry
    n_zones = len(geom.zones)
    starts, lengths = [], []
    for _ in range(n):
        z = int(rng.integers(n_zones))
        lo, hi = geom.zone_lbn_span(z)
        reach = int(rng.integers(1, 3 * geom.zone(z).sectors_per_track + 1))
        kind = int(rng.integers(3))
        if kind == 0:  # from the zone's first LBN
            start, end = lo, lo + reach - 1
        else:  # to a zone's last LBN: this one, a later one or the disk's
            last = z if kind == 1 else int(rng.integers(z, n_zones))
            if kind == 2 and rng.random() < 0.5:
                last = n_zones - 1
            end = geom.zone_lbn_span(last)[1] - 1
            start = (lo if rng.random() < 0.25 else hi - reach)
        start = max(start, 0)
        end = min(max(end, start), geom.n_lbns - 1)
        starts.append(start)
        lengths.append(end - start + 1)
    return (np.array(starts, dtype=np.int64),
            np.array(lengths, dtype=np.int64))


@st.composite
def _prepare_cases(draw):
    return (
        draw(st.sampled_from([*drive_names(), "three-zone"])),
        draw(st.integers(0, 2**32 - 1)),
        draw(st.integers(1, 40)),
    )


class TestPrepareRunsMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(_prepare_cases())
    def test_every_array_equal(self, case):
        """Zone-edge runs mixed with ordinary and zone-crossing ones."""
        name, seed, n = case
        model = _model(name)
        rng = np.random.default_rng(seed)
        edge = _edge_runs(model, rng, n)
        other = _runs(model, rng, n)
        starts = np.concatenate([edge[0], other[0]])
        lengths = np.concatenate([edge[1], other[1]])
        mix = rng.permutation(starts.size)
        starts, lengths = starts[mix], lengths[mix]
        drive = DiskDrive(model)
        got = drive._prepare_runs(starts, lengths)
        want = reference_prepare_runs(drive, starts, lengths)
        assert got.keys() == want.keys()
        for key, array in want.items():
            assert got[key].dtype == array.dtype, key
            assert np.array_equal(got[key], array), key

    @pytest.mark.parametrize("name", [*drive_names(), "three-zone"])
    def test_every_zone_edge(self, name):
        """Each zone's first and last LBN, alone and as the ends of a run
        over the zone, and the disk's last LBN."""
        geom = _model(name).geometry
        spans = [geom.zone_lbn_span(z) for z in range(len(geom.zones))]
        starts = [lo for lo, _ in spans] + [hi - 1 for _, hi in spans]
        lengths = [1] * len(starts)
        starts += [lo for lo, _ in spans] + [spans[0][0]]
        lengths += [hi - lo for lo, hi in spans] + [geom.n_lbns]
        starts = np.array(starts, dtype=np.int64)
        lengths = np.array(lengths, dtype=np.int64)
        drive = DiskDrive(_model(name))
        got = drive._prepare_runs(starts, lengths)
        want = reference_prepare_runs(drive, starts, lengths)
        for key, array in want.items():
            assert got[key].dtype == array.dtype, key
            assert np.array_equal(got[key], array), key


@st.composite
def _rejected_cases(draw):
    return (
        draw(st.sampled_from([*drive_names(), "three-zone"])),
        draw(st.sampled_from((0, 8))),
        draw(st.sampled_from(POLICIES)),
        draw(st.sampled_from(("negative start", "past the disk",
                              "zero length"))),
        draw(st.integers(0, 2**32 - 1)),
    )


class TestRejectedBatchChangesNothing:
    @settings(max_examples=150, deadline=None)
    @given(_rejected_cases())
    def test_raises_before_any_state_change(self, case):
        """One bad run among good ones, on a drive whose cache holds
        tracks from an earlier batch."""
        name, cache_tracks, policy, fault, seed = case
        model = _model(name)
        geom = model.geometry
        rng = np.random.default_rng(seed)
        drive = DiskDrive(model, cache_tracks=cache_tracks)
        drive.reset(int(rng.integers(geom.n_tracks)),
                    float(rng.uniform(0.0, 1e4)))
        drive.service_runs(*_runs(model, rng, 4), policy="fifo")
        starts, lengths = _runs(model, rng, 5)
        bad = int(rng.integers(starts.size))
        if fault == "negative start":
            starts[bad] = -int(rng.integers(1, 100))
        elif fault == "past the disk":
            # the last LBN lands on n_lbns or just past it
            lengths[bad] = geom.n_lbns - starts[bad] + int(
                rng.integers(1, 3))
        else:
            lengths[bad] = 0
        clock, track = drive.now_ms, drive.current_track
        recency = None if drive.cache is None else list(drive.cache._lru)
        with pytest.raises(GeometryError):
            drive.service_runs(starts, lengths, policy=policy)
        assert drive.now_ms == clock
        assert drive.current_track == track
        if drive.cache is not None:
            assert list(drive.cache._lru) == recency

    def test_huge_length_raises(self):
        """A length that overflows int64 once added to its start is off
        the disk, not a short run."""
        drive = DiskDrive(_model("three-zone"))
        for length in (2**62, 2**63 - 1):
            with pytest.raises(GeometryError):
                drive.service_runs([5], [length], policy="fifo")
        assert drive.now_ms == 0.0 and drive.current_track == 0
