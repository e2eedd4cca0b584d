"""Reference oracle for the drive's SPTF scheduler.

``reference_sptf`` is the windowed shortest-positioning-time-first kernel
as it stood before the table-driven rewrite, kept verbatim (as a free
function taking the drive as ``self``): it re-evaluates the seek curve
and re-gathers its window from a Python list on every scheduling step.
The property below pins :meth:`DiskDrive.service_runs` with
``policy="sptf"`` to it by exact equality — service order, per-request
times, every cost total, and the final head track and clock — on every
registered drive, including the zero-skew toy disk, whose equal costs
exercise the lowest-issue-index tie-break.  Batches may hold runs that
cross a zone boundary: they are scheduled like any other (their costs
are pinned by ``test_service_oracle.py``).

The drive scores only the queued requests that can still beat the best
cost, walking the queue in rotational order until a lower bound rules
the rest out.  The cases under ``TestPrunedQueueMatchesReference`` aim
where that bound could go wrong: full 128-deep queues over hundreds of
steps (the MultiMap range plans of the benchmark's paper-batch workload,
and random batches of up to 450 runs), heads parked at the far end of
the disk, so the first step's bound is loose, clocks up to 1e9 ms,
where phases lose precision, and start angles straddling the 0/1 wrap.
"""

from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Dataset
from repro.api.registry import drive_names, get_drive
from repro.disk import DiskDrive, toy_disk
from repro.disk.drive import SNAP_REV, BatchResult
from repro.query.workload import random_range_cube


def reference_sptf(self, info, window: int, collect: bool) -> BatchResult:
    rot = self._rot
    mech = self.mechanics
    surfaces = self.geometry.surfaces
    n = info["starts"].size
    cyl0 = info["cyl0"]
    track0 = info["track0"]
    a0 = info["a0"]
    cyle = info["cyle"]
    tracke = info["tracke"]
    xfer = info["transfer"] + info["switch"]

    # Admission in issue order: the window holds the first `window`
    # not-yet-serviced requests, like a drive command queue.
    pending = np.arange(n, dtype=np.int64)
    in_window = min(window, n)
    window_idx = list(range(in_window))
    next_admit = in_window

    t = self._time_ms
    cur_cyl = self._track // surfaces
    cur_track = self._track

    order = np.empty(n, dtype=np.int64)
    per_request = np.empty(n, dtype=np.float64) if collect else None
    seek_total = rot_total = 0.0

    for step in range(n):
        widx = np.asarray(window_idx, dtype=np.int64)
        cand = pending[widx]
        dist = np.abs(cyl0[cand] - cur_cyl)
        seeks = mech.seek_time(dist)
        seeks = np.where(
            dist == 0,
            np.where(track0[cand] != cur_track, mech.head_switch_ms, 0.0),
            seeks,
        )
        arrival = t + self._overhead + seeks
        waits = (a0[cand] - arrival / rot) % 1.0
        waits = np.where(waits > 1.0 - SNAP_REV, 0.0, waits) * rot
        costs = seeks + waits
        k = int(np.argmin(costs))
        chosen = int(cand[k])

        seek_total += float(seeks[k])
        rot_total += float(waits[k])
        service_time = (
            self._overhead + float(costs[k]) + float(xfer[chosen])
        )
        if collect:
            per_request[step] = service_time
        t += service_time
        cur_cyl = int(cyle[chosen])
        cur_track = int(tracke[chosen])
        order[step] = chosen

        del window_idx[k]
        if next_admit < n:
            window_idx.append(next_admit)
            next_admit += 1

    total = t - self._time_ms
    self._time_ms = t
    self._track = cur_track
    return BatchResult(
        total_ms=total,
        n_requests=n,
        n_blocks=int(info["lengths"].sum()),
        seek_ms=seek_total,
        rotation_ms=rot_total,
        transfer_ms=float(info["transfer"].sum()),
        switch_ms=float(info["switch"].sum()),
        overhead_ms=self._overhead * n,
        per_request_ms=per_request,
        order=order if collect else None,
    )


@cache
def _model(name):
    return get_drive(name).factory()


def _batch(model, rng, n, spread, dup_frac, long_runs, wrap=False,
           cross=False):
    """``n`` runs inside one zone around a random track: ``spread``
    tracks either side (0 = one track), run lengths up to 4 blocks or
    3 tracks, and a ``dup_frac`` share of exact duplicate runs.  With
    ``wrap`` every run starts within two sectors of angle 0, so the
    queue's angles straddle the 0/1 wrap.  With ``cross`` (on a drive
    with more than one zone) about a third of the runs instead cross
    the zone's boundary with a neighbour zone, up to two tracks either
    side."""
    geom = model.geometry
    z = int(rng.integers(len(geom.zones)))
    lo, hi = geom.zone_lbn_span(z)
    spt = geom.zone(z).sectors_per_track
    n_tracks = (hi - lo) // spt
    base = int(rng.integers(n_tracks))
    tracks = np.clip(
        base + rng.integers(-spread, spread + 1, size=n), 0, n_tracks - 1
    )
    if wrap:
        # sector s of in-zone track tz sits at ((s + skew * tz) % spt) / spt
        skew = geom.zone(z).skew_sectors
        sectors = (rng.integers(-2, 2, size=n) - skew * tracks) % spt
    else:
        sectors = rng.integers(0, spt, size=n)
    starts = lo + tracks * spt + sectors
    max_len = 3 * spt if long_runs else 4
    lengths = np.minimum(rng.integers(1, max_len + 1, size=n), hi - starts)
    if cross and len(geom.zones) > 1:
        b = z + 1 if z + 1 < len(geom.zones) else z  # zone after the edge
        edge = geom.zone_first_lbn(b)
        before = geom.zone(b - 1).sectors_per_track
        after = geom.zone(b).sectors_per_track
        over = np.flatnonzero(rng.random(n) < 1 / 3)
        starts[over] = edge - rng.integers(1, 2 * before + 1, size=over.size)
        lengths[over] = edge - starts[over] + rng.integers(
            1, 2 * after + 1, size=over.size
        )
    dup = np.flatnonzero(rng.random(n) < dup_frac)
    src = rng.integers(0, n, size=dup.size)
    starts[dup] = starts[src]
    lengths[dup] = lengths[src]
    return starts.astype(np.int64), lengths.astype(np.int64)


def _assert_matches_reference(model, starts, lengths, window, collect,
                              head):
    drive = DiskDrive(model)
    ref = DiskDrive(model)
    drive.reset(*head)
    ref.reset(*head)
    got = drive.service_runs(
        starts, lengths, policy="sptf", window=window, collect=collect
    )
    want = reference_sptf(ref, ref._prepare_runs(starts, lengths), window,
                          collect)

    for field in ("total_ms", "n_requests", "n_blocks", "seek_ms",
                  "rotation_ms", "transfer_ms", "switch_ms",
                  "overhead_ms"):
        assert getattr(got, field) == getattr(want, field), field
    if collect:
        assert got.order.dtype == want.order.dtype
        assert np.array_equal(got.order, want.order)
        assert got.per_request_ms.dtype == want.per_request_ms.dtype
        assert np.array_equal(got.per_request_ms, want.per_request_ms)
    else:
        assert got.order is None and got.per_request_ms is None
    assert drive.current_track == ref.current_track
    assert drive.now_ms == ref.now_ms


@st.composite
def _cases(draw):
    name = draw(st.sampled_from(drive_names()))
    n = draw(st.integers(1, 40))
    return (
        name,
        draw(st.integers(0, 2**32 - 1)),
        n,
        draw(st.integers(1, n + 1)),
        draw(st.booleans()),
        draw(st.sampled_from([0, 1, 4, 40, 100_000])),
        draw(st.sampled_from([0.0, 0.3])),
        draw(st.booleans()),
        draw(st.booleans()),
        draw(st.booleans()),
    )


class TestSPTFMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(_cases())
    def test_bit_identical_to_reference(self, case):
        (name, seed, n, window, collect, spread, dup_frac, long_runs,
         parked, cross) = case
        model = _model(name)
        rng = np.random.default_rng(seed)
        starts, lengths = _batch(model, rng, n, spread, dup_frac, long_runs,
                                 cross=cross)
        head = (0, 0.0) if parked else DiskDrive(model).draw_position(rng)
        _assert_matches_reference(model, starts, lengths, window, collect,
                                  head)

    @pytest.mark.parametrize("collect", [False, True])
    def test_every_window_on_toy_ties(self, collect):
        """Zero skew and a near-zero seek curve make many candidates cost
        exactly the same; duplicates tie outright."""
        model = toy_disk()
        starts = np.array([7, 12, 7, 30, 2, 45, 12, 17, 0, 33, 7, 199],
                          dtype=np.int64)
        lengths = np.array([1, 3, 1, 2, 1, 1, 3, 4, 5, 1, 1, 1],
                           dtype=np.int64)
        for window in range(1, starts.size + 2):
            _assert_matches_reference(model, starts, lengths, window,
                                      collect, (0, 0.0))

    def test_zone_crossing_batch_in_sptf_order(self):
        """A batch with a zone-crossing run is scheduled like any other:
        the request on the head's track goes first although it was
        issued after the run across the far zone boundary."""
        model = _model("minidrive")
        edge = model.geometry.zone_lbn_span(0)[1]
        starts = np.array([edge - 3, 5], dtype=np.int64)
        lengths = np.array([6, 1], dtype=np.int64)
        _assert_matches_reference(model, starts, lengths, 2, True, (0, 0.0))
        res = DiskDrive(model).service_runs(starts, lengths, policy="sptf",
                                            window=2, collect=True)
        assert res.order.tolist() == [1, 0]


def _far_head(model, starts, rng, clock, scale):
    """A head parked at the end of the disk farthest from the batch, its
    clock drawn up to ``scale`` ms: anywhere (``"any"``), on a whole
    revolution (``"lap"``), or where the cheapest move off the track
    lands within 1e-7 ms of angle 0 (``"edge"``)."""
    geom = model.geometry
    mech = model.mechanics
    rot = mech.rotation_ms
    far = 0 if geom.track_of(int(starts[0])) >= geom.n_tracks // 2 \
        else geom.n_tracks - 1
    if clock == "any":
        return far, float(rng.uniform(0.0, scale))
    laps = int(rng.integers(scale // rot + 1))
    if clock == "lap":
        return far, laps * rot
    land = mech.command_overhead_ms + model.seek_floor_ms
    nudge = float(rng.choice([-1e-7, 0.0, 1e-7]))
    return far, max(laps * rot - land + nudge, 0.0)


@st.composite
def _queue_cases(draw):
    return (
        draw(st.sampled_from(drive_names())),
        draw(st.integers(0, 2**32 - 1)),
        draw(st.integers(1, 450)),
        draw(st.integers(1, 128)),
        draw(st.booleans()),
        draw(st.sampled_from([0, 4, 40, 100_000])),
        draw(st.sampled_from([0.0, 0.3])),
        draw(st.booleans()),
        draw(st.booleans()),
        draw(st.sampled_from(["any", "lap", "edge"])),
        draw(st.sampled_from([10.0, 1e6, 1e9])),
        draw(st.booleans()),
    )


class TestPrunedQueueMatchesReference:
    @settings(max_examples=120, deadline=None)
    @given(_queue_cases())
    def test_deep_queues_far_heads_late_clocks(self, case):
        (name, seed, n, window, collect, spread, dup_frac, long_runs,
         wrap, clock, scale, cross) = case
        model = _model(name)
        rng = np.random.default_rng(seed)
        starts, lengths = _batch(model, rng, n, spread, dup_frac,
                                 long_runs, wrap, cross)
        head = _far_head(model, starts, rng, clock, scale)
        _assert_matches_reference(model, starts, lengths, window, collect,
                                  head)

    @pytest.mark.parametrize("selectivity", [0.1, 1.0])
    def test_paper_batch_multimap_range_plans(self, selectivity,
                                              monkeypatch):
        """The batches a MultiMap range cube hands the drive on the
        paper-batch shape: (216, 64, 64) on atlas10k3, window 128.  The
        0.1 % cube's ~100 runs all fit the queue; the 1 % cube's ~430
        keep it full for hundreds of steps."""
        batches = []
        service_runs = DiskDrive.service_runs

        def spy(drive, starts, lengths, **kw):
            if kw.get("policy") == "sptf":
                batches.append((np.array(starts), np.array(lengths),
                                kw["window"]))
            return service_runs(drive, starts, lengths, **kw)

        monkeypatch.setattr(DiskDrive, "service_runs", spy)
        ds = Dataset.create((216, 64, 64), layout="multimap",
                            drive="atlas10k3", seed=1)
        rng = np.random.default_rng(int(selectivity * 10))
        ds.run([random_range_cube(ds.shape, selectivity, rng)], rng=rng)
        monkeypatch.undo()

        (starts, lengths, window), = batches
        assert window == 128
        assert (starts.size > window) == (selectivity == 1.0)
        model = _model("atlas10k3")
        for collect in (False, True):
            head = DiskDrive(model).draw_position(rng)
            _assert_matches_reference(model, starts, lengths, window,
                                      collect, head)
