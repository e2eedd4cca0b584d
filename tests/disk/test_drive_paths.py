"""The drive's two fifo/sorted paths agree bit for bit.

:meth:`DiskDrive.service_runs` serves a ``"fifo"`` or ``"sorted"``
batch of at most :data:`repro.disk.drive.SCALAR_RUNS` runs (at most
:data:`~repro.disk.drive.PREPARED_SCALAR_RUNS` when it comes from
``prepare_batches``) in one scalar pass (``_service_scalar``) and a
larger one through numpy preparation
(``_service_in_order(_prepare_runs(...))``).  The properties below run
both on the same batches by moving the threshold, on batches of up to
twice its size: every :class:`BatchResult` field, the per-request times
and the service order must be equal (``==``, not approximately), and so
must the clock, the head's track and the firmware cache's LRU order
afterwards.  A rejected batch must raise the same
:class:`GeometryError` on both paths and change nothing.
"""

from contextlib import contextmanager
from functools import cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.registry import get_drive
from repro.disk import DiskDrive, synthetic_disk
from repro.disk import drive as drive_module
from repro.disk.drive import PREPARED_SCALAR_RUNS, SCALAR_RUNS
from repro.errors import GeometryError

MODELS = ("atlas10k3", "minidrive", "three-zone")
CACHE_SIZES = (0, 1, 8, 64)


@cache
def _model(name):
    if name == "three-zone":
        # zones of a few tracks each, so one run can span all three
        return synthetic_disk(
            "three-zone", surfaces=2, settle_cylinders=2,
            zone_specs=[(3, 20), (2, 16), (3, 12)],
        )
    return get_drive(name).factory()


@contextmanager
def _path(scalar: bool):
    """Serve every fifo/sorted batch by the scalar pass, or none."""
    with mock.patch.object(drive_module, "SCALAR_RUNS",
                           10**9 if scalar else 0):
        yield


def _runs(model, rng, n):
    """``n`` runs near a few anchors (so a cache sees repeats): single
    blocks, runs over up to three tracks, and runs from a zone's last
    two tracks into the next zone, or across every zone of the disk."""
    geom = model.geometry
    n_zones = len(geom.zones)
    anchors = rng.integers(0, geom.n_lbns, size=3)
    starts, lengths = [], []
    for _ in range(n):
        kind = int(rng.integers(4 if n_zones > 1 else 2))
        if kind == 2:  # from zone z - 1 into zone z
            z = int(rng.integers(1, n_zones))
            spt = geom.zone(z - 1).sectors_per_track
            start = geom.zone_first_lbn(z) - int(rng.integers(1, 2 * spt + 1))
            end = geom.zone_first_lbn(z) + int(
                rng.integers(0, 2 * geom.zone(z).sectors_per_track))
            length = end - start + 1
        elif kind == 3 and geom.n_lbns < 10_000:  # over every zone
            start = int(rng.integers(0, geom.zone_first_lbn(1)))
            length = geom.n_lbns - start - int(rng.integers(0, 5))
        else:
            spt = geom.track_length(0)
            start = int(rng.choice(anchors)) + int(
                rng.integers(-2 * spt, 2 * spt + 1))
            length = 1 if kind != 1 else int(rng.integers(2, 3 * spt + 1))
        start = min(max(start, 0), geom.n_lbns - 1)
        starts.append(start)
        lengths.append(max(1, min(length, geom.n_lbns - start)))
    return (np.array(starts, dtype=np.int64),
            np.array(lengths, dtype=np.int64))


def _fields(res):
    arrays = tuple(
        None if a is None else (a.dtype, a.tolist())
        for a in (res.per_request_ms, res.order)
    )
    return (res.total_ms, res.n_requests, res.n_blocks, res.seek_ms,
            res.rotation_ms, res.transfer_ms, res.switch_ms,
            res.overhead_ms) + arrays


def _state(drive):
    recency = None if drive.cache is None else list(drive.cache._lru)
    return drive.now_ms, drive.current_track, recency


def _pair(model, cache_tracks, rng):
    head = (int(rng.integers(model.geometry.n_tracks)),
            float(rng.uniform(0.0, 1e4)))
    drives = [DiskDrive(model, cache_tracks) for _ in range(2)]
    for drive in drives:
        drive.reset(*head)
    return drives


@st.composite
def _cases(draw):
    return (
        draw(st.sampled_from(MODELS)),
        draw(st.sampled_from(CACHE_SIZES)),
        draw(st.integers(0, 2**32 - 1)),
        draw(st.lists(st.integers(1, 2 * SCALAR_RUNS), min_size=1,
                      max_size=3)),
        draw(st.sampled_from(["fifo", "sorted"])),
        draw(st.booleans()),
    )


class TestScalarPassMatchesNumpyPath:
    @settings(max_examples=250, deadline=None)
    @given(_cases())
    def test_consecutive_batches_equal(self, case):
        """Consecutive batches on one drive pair, so the clock, head and
        cache carry over from one batch to the next."""
        name, cache_tracks, seed, sizes, policy, collect = case
        model = _model(name)
        rng = np.random.default_rng(seed)
        scalar, vector = _pair(model, cache_tracks, rng)
        for n in sizes:
            starts, lengths = _runs(model, rng, n)
            with _path(scalar=True):
                got = scalar.service_runs(starts, lengths, policy=policy,
                                          collect=collect)
            with _path(scalar=False):
                want = vector.service_runs(starts, lengths, policy=policy,
                                           collect=collect)
            assert _fields(got) == _fields(want)
            assert _state(scalar) == _state(vector)

    @pytest.mark.parametrize("cache_tracks", CACHE_SIZES)
    def test_repeated_run_across_all_three_zones(self, cache_tracks):
        """The same zone-crossing run twice (a cache hit the second
        time on a cached drive), with single blocks between."""
        geom = _model("three-zone").geometry
        start = geom.zone_first_lbn(1) - 5
        end = geom.zone_first_lbn(2) + 7
        starts = np.array([start, 3, start, end, 0], dtype=np.int64)
        lengths = np.array([end - start + 1, 4, end - start + 1, 1,
                            geom.n_lbns], dtype=np.int64)
        rng = np.random.default_rng(cache_tracks)
        scalar, vector = _pair(_model("three-zone"), cache_tracks, rng)
        for policy in ("fifo", "sorted"):
            with _path(scalar=True):
                got = scalar.service_runs(starts, lengths, policy=policy,
                                          collect=True)
            with _path(scalar=False):
                want = vector.service_runs(starts, lengths, policy=policy,
                                           collect=True)
            assert _fields(got) == _fields(want)
            assert _state(scalar) == _state(vector)


@st.composite
def _rejected_cases(draw):
    return (
        draw(st.sampled_from(MODELS)),
        draw(st.sampled_from((0, 8))),
        draw(st.sampled_from(["fifo", "sorted"])),
        draw(st.sampled_from(("zero length", "negative start",
                              "past the disk"))),
        draw(st.integers(0, 2**32 - 1)),
    )


class TestRejectedBatch:
    @settings(max_examples=120, deadline=None)
    @given(_rejected_cases())
    def test_same_error_and_no_state_change(self, case):
        """One bad run among good ones, on drives whose caches hold
        tracks from an earlier batch."""
        name, cache_tracks, policy, fault, seed = case
        model = _model(name)
        geom = model.geometry
        rng = np.random.default_rng(seed)
        drives = _pair(model, cache_tracks, rng)
        warm = _runs(model, rng, 4)
        for drive in drives:
            drive.service_runs(*warm, policy="fifo")
        starts, lengths = _runs(model, rng, 6)
        bad = int(rng.integers(starts.size))
        if fault == "zero length":
            lengths[bad] = 0
        elif fault == "negative start":
            starts[bad] = -int(rng.integers(1, 100))
        else:  # the last LBN lands on n_lbns or just past it
            lengths[bad] = geom.n_lbns - starts[bad] + int(
                rng.integers(1, 3))
        errors = []
        for drive, scalar in zip(drives, (True, False)):
            before = _state(drive)
            with _path(scalar), pytest.raises(GeometryError) as info:
                drive.service_runs(starts, lengths, policy=policy)
            assert _state(drive) == before
            errors.append(str(info.value))
        assert errors[0] == errors[1]

    @pytest.mark.parametrize("length", [2**62, 2**63 - 1])
    def test_huge_length_raises_on_the_scalar_pass(self, length):
        drive = DiskDrive(_model("three-zone"))
        with pytest.raises(GeometryError):
            drive.service_runs([5], [length], policy="fifo")
        assert drive.now_ms == 0.0 and drive.current_track == 0


def test_threshold_selects_the_path():
    """The path depends on the batch's size and on whether it came with
    ``prepared=``: serviced on its own, a batch of exactly SCALAR_RUNS
    runs takes the scalar pass and one more run the numpy path; from
    ``prepare_batches``, the same holds at PREPARED_SCALAR_RUNS."""
    assert PREPARED_SCALAR_RUNS < SCALAR_RUNS
    drive = DiskDrive(_model("atlas10k3"))
    calls = []
    scalar, prepare = drive._service_scalar, drive._prepare_runs

    def spy(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    drive._service_scalar = spy("scalar", scalar)
    drive._prepare_runs = spy("numpy", prepare)
    cases = [(False, n, path) for n, path in (
        (PREPARED_SCALAR_RUNS, "scalar"), (SCALAR_RUNS, "scalar"),
        (SCALAR_RUNS + 1, "numpy"))]
    cases += [(True, n, path) for n, path in (
        (PREPARED_SCALAR_RUNS, "scalar"),
        (PREPARED_SCALAR_RUNS + 1, "numpy"), (SCALAR_RUNS, "numpy"))]
    for policy in ("fifo", "sorted"):
        for grouped, n, path in cases:
            calls.clear()
            starts = 1000 + 700 * np.arange(n, dtype=np.int64)
            lengths = np.ones(n, dtype=np.int64)
            batch = None
            if grouped:
                batch, = drive.prepare_batches([(starts, lengths, policy)])
            drive.service_runs(starts, lengths, policy=policy,
                               prepared=batch)
            assert calls == [path], (policy, grouped, n)
    calls.clear()
    drive.service(1234, 3)
    assert calls == ["scalar"]
