"""Batches prepared as a group are served exactly as one at a time.

:meth:`DiskDrive.prepare_batches` checks several batches and prepares
the ones the drive would prepare with numpy in one pass: one stable
sort of the ``"sorted"`` batches, one geometry pass and one vector of
in-batch seeks.  Serving each batch from the group
(``service_runs(..., prepared=batch)``) must give what serving it alone
gives: every :class:`BatchResult` field, per-request times and service
order equal (``==``), and the same clock, head and firmware-cache
recency after every batch, whatever happened to the head between two
batches of the group.
"""

from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.registry import drive_names, get_drive
from repro.disk import DiskDrive, synthetic_disk
from repro.disk.drive import SCALAR_RUNS
from repro.errors import GeometryError

POLICIES = ("fifo", "sorted", "sptf")


@cache
def _model(name):
    if name == "three-zone":
        return synthetic_disk(
            "three-zone", surfaces=2, settle_cylinders=2,
            zone_specs=[(3, 20), (2, 16), (3, 12)],
        )
    return get_drive(name).factory()


def _runs(model, rng, n):
    """``n`` runs around a few anchors, some of several tracks, some
    across a zone boundary."""
    geom = model.geometry
    anchors = rng.integers(0, geom.n_lbns, size=3)
    spt = geom.track_length(0)
    starts = np.clip(rng.choice(anchors, size=n)
                     + rng.integers(-2 * spt, 2 * spt + 1, size=n),
                     0, geom.n_lbns - 1)
    lengths = np.where(rng.random(n) < 0.3,
                       rng.integers(2, 3 * spt + 1, size=n), 1)
    if len(geom.zones) > 1 and n > 1:
        z = int(rng.integers(1, len(geom.zones)))
        starts[0] = geom.zone_first_lbn(z) - 2
        lengths[0] = 5
    lengths = np.minimum(lengths, geom.n_lbns - starts)
    return starts.astype(np.int64), lengths.astype(np.int64)


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


@st.composite
def _cases(draw):
    sizes = draw(st.lists(st.integers(0, 3 * SCALAR_RUNS), min_size=1,
                          max_size=6))
    return (
        draw(st.sampled_from([*drive_names(), "three-zone"])),
        draw(st.sampled_from([0, 1, 8, 64])),
        draw(st.integers(0, 2**32 - 1)),
        sizes,
        draw(st.lists(st.sampled_from(POLICIES), min_size=len(sizes),
                      max_size=len(sizes))),
        draw(st.lists(st.booleans(), min_size=len(sizes),
                      max_size=len(sizes))),
        draw(st.booleans()),
        draw(st.integers(1, 200)),
    )


class TestGroupMatchesOneAtATime:
    @settings(max_examples=250, deadline=None)
    @given(_cases())
    def test_every_field_and_state_equal(self, case):
        name, cache_tracks, seed, sizes, policies, moves, collect, \
            window = case
        model = _model(name)
        rng = np.random.default_rng(seed)
        batches = [(*_runs(model, rng, n), policy)
                   for n, policy in zip(sizes, policies)]
        heads = [DiskDrive(model).draw_position(rng) for _ in batches]
        grouped = DiskDrive(model, cache_tracks)
        alone = DiskDrive(model, cache_tracks)
        prepared = grouped.prepare_batches(batches)
        for (starts, lengths, policy), batch, move, head in zip(
                batches, prepared, moves, heads):
            if move:
                grouped.reset(*head)
                alone.reset(*head)
            got = grouped.service_runs(starts, lengths, policy=policy,
                                       window=window, collect=collect,
                                       prepared=batch)
            want = alone.service_runs(starts, lengths, policy=policy,
                                      window=window, collect=collect)
            assert _fields(got) == _fields(want)
            assert _state(grouped) == _state(alone)

    def test_one_preparation_per_group(self):
        """Three numpy-sized batches and one scalar-sized batch: one
        geometry pass for the group, made by its first service."""
        model = _model("atlas10k3")
        drive = DiskDrive(model)
        calls = []
        prepare = drive._prepare_runs

        def spy(*args):
            calls.append(len(args[0]))
            return prepare(*args)

        drive._prepare_runs = spy
        rng = np.random.default_rng(3)
        sizes = (SCALAR_RUNS + 1, 5, 2 * SCALAR_RUNS, SCALAR_RUNS + 7)
        batches = [(*_runs(model, rng, n), policy)
                   for n, policy in zip(sizes, POLICIES + ("sorted",))]
        prepared = drive.prepare_batches(batches)
        assert calls == []
        for (starts, lengths, policy), batch in zip(batches, prepared):
            drive.service_runs(starts, lengths, policy=policy,
                               prepared=batch)
            assert calls == [sum(sizes) - 5]


class TestChecks:
    def test_mismatched_prepared_batch_raises(self):
        model = _model("minidrive")
        drive = DiskDrive(model)
        starts = np.arange(0, 50 * 7, 7, dtype=np.int64)
        lengths = np.ones(50, dtype=np.int64)
        batch, = drive.prepare_batches([(starts, lengths, "sorted")])
        for args, kwargs in (
            ((starts.copy(), lengths), {"policy": "sorted"}),
            ((starts, lengths), {"policy": "fifo"}),
        ):
            with pytest.raises(GeometryError):
                drive.service_runs(*args, **kwargs, prepared=batch)
        with pytest.raises(GeometryError):
            DiskDrive(model).service_runs(starts, lengths, policy="sorted",
                                          prepared=batch)
        assert (drive.now_ms, drive.current_track) == (0.0, 0)

    def test_group_geometry_error_before_any_service(self):
        """A group's off-disk run is raised by the first service of any
        of its batches, before the clock or head move."""
        model = _model("minidrive")
        drive = DiskDrive(model)
        good = (np.arange(60, dtype=np.int64), np.ones(60, dtype=np.int64),
                "fifo")
        bad = (np.array([model.geometry.n_lbns] * 60, dtype=np.int64),
               np.ones(60, dtype=np.int64), "sptf")
        first, _ = drive.prepare_batches([good, bad])
        with pytest.raises(GeometryError):
            drive.service_runs(good[0], good[1], policy="fifo",
                               prepared=first)
        assert (drive.now_ms, drive.current_track) == (0.0, 0)
        with pytest.raises(GeometryError):
            drive.prepare_batches([good, (good[0], good[1], "lifo")])
