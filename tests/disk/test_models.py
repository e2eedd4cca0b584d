"""Tests for the disk model factories."""

import numpy as np
import pytest

from repro.api.registry import drive_names, get_drive
from repro.disk import (
    DiskDrive,
    DiskGeometry,
    DiskMechanics,
    DiskModel,
    SeekProfile,
    atlas_10k3,
    cheetah_36es,
    paper_disks,
    synthetic_disk,
    toy_disk,
)


class TestPaperDisks:
    def test_two_disks_in_paper_order(self):
        disks = paper_disks()
        assert [d.name for d in disks] == [
            "Maxtor Atlas 10k III",
            "Seagate Cheetah 36ES",
        ]

    def test_ten_k_rpm(self):
        for model in paper_disks():
            assert model.mechanics.rotation_ms == pytest.approx(6.0)

    def test_settle_times_comparable(self):
        """The paper: both disks have comparable settle times, which is
        why MultiMap performs almost identically on them."""
        a, c = paper_disks()
        assert abs(a.mechanics.settle_ms - c.mechanics.settle_ms) < 0.5

    def test_command_overhead_present(self):
        for model in paper_disks():
            assert model.mechanics.command_overhead_ms > 0

    def test_zone_count(self):
        assert len(atlas_10k3().geometry.zones) == 8
        assert len(cheetah_36es().geometry.zones) == 9

    def test_repr_shows_capacity(self):
        assert "GB" in repr(atlas_10k3())


class TestToyDisk:
    def test_track_length_five(self):
        assert toy_disk().geometry.track_length(0) == 5

    def test_zero_skew(self):
        for zone in toy_disk().geometry.zones:
            assert zone.skew_sectors == 0

    def test_one_ms_per_sector(self):
        model = toy_disk()
        spt = model.geometry.track_length(0)
        assert model.mechanics.rotation_ms / spt == pytest.approx(1.0)

    def test_supports_depth_nine(self):
        model = toy_disk()
        assert (
            model.geometry.surfaces * model.mechanics.settle_cylinders == 9
        )


class TestSyntheticDisk:
    def test_defaults_valid(self):
        model = synthetic_disk()
        DiskDrive(model).service(0)

    def test_parameters_respected(self):
        model = synthetic_disk(
            "x", rpm=7200, settle_ms=0.8, surfaces=3,
            zone_specs=[(50, 100)], command_overhead_ms=0.2,
        )
        assert model.mechanics.rotation_ms == pytest.approx(60000 / 7200)
        assert model.geometry.surfaces == 3
        assert model.mechanics.command_overhead_ms == 0.2

    def test_streaming_bandwidth_realistic(self):
        """Outer-zone streaming of the paper drives sits in the tens of
        MB/s, as 2002-era 10k drives did."""
        for model in paper_disks():
            bw = DiskDrive(model).streaming_bandwidth_bytes_per_s(0) / 1e6
            assert 30 < bw < 80


def _short_profile_model() -> DiskModel:
    """500 cylinders, but a seek profile whose full stroke is 99."""
    seek = SeekProfile(settle_ms=1.0, settle_cylinders=8, max_cylinders=99,
                       avg_seek_ms=3.0, full_stroke_ms=6.0)
    mech = DiskMechanics(rpm=10_000, seek=seek)
    geom = DiskGeometry.build(2, [(300, 40), (200, 30)], lambda spt: 3)
    return DiskModel("short-profile", geom, mech)


class TestSeekTable:
    @pytest.mark.parametrize(
        "model",
        [get_drive(name).factory() for name in drive_names()]
        + [toy_disk(), _short_profile_model()],
        ids=lambda m: m.name,
    )
    def test_equals_the_curve_at_every_distance(self, model):
        table = model.seek_table
        assert table.shape == (model.geometry.n_cylinders,)
        curve = [model.mechanics.seek_time(d) for d in range(table.size)]
        assert table.tolist() == curve

    def test_sized_from_geometry_not_profile(self):
        model = _short_profile_model()
        profile = model.mechanics.seek
        assert model.geometry.n_cylinders - 1 > profile.max_cylinders
        past = model.seek_table[profile.max_cylinders:]
        assert np.all(np.diff(past) > 0)  # linear extrapolation

    def test_full_stroke_service(self):
        model = _short_profile_model()
        geom = model.geometry
        drive = DiskDrive(model)
        tm = drive.service(geom.track_first_lbn(geom.n_tracks - 1))
        assert tm.seek_ms == model.mechanics.seek_time(geom.n_cylinders - 1)
        assert drive.current_cylinder == geom.n_cylinders - 1

    def test_shared_and_read_only(self):
        model = toy_disk()
        assert model.seek_table is model.seek_table
        with pytest.raises(ValueError):
            model.seek_table[1] = 0.0
