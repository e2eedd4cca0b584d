"""Tests for zoned geometry: LBN <-> CHS, skew, angles, vectorisation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.disk.geometry import DiskGeometry, Zone
from repro.errors import GeometryError


def two_zone_geometry():
    """2 surfaces; zone0: 3 cyl x 10 spt (skew 2); zone1: 2 cyl x 8 spt."""
    return DiskGeometry(
        [
            Zone(0, 0, 3, 10, 2),
            Zone(1, 3, 2, 8, 1),
        ],
        surfaces=2,
    )


class TestConstruction:
    def test_counts(self):
        g = two_zone_geometry()
        assert g.n_cylinders == 5
        assert g.n_tracks == 10
        assert g.n_lbns == 6 * 10 + 4 * 8

    def test_capacity(self):
        g = two_zone_geometry()
        assert g.capacity_bytes == g.n_lbns * 512

    def test_zone_indices_must_be_sequential(self):
        with pytest.raises(GeometryError):
            DiskGeometry([Zone(1, 0, 3, 10, 0)], surfaces=1)

    def test_zones_must_tile_cylinders(self):
        with pytest.raises(GeometryError):
            DiskGeometry(
                [Zone(0, 0, 3, 10, 0), Zone(1, 4, 2, 8, 0)], surfaces=1
            )

    def test_rejects_zero_surfaces(self):
        with pytest.raises(GeometryError):
            DiskGeometry([Zone(0, 0, 3, 10, 0)], surfaces=0)

    def test_zone_rejects_bad_skew(self):
        with pytest.raises(GeometryError):
            Zone(0, 0, 3, 10, 10)

    def test_zone_rejects_empty(self):
        with pytest.raises(GeometryError):
            Zone(0, 0, 0, 10, 0)

    def test_zone_tables_are_read_only(self):
        """Every drive of a model shares its geometry, and every dataset
        of a registered drive shares the model."""
        g = two_zone_geometry()
        for table in (g._spt, g._skew, g._zone_first_track,
                      g._zone_first_lbn, g.zone_end_lbns):
            with pytest.raises(ValueError):
                table[0] = 1
        assert g.decompose(np.array([0, 61]))[1].tolist() == [0, 6]


class TestScalarAccessors:
    def test_first_lbn_is_track0_sector0(self):
        g = two_zone_geometry()
        assert g.chs(0) == (0, 0, 0)

    def test_sector_advances_within_track(self):
        g = two_zone_geometry()
        assert g.chs(7) == (0, 0, 7)

    def test_head_advances_after_track(self):
        g = two_zone_geometry()
        assert g.chs(10) == (0, 1, 0)

    def test_cylinder_advances_after_all_heads(self):
        g = two_zone_geometry()
        assert g.chs(20) == (1, 0, 0)

    def test_second_zone_lbn(self):
        g = two_zone_geometry()
        # zone 1 starts at LBN 60, cylinder 3
        assert g.chs(60) == (3, 0, 0)
        assert g.chs(60 + 8) == (3, 1, 0)

    def test_track_boundaries(self):
        g = two_zone_geometry()
        assert g.track_boundaries(0) == (0, 10)
        assert g.track_boundaries(15) == (10, 20)
        assert g.track_boundaries(60) == (60, 68)

    def test_track_length_per_zone(self):
        g = two_zone_geometry()
        assert g.track_length(0) == 10
        assert g.track_length(6) == 8

    def test_lbn_roundtrip(self):
        g = two_zone_geometry()
        for lbn in range(g.n_lbns):
            track = g.track_of(lbn)
            sector = g.sector_of(lbn)
            assert g.lbn(track, sector) == lbn

    def test_lbn_rejects_bad_sector(self):
        g = two_zone_geometry()
        with pytest.raises(GeometryError):
            g.lbn(0, 10)

    def test_check_lbn_bounds(self):
        g = two_zone_geometry()
        with pytest.raises(GeometryError):
            g.check_lbn(-1)
        with pytest.raises(GeometryError):
            g.check_lbn(g.n_lbns)

    def test_zone_lbn_span(self):
        g = two_zone_geometry()
        assert g.zone_lbn_span(0) == (0, 60)
        assert g.zone_lbn_span(1) == (60, 92)


class TestAngles:
    def test_first_track_angles_are_sector_fractions(self):
        g = two_zone_geometry()
        for s in range(10):
            assert g.start_angle(s) == pytest.approx(s / 10)

    def test_skew_offsets_consecutive_tracks(self):
        g = two_zone_geometry()
        # track 1 (in-zone index 1): sector 0 sits at angle 2/10
        assert g.start_angle(10) == pytest.approx(0.2)
        # track 2: angle 4/10
        assert g.start_angle(20) == pytest.approx(0.4)

    def test_skew_wraps_modulo_track(self):
        g = two_zone_geometry()
        # track 5 of zone 0: skew*5 = 10 = 0 mod 10
        assert g.start_angle(50) == pytest.approx(0.0)

    def test_zone1_skew(self):
        g = two_zone_geometry()
        assert g.start_angle(60) == pytest.approx(0.0)
        assert g.start_angle(68) == pytest.approx(1 / 8)


class TestVectorised:
    def test_decompose_matches_scalar(self):
        g = two_zone_geometry()
        lbns = np.arange(g.n_lbns)
        zi, track, sector, spt, angle = g.decompose(lbns)
        for i, lbn in enumerate(lbns):
            assert zi[i] == g.zone_index_of_lbn(int(lbn))
            assert track[i] == g.track_of(int(lbn))
            assert sector[i] == g.sector_of(int(lbn))
            assert angle[i] == pytest.approx(g.start_angle(int(lbn)))

    def test_track_first_lbns(self):
        g = two_zone_geometry()
        tracks = np.arange(g.n_tracks)
        out = g.track_first_lbns(tracks)
        expected = [g.track_first_lbn(int(t)) for t in tracks]
        np.testing.assert_array_equal(out, expected)

    def test_lbns_from_roundtrip(self):
        g = two_zone_geometry()
        lbns = np.arange(g.n_lbns)
        _, track, sector, _, _ = g.decompose(lbns)
        np.testing.assert_array_equal(g.lbns_from(track, sector), lbns)

    def test_decompose_rejects_out_of_range(self):
        g = two_zone_geometry()
        with pytest.raises(GeometryError):
            g.decompose(np.array([g.n_lbns]))


class TestPaperScaleModels:
    def test_atlas_d_parameters(self, atlas_model):
        geom = atlas_model.geometry
        mech = atlas_model.mechanics
        # R * C = 128, the D the paper uses for both disks
        assert geom.surfaces * mech.settle_cylinders == 128

    def test_cheetah_d_parameters(self, cheetah_model):
        geom = cheetah_model.geometry
        mech = cheetah_model.mechanics
        assert geom.surfaces * mech.settle_cylinders == 128

    def test_capacities_near_36_7_gb(self, atlas_model, cheetah_model):
        for m in (atlas_model, cheetah_model):
            assert 35e9 < m.capacity_bytes < 40e9

    def test_track_lengths_decrease_inward(self, atlas_model):
        spts = [z.sectors_per_track for z in atlas_model.geometry.zones]
        assert spts == sorted(spts, reverse=True)

    def test_skew_exceeds_settle_rotation(self, atlas_model):
        mech = atlas_model.mechanics
        for z in atlas_model.geometry.zones:
            settle_sectors = (
                z.sectors_per_track * mech.settle_ms / mech.rotation_ms
            )
            assert z.skew_sectors >= settle_sectors

    @given(lbn=st.integers(min_value=0))
    @settings(max_examples=200, deadline=None)
    def test_property_roundtrip_atlas(self, atlas_model, lbn):
        g = atlas_model.geometry
        lbn = lbn % g.n_lbns
        track = g.track_of(lbn)
        sector = g.sector_of(lbn)
        assert g.lbn(track, sector) == lbn
        lo, hi = g.track_boundaries(lbn)
        assert lo <= lbn < hi
        assert hi - lo == g.track_length(track)
