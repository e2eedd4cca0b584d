"""Tests for space-filling-curve codes: correctness and curve properties."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MappingError
from repro.mappings import curves


def full_grid(dims):
    from repro.mappings.base import enumerate_box

    return enumerate_box([0] * len(dims), dims)


class TestBitsFor:
    def test_power_of_two(self):
        assert curves.bits_for((8, 8)) == 3

    def test_non_power(self):
        assert curves.bits_for((9, 4)) == 4

    def test_single_cell(self):
        assert curves.bits_for((1, 1)) == 1

    def test_mixed(self):
        assert curves.bits_for((1024, 2, 3)) == 10


class TestMorton:
    def test_known_2d_sequence(self):
        # Z pattern over 4x4, dim0 least significant
        coords = full_grid((4, 4))
        codes = curves.morton_encode(coords, 2)
        expected = [0, 1, 4, 5, 2, 3, 6, 7, 8, 9, 12, 13, 10, 11, 14, 15]
        assert codes.tolist() == expected

    def test_dim0_toggles_first(self):
        codes = curves.morton_encode(np.array([[0, 0], [1, 0]]), 3)
        assert codes[1] - codes[0] == 1

    def test_roundtrip_3d(self):
        coords = full_grid((8, 8, 8))
        codes = curves.morton_encode(coords, 3)
        back = curves.morton_decode(codes, 3, 3)
        np.testing.assert_array_equal(back, coords)

    def test_bijective(self):
        codes = curves.morton_encode(full_grid((4, 4, 4)), 2)
        assert sorted(codes.tolist()) == list(range(64))

    def test_rejects_overflow_coordinate(self):
        with pytest.raises(MappingError):
            curves.morton_encode(np.array([[4, 0]]), 2)

    def test_rejects_negative(self):
        with pytest.raises(MappingError):
            curves.morton_encode(np.array([[-1, 0]]), 2)

    def test_rejects_wide_codes(self):
        with pytest.raises(MappingError):
            curves.morton_encode(np.zeros((1, 8), dtype=np.int64), 8)

    @given(
        x=st.integers(min_value=0, max_value=1023),
        y=st.integers(min_value=0, max_value=1023),
        z=st.integers(min_value=0, max_value=1023),
    )
    @settings(max_examples=100, deadline=None)
    def test_property_roundtrip(self, x, y, z):
        c = np.array([[x, y, z]])
        code = curves.morton_encode(c, 10)
        np.testing.assert_array_equal(
            curves.morton_decode(code, 3, 10), c
        )


class TestGray:
    def test_bijective(self):
        ranks = curves.gray_rank(full_grid((4, 4, 4)), 2)
        assert sorted(ranks.tolist()) == list(range(64))

    def test_roundtrip(self):
        coords = full_grid((8, 8))
        ranks = curves.gray_rank(coords, 3)
        np.testing.assert_array_equal(
            curves.gray_unrank(ranks, 2, 3), coords
        )

    def test_single_bit_steps(self):
        """Defining property: consecutive curve cells differ in exactly
        one bit of the interleaved coordinates."""
        cells = curves.gray_unrank(np.arange(64), 3, 2)
        m = curves.morton_encode(cells, 2)
        diffs = m[1:] ^ m[:-1]
        assert all(bin(int(d)).count("1") == 1 for d in diffs)


class TestHilbert:
    @pytest.mark.parametrize("n_dims,bits", [(2, 3), (3, 2), (4, 2)])
    def test_bijective(self, n_dims, bits):
        dims = (1 << bits,) * n_dims
        codes = curves.hilbert_encode(full_grid(dims), bits)
        assert sorted(codes.tolist()) == list(range(np.prod(dims)))

    @pytest.mark.parametrize("n_dims,bits", [(2, 3), (3, 2), (3, 3), (4, 2)])
    def test_unit_steps(self, n_dims, bits):
        """Defining property: consecutive curve positions are cells at L1
        distance exactly 1."""
        n = (1 << bits) ** n_dims
        cells = curves.hilbert_decode(np.arange(n), n_dims, bits)
        d = np.abs(np.diff(cells, axis=0)).sum(axis=1)
        assert set(d.tolist()) == {1}

    def test_roundtrip(self):
        coords = full_grid((8, 8, 8))
        codes = curves.hilbert_encode(coords, 3)
        np.testing.assert_array_equal(
            curves.hilbert_decode(codes, 3, 3), coords
        )

    def test_one_dimensional_is_identity(self):
        coords = np.arange(16)[:, None]
        np.testing.assert_array_equal(
            curves.hilbert_encode(coords, 4), np.arange(16)
        )

    def test_rejects_overflow(self):
        with pytest.raises(MappingError):
            curves.hilbert_encode(np.array([[8, 0]]), 3)

    @given(
        pts=st.lists(
            st.tuples(
                st.integers(0, 31), st.integers(0, 31), st.integers(0, 31)
            ),
            min_size=1,
            max_size=20,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_property_roundtrip(self, pts):
        coords = np.array(pts, dtype=np.int64)
        codes = curves.hilbert_encode(coords, 5)
        np.testing.assert_array_equal(
            curves.hilbert_decode(codes, 3, 5), coords
        )

    def test_clustering_beats_morton(self):
        """Hilbert needs no more clusters (runs of consecutive curve
        positions) than Morton for square regions — Moon et al.'s
        clustering result, which the paper's measurements confirm."""

        def clusters(codes):
            codes = np.sort(codes)
            return 1 + int((np.diff(codes) != 1).sum())

        side = 32
        total_h = total_m = 0
        for ox in range(0, side - 8, 5):
            for oy in range(0, side - 8, 5):
                box = np.array(
                    [
                        [x, y]
                        for y in range(oy, oy + 8)
                        for x in range(ox, ox + 8)
                    ]
                )
                total_h += clusters(curves.hilbert_encode(box, 5))
                total_m += clusters(curves.morton_encode(box, 5))
        assert total_h <= total_m


BOX_ENCODERS = [
    (curves.morton_encode_box, curves.morton_encode),
    (curves.gray_rank_box, curves.gray_rank),
    (curves.hilbert_encode_box, curves.hilbert_encode),
]
BOX_IDS = ["morton", "gray", "hilbert"]


def assert_box_matches(box, encode, lo, hi, bits):
    from repro.mappings.base import enumerate_box

    got = box(lo, hi, bits)
    want = encode(enumerate_box(lo, hi), bits)
    assert got.dtype == np.int64
    assert got.shape == want.shape
    assert np.array_equal(got, want)


@st.composite
def grid_boxes(draw):
    """A 1- to 6-D grid (size-1 axes and non-powers of two included),
    its bit width, and a box inside it."""
    n_dims = draw(st.integers(1, 6))
    top = (17, 9, 7, 5, 4, 3)[n_dims - 1]
    dims = draw(st.tuples(*[st.integers(1, top)] * n_dims))
    lo, hi = [], []
    for s in dims:
        a = draw(st.integers(0, s - 1))
        lo.append(a)
        hi.append(draw(st.integers(a + 1, s)))
    return tuple(lo), tuple(hi), curves.bits_for(dims)


class TestBoxEncoders:
    """The box encoders equal their per-coordinate encoder on the box's
    Dim0-fastest enumeration, bit for bit."""

    @given(case=grid_boxes())
    @settings(max_examples=300, deadline=None)
    def test_property_matches_per_coordinate(self, case):
        lo, hi, bits = case
        for box, encode in BOX_ENCODERS:
            assert_box_matches(box, encode, lo, hi, bits)

    @pytest.mark.parametrize("box, encode", BOX_ENCODERS, ids=BOX_IDS)
    @pytest.mark.parametrize("dims", [
        (32, 2, 2, 2, 2, 2, 2, 2, 8),
        (2,) * 12,
        (3, 1, 4, 1, 1, 1, 2, 1, 1, 1, 1, 5),
        (2,) * 13,
        (3, 1, 1, 2, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2),
    ], ids=lambda dims: f"{len(dims)}d")
    def test_many_dimensions(self, box, encode, dims):
        full = ((0,) * len(dims), dims)
        inner = (tuple(s // 2 for s in dims), dims)
        for lo, hi in (full, inner):
            assert_box_matches(box, encode, lo, hi, curves.bits_for(dims))

    @pytest.mark.parametrize("box, encode", BOX_ENCODERS, ids=BOX_IDS)
    def test_code_budget(self, box, encode):
        """Past the 62-bit code budget both encoders raise the same
        error; at the budget both encode."""
        cells = np.zeros((1, 8), dtype=np.int64)
        with pytest.raises(MappingError, match="62-bit") as per_cell:
            encode(cells, 8)
        with pytest.raises(MappingError, match="62-bit") as per_box:
            box((0,) * 8, (1,) * 8, 8)
        assert str(per_box.value) == str(per_cell.value)
        assert_box_matches(box, encode, (0,) * 2, (3, 5), 31)

    @pytest.mark.parametrize("box, encode", BOX_ENCODERS, ids=BOX_IDS)
    def test_rejects_what_per_coordinate_rejects(self, box, encode):
        for lo, hi, bits in [((0, 0), (5, 2), 2), ((-1, 0), (2, 2), 2)]:
            from repro.mappings.base import enumerate_box

            with pytest.raises(MappingError) as per_cell:
                encode(enumerate_box(lo, hi), bits)
            with pytest.raises(MappingError) as per_box:
                box(lo, hi, bits)
            assert str(per_box.value) == str(per_cell.value)

    @pytest.mark.parametrize("box, encode", BOX_ENCODERS, ids=BOX_IDS)
    def test_empty_box(self, box, encode):
        out = box((2, 1), (2, 3), 2)
        assert out.dtype == np.int64 and out.shape == (0,)

    @pytest.mark.parametrize("box, encode", BOX_ENCODERS, ids=BOX_IDS)
    def test_rejects_mismatched_bounds(self, box, encode):
        for lo, hi in [((0, 0), (2,)), ((), ())]:
            with pytest.raises(MappingError, match="same dims"):
                box(lo, hi, 2)

    @pytest.mark.parametrize("box, encode", BOX_ENCODERS, ids=BOX_IDS)
    @pytest.mark.parametrize("dims, lo, hi", [
        ((259, 259, 259), (3, 100, 250), (70, 141, 259)),
        ((591, 75, 25, 25), (500, 7, 0, 11), (591, 30, 25, 14)),
    ], ids=["259^3", "fig8-chunk"])
    def test_paper_scale_boxes(self, box, encode, dims, lo, hi):
        """Boxes deep inside the paper's grids reach every bit level."""
        assert_box_matches(box, encode, lo, hi, curves.bits_for(dims))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_hilbert_steps_table(self, n):
        """One row of 2**n entries per state reachable from the identity:
        n! axis orders x 2**n flip masks (the parity follows from them),
        48 in 3-D and 384 in 4-D; built once per dimension count and
        read-only, and every entry names a row."""
        states = math.factorial(n) << n
        table = curves._hilbert_steps(n)
        assert table.size == states << n
        assert not table.flags.writeable
        assert curves._hilbert_steps(n) is table
        assert ((table >> n) < states).all()
