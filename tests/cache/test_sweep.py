"""The cache sweep and the locality dividend it demonstrates."""

import pytest

from repro.cache import overlapping_beams, render_cache_sweep, run_cache_sweep

QUICK = dict(
    shape=(120, 16, 16),
    capacities=(12288, 24576),
    prefetch="track",
    n_beams=16,
    repeats=3,
    axes=(1,),
    region_frac=0.4,
    drive="minidrive",
    seed=42,
)


@pytest.fixture(scope="module")
def sweep_data():
    return run_cache_sweep(**QUICK)


class TestOverlappingBeams:
    def test_deterministic(self):
        a = overlapping_beams((120, 16, 16), seed=7)
        b = overlapping_beams((120, 16, 16), seed=7)
        assert a == b
        assert a != overlapping_beams((120, 16, 16), seed=8)

    def test_anchors_inside_region(self):
        shape = (120, 16, 16)
        for q in overlapping_beams(shape, n_beams=32, axes=(1,),
                                   region_frac=0.25, seed=3):
            assert q.axis == 1
            for d, v in enumerate(q.fixed):
                if d != q.axis:
                    assert 0 <= v < max(1, int(shape[d] * 0.25))

    def test_axes_cycle(self):
        qs = overlapping_beams((120, 16, 16), n_beams=4, axes=(0, 2),
                               seed=1)
        assert [q.axis for q in qs] == [0, 2, 0, 2]


class TestSweepStructure:
    def test_layout_and_capacity_keys(self, sweep_data):
        for layout in ("naive", "zorder", "hilbert", "multimap"):
            assert set(sweep_data[layout]) == set(QUICK["capacities"])
        meta = sweep_data["meta"]
        assert meta["policy"] == "lru"
        assert meta["prefetch"] == "track"
        assert meta["capacities"] == list(QUICK["capacities"])

    def test_cells_carry_stats(self, sweep_data):
        cell = sweep_data["multimap"][12288]
        assert 0.0 <= cell["hit_ratio"] <= 1.0
        assert cell["total_ms"] > 0
        assert cell["occupancy"] <= 12288

    def test_capacity_zero_is_uncached_baseline(self):
        data = run_cache_sweep(
            (24, 12, 12), layouts=("naive",), capacities=(0,),
            n_beams=4, repeats=2, axes=(1,), drive="minidrive", seed=5,
        )
        cell = data["naive"][0]
        assert cell["hit_ratio"] == 0.0
        assert cell["occupancy"] == 0

    def test_render_mentions_layouts_and_caps(self, sweep_data):
        text = render_cache_sweep(sweep_data)
        assert "multimap" in text and "cap 12288" in text
        assert "hit ratio" in text


class TestLocalityDividend:
    """The PR's acceptance claim, pinned at quick scale."""

    def test_multimap_ge_everyone_everywhere(self, sweep_data):
        for cap in QUICK["capacities"]:
            mm = sweep_data["multimap"][cap]["hit_ratio"]
            for layout in ("naive", "zorder", "hilbert"):
                assert mm >= sweep_data[layout][cap]["hit_ratio"], (
                    layout, cap)

    def test_multimap_strictly_beats_best_sfc(self, sweep_data):
        beaten = []
        for cap in QUICK["capacities"]:
            mm = sweep_data["multimap"][cap]["hit_ratio"]
            best_sfc = max(sweep_data["zorder"][cap]["hit_ratio"],
                           sweep_data["hilbert"][cap]["hit_ratio"])
            beaten.append(mm > best_sfc)
        assert any(beaten), "no capacity where multimap strictly wins"

    def test_sweep_is_deterministic(self):
        small = dict(QUICK, capacities=(12288,),
                     layouts=("naive", "multimap"))
        assert run_cache_sweep(**small) == run_cache_sweep(**small)
