"""MetricsRegistry and Histogram unit behaviour."""

import pytest

from repro.errors import ObsError
from repro.obs import DEFAULT_BUCKETS_MS, Histogram, MetricsRegistry


class TestHistogram:
    def test_rejects_empty_bounds(self):
        with pytest.raises(ObsError):
            Histogram(())

    def test_rejects_non_increasing_bounds(self):
        with pytest.raises(ObsError):
            Histogram((1.0, 1.0, 2.0))
        with pytest.raises(ObsError):
            Histogram((2.0, 1.0))

    def test_observe_tracks_totals(self):
        h = Histogram((1.0, 10.0))
        for v in (0.5, 3.0, 50.0):
            h.observe(v)
        assert h.count == 3
        assert h.sum == pytest.approx(53.5)
        assert h.min == 0.5
        assert h.max == 50.0
        assert h.counts == [1, 1]
        assert h.overflow == 1

    def test_empty_quantile_is_zero(self):
        h = Histogram((1.0,))
        assert h.quantile(0.5) == 0.0

    def test_quantile_validates_q(self):
        h = Histogram((1.0,))
        with pytest.raises(ObsError):
            h.quantile(1.5)
        with pytest.raises(ObsError):
            h.quantile(-0.1)

    def test_quantile_interpolates_within_bucket(self):
        # 4 values in (0, 10]: the median interpolates to the midpoint
        h = Histogram((10.0,))
        for v in (1.0, 2.0, 3.0, 4.0):
            h.observe(v)
        assert h.quantile(0.5) == pytest.approx(5.0)
        assert h.quantile(1.0) == pytest.approx(10.0)

    def test_overflow_interpolates_to_max(self):
        h = Histogram((1.0,))
        h.observe(100.0)
        assert h.quantile(1.0) == pytest.approx(100.0)

    def test_percentile_keys(self):
        h = Histogram(DEFAULT_BUCKETS_MS)
        h.observe(3.0)
        assert set(h.percentiles()) == {"p50", "p90", "p99", "p999"}

    def test_merge_requires_matching_bounds(self):
        with pytest.raises(ObsError):
            Histogram((1.0,)).merge(Histogram((2.0,)))
        with pytest.raises(ObsError):
            Histogram((1.0,)).merge("nope")

    def test_merge_combines_populations(self):
        a, b = Histogram((1.0, 10.0)), Histogram((1.0, 10.0))
        a.observe(0.5)
        b.observe(5.0)
        b.observe(99.0)
        m = a.merge(b)
        assert m.count == 3
        assert m.min == 0.5 and m.max == 99.0
        assert m.counts == [1, 1] and m.overflow == 1

    def test_merge_with_empty_side_keeps_extrema(self):
        a, b = Histogram((1.0,)), Histogram((1.0,))
        a.observe(0.25)
        assert a.merge(b).min == 0.25
        assert b.merge(a).max == 0.25

    def test_to_dict_shape(self):
        h = Histogram((1.0, 2.0))
        h.observe(1.5)
        d = h.to_dict()
        assert d["count"] == 1
        assert d["buckets"] == [[1.0, 0], [2.0, 1]]
        assert d["overflow"] == 0
        assert "p999" in d


class TestMetricsRegistry:
    def test_counters_and_timers(self):
        m = MetricsRegistry()
        m.inc("q")
        m.inc("q", 2)
        m.add_time("svc_ms", 1.25)
        snap = m.snapshot()
        assert snap == {"counters": {"q": 3}, "timers_ms": {"svc_ms": 1.25}}

    def test_snapshot_gates_gauges_and_histograms(self):
        m = MetricsRegistry()
        assert set(m.snapshot()) == {"counters", "timers_ms"}
        m.gauge("depth", 4)
        m.observe("lat_ms", 2.0)
        snap = m.snapshot()
        assert snap["gauges"] == {"depth": 4.0}
        assert snap["histograms"]["lat_ms"]["count"] == 1

    def test_observe_keeps_first_bucket_layout(self):
        m = MetricsRegistry()
        m.observe("x", 1.0, buckets=(2.0,))
        m.observe("x", 3.0, buckets=(100.0,))  # layout ignored after first
        assert m.histograms["x"].bounds == (2.0,)
        assert m.histograms["x"].overflow == 1

    def test_reset_clears_everything(self):
        m = MetricsRegistry()
        m.inc("a")
        m.gauge("g", 1)
        m.observe("h", 1.0)
        m.reset()
        assert set(m.snapshot()) == {"counters", "timers_ms"}
        assert m.snapshot()["counters"] == {}
