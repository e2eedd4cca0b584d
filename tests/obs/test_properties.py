"""Property suite: histogram algebra and span-tree structure.

Histograms are checked as pure data structures under hypothesis-driven
value streams; span trees are checked over real seeded executions (the
seed is the hypothesis input), pinning the structural invariants every
consumer of a trace relies on: nesting, non-negative durations, and
durations that reconcile with the reported service time.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.obs import Histogram

# make_dataset is a stateless factory (each call builds a fresh
# Dataset), so reusing it across generated inputs is sound
_fixture_ok = [HealthCheck.function_scoped_fixture]

values = st.lists(
    st.floats(min_value=0.0, max_value=1e5, allow_nan=False,
              allow_infinity=False),
    max_size=60,
)

bounds = st.lists(
    st.floats(min_value=1e-3, max_value=1e4, allow_nan=False,
              allow_infinity=False),
    min_size=1, max_size=12, unique=True,
).map(lambda bs: tuple(sorted(bs)))


def fill(bs, vals):
    h = Histogram(bs)
    for v in vals:
        h.observe(v)
    return h


class TestHistogramProperties:
    @given(bounds, values)
    @settings(max_examples=80, deadline=None)
    def test_count_equals_bucket_total(self, bs, vals):
        h = fill(bs, vals)
        assert h.count == len(vals)
        assert sum(h.counts) + h.overflow == h.count

    @given(bounds, values)
    @settings(max_examples=80, deadline=None)
    def test_quantiles_monotone_in_q(self, bs, vals):
        h = fill(bs, vals)
        qs = [h.quantile(q) for q in (0.0, 0.25, 0.5, 0.9, 0.99, 1.0)]
        assert qs == sorted(qs)

    @given(bounds, values)
    @settings(max_examples=80, deadline=None)
    def test_quantile_bounded_by_extrema_bucket(self, bs, vals):
        h = fill(bs, vals)
        if h.count:
            hi = max(h.max, h.bounds[-1])
            # the linear interpolation may overshoot hi by one ulp
            assert h.quantile(1.0) <= hi * (1 + 1e-12) + 1e-12

class TestQuantileCdfProperties:
    """Quantiles at arbitrary q, interpolated within buckets."""

    @given(bounds, values,
           st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    @settings(max_examples=80, deadline=None)
    def test_quantile_accepts_arbitrary_q(self, bs, vals, q):
        h = fill(bs, vals)
        v = h.quantile(q)
        assert v >= 0.0
        assert h.quantile(0.0) <= v * (1 + 1e-12) + 1e-12

    @given(st.floats(min_value=1.0, max_value=1e4, allow_nan=False),
           st.integers(min_value=1, max_value=40),
           st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    @settings(max_examples=80, deadline=None)
    def test_single_bucket_interpolates_linearly(self, b, n, q):
        h = fill((b,), [b * 0.5] * n)
        # all mass in (0, b]: the interpolated q-quantile is b*q
        assert h.quantile(q) == pytest.approx(b * q)

    @given(bounds, values)
    @settings(max_examples=40, deadline=None)
    def test_percentiles_labels_and_monotonicity(self, bs, vals):
        h = fill(bs, vals)
        summary = h.percentiles(qs=(0.10, 0.50, 0.90))
        assert list(summary) == ["p10", "p50", "p90"]
        got = list(summary.values())
        assert got == sorted(got)
        assert summary["p50"] == h.quantile(0.5)


class TestSpanTreeProperties:
    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=12, deadline=None,
              suppress_health_check=_fixture_ok)
    def test_batch_trees_nest_and_reconcile(self, make_dataset, seed):
        ds = make_dataset(seed=seed).with_telemetry()
        report = ds.random_beams(axis=1, n=3).run()
        roots = ds.telemetry.tracer.roots
        assert len(roots) == len(report.records)
        for root, rec in zip(roots, report.records):
            for span in root.walk():
                assert span.dur_ms >= 0.0
                for child in span.children:
                    assert child.t0_ms >= span.t0_ms - 1e-9
                    assert child.t1_ms <= span.t1_ms + 1e-9
            # phase durations sum to the reported service time
            assert sum(
                c.dur_ms for c in root.children
            ) == pytest.approx(rec.result.total_ms)

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=8, deadline=None,
              suppress_health_check=_fixture_ok)
    def test_traffic_trees_nest_within_latency(self, make_dataset, seed):
        ds = make_dataset(seed=seed).with_shards(2).with_telemetry()
        report = ds.traffic().clients(2, queries=3).slice_runs(8).run()
        by_name = {r.name: r for r in ds.telemetry.tracer.roots}
        for trace in report.traces:
            root = by_name[f"{trace.client}#{trace.index}"]
            for span in root.walk():
                assert span.t0_ms >= root.t0_ms - 1e-9
                assert span.t1_ms <= root.t1_ms + 1e-9
            svc = sum(
                s.dur_ms for s in root.walk()
                if s.cat in ("service", "flush")
            )
            assert svc == pytest.approx(trace.service_ms)
