"""Run-to-run diffing: tolerance bands, floors, and regressions."""

import copy

import pytest

from repro.bench.diff import diff_runs, render_diff
from repro.errors import DiffError


def report(**overrides):
    """A small exported-report payload in the ``trace --json`` shape."""
    data = {
        "dataset": {"layout": "multimap", "shape": [24, 12, 12]},
        "makespan_ms": 400.0,
        "throughput_qps": 25.0,
        "phase_ms": {"service": 300.0, "plan": 40.0},
    }
    data.update(overrides)
    return data


class TestCleanDiffs:
    def test_identical_runs_have_no_regressions(self):
        out = diff_runs(report(), copy.deepcopy(report()))
        assert out["regressions"] == []
        assert out["totals"]["makespan_ms"]["delta"] == 0.0

    def test_improvements_never_flag(self):
        faster = report(makespan_ms=200.0, throughput_qps=50.0)
        assert diff_runs(report(), faster)["regressions"] == []

    def test_within_tolerance_is_clean(self):
        out = diff_runs(report(), report(makespan_ms=430.0),
                        tolerance=0.1)
        assert out["regressions"] == []
        assert out["totals"]["makespan_ms"]["delta"] == 30.0

    def test_floor_suppresses_tiny_absolute_deltas(self):
        # +0.5 ms on a 1 ms phase is +50% but under the 1 ms floor
        base = report()
        base["phase_ms"]["plan"] = 1.0
        cur = copy.deepcopy(base)
        cur["phase_ms"]["plan"] = 1.5
        assert diff_runs(base, cur)["regressions"] == []


class TestRegressions:
    def test_makespan_regression_flags(self):
        out = diff_runs(report(), report(makespan_ms=480.0))
        assert out["totals"]["makespan_ms"]["regressed"] is True
        assert any(r.startswith("makespan_ms") for r in
                   out["regressions"])

    def test_throughput_drop_flags(self):
        out = diff_runs(report(), report(throughput_qps=15.0))
        assert any(r.startswith("throughput_qps") for r in
                   out["regressions"])

    def test_tighter_tolerance_catches_more(self):
        cur = report(makespan_ms=430.0)
        assert diff_runs(report(), cur,
                         tolerance=0.1)["regressions"] == []
        assert diff_runs(report(), cur,
                         tolerance=0.05)["regressions"]


class TestValidation:
    def test_non_dict_inputs_rejected(self):
        with pytest.raises(DiffError, match="report dicts"):
            diff_runs([], report())

    def test_negative_tolerance_rejected(self):
        with pytest.raises(DiffError, match="tolerance"):
            diff_runs(report(), report(), tolerance=-0.1)

    @pytest.mark.parametrize("tolerance", [float("nan"), float("inf")])
    def test_non_finite_tolerance_rejected(self, tolerance):
        # a NaN band compares false everywhere: 100 -> 900 ms would
        # pass as "no regressions"
        with pytest.raises(DiffError, match="tolerance must be finite"):
            diff_runs(report(makespan_ms=100.0),
                      report(makespan_ms=900.0), tolerance=tolerance)

    def test_non_numeric_metric_names_the_field(self):
        with pytest.raises(DiffError,
                           match=r"current\.makespan_ms must be a number"):
            diff_runs(report(), report(makespan_ms="abc"))

    def test_non_mapping_phase_totals_name_the_field(self):
        with pytest.raises(DiffError,
                           match=r"base\.phase_ms must be a mapping"):
            diff_runs(report(phase_ms=[1, 2]), report())

    def test_null_sections_still_read_as_absent(self):
        out = diff_runs(report(phase_ms=None), report(phase_ms=None))
        assert out["phase_ms"] == {} and out["regressions"] == []


class TestRender:
    def test_clean_diff_renders(self):
        text = render_diff(diff_runs(report(), copy.deepcopy(report())))
        assert "no regressions beyond tolerance 0.1" in text
        assert "REGRESSED" not in text

    def test_regressed_diff_renders(self):
        out = diff_runs(report(), report(makespan_ms=480.0))
        text = render_diff(out)
        assert "REGRESSED" in text
        assert "1 regression(s) beyond tolerance 0.1" in text
