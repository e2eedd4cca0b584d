"""Run-to-run diffing: tolerance bands, floors, and regressions."""

import copy

import pytest

from repro.errors import MonitorError
from repro.monitor import diff_runs, render_diff


def report(**overrides):
    """A small exported-report payload in the dashboard shape."""
    data = {
        "dataset": {"layout": "multimap", "shape": [24, 12, 12]},
        "makespan_ms": 400.0,
        "throughput_qps": 25.0,
        "phase_ms": {"service": 300.0, "plan": 40.0},
        "monitor": {
            "summary": {
                "queries": 10,
                "latency_ms": {"p50": 30.0, "p99": 80.0},
            },
            "windows": [
                {"w": 0, "qps": 40.0, "p99_ms": 60.0},
                {"w": 1, "qps": 20.0, "p99_ms": 90.0},
            ],
            "alerts": [],
            "health": {"state": "healthy", "transitions": []},
        },
    }
    data.update(overrides)
    return data


def perturb(path, value):
    """A report with one dotted ``path`` replaced by ``value``."""
    data = report()
    node = data
    keys = path.split(".")
    for key in keys[:-1]:
        node = node[int(key)] if key.isdigit() else node[key]
    last = keys[-1]
    node[int(last) if last.isdigit() else last] = value
    return data


class TestCleanDiffs:
    def test_identical_runs_have_no_regressions(self):
        out = diff_runs(report(), copy.deepcopy(report()))
        assert out["regressions"] == []
        assert out["totals"]["makespan_ms"]["delta"] == 0.0
        assert out["windows"]["flagged"] == []

    def test_improvements_never_flag(self):
        faster = perturb("makespan_ms", 200.0)
        faster["throughput_qps"] = 50.0
        assert diff_runs(report(), faster)["regressions"] == []

    def test_within_tolerance_is_clean(self):
        out = diff_runs(report(), perturb("makespan_ms", 430.0),
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

    def test_monitorless_reports_still_diff(self):
        base = report()
        del base["monitor"]
        out = diff_runs(base, copy.deepcopy(base))
        assert out["regressions"] == []
        assert "quantiles" not in out


class TestRegressions:
    def test_makespan_regression_flags(self):
        out = diff_runs(report(), perturb("makespan_ms", 480.0))
        assert out["totals"]["makespan_ms"]["regressed"] is True
        assert any(r.startswith("makespan_ms") for r in
                   out["regressions"])

    def test_throughput_drop_flags(self):
        out = diff_runs(report(), perturb("throughput_qps", 15.0))
        assert any(r.startswith("throughput_qps") for r in
                   out["regressions"])

    def test_quantile_regression_flags(self):
        cur = report()
        cur["monitor"]["summary"]["latency_ms"]["p99"] = 200.0
        out = diff_runs(report(), cur)
        assert any("latency.p99" in r for r in out["regressions"])

    def test_window_p99_regression_names_the_window(self):
        cur = report()
        cur["monitor"]["windows"][1]["p99_ms"] = 300.0
        out = diff_runs(report(), cur)
        assert out["windows"]["flagged"] == [
            {"w": 1, "why": ["p99_ms: 90 -> 300 (+210)"]}]
        assert "window 1: p99_ms: 90 -> 300 (+210)" in \
            out["regressions"]

    def test_new_alerts_flag(self):
        cur = report()
        cur["monitor"]["alerts"] = [{"rule": "burn_rate"}] * 2
        out = diff_runs(report(), cur)
        assert any(r.startswith("alerts") for r in out["regressions"])

    def test_health_departure_from_healthy_flags(self):
        cur = report()
        cur["monitor"]["health"]["state"] = "degraded"
        out = diff_runs(report(), cur)
        assert "health: healthy -> degraded" in out["regressions"]

    def test_tighter_tolerance_catches_more(self):
        cur = perturb("makespan_ms", 430.0)
        assert diff_runs(report(), cur,
                         tolerance=0.1)["regressions"] == []
        assert diff_runs(report(), cur,
                         tolerance=0.05)["regressions"]


class TestValidation:
    def test_non_dict_inputs_rejected(self):
        with pytest.raises(MonitorError, match="report dicts"):
            diff_runs([], report())

    def test_negative_tolerance_rejected(self):
        with pytest.raises(MonitorError, match="tolerance"):
            diff_runs(report(), report(), tolerance=-0.1)

    @pytest.mark.parametrize("tolerance", [float("nan"), float("inf")])
    def test_non_finite_tolerance_rejected(self, tolerance):
        # a NaN band compares false everywhere: 100 -> 900 ms would
        # pass as "no regressions"
        with pytest.raises(MonitorError, match="tolerance must be finite"):
            diff_runs(report(makespan_ms=100.0),
                      report(makespan_ms=900.0), tolerance=tolerance)

    def test_non_numeric_metric_names_the_field(self):
        with pytest.raises(MonitorError,
                           match=r"current\.makespan_ms must be a number"):
            diff_runs(report(), perturb("makespan_ms", "abc"))

    def test_non_mapping_phase_totals_name_the_field(self):
        with pytest.raises(MonitorError,
                           match=r"base\.phase_ms must be a mapping"):
            diff_runs(report(phase_ms=[1, 2]), report())

    def test_null_sections_still_read_as_absent(self):
        base = report(phase_ms=None, monitor=None)
        out = diff_runs(base, report(phase_ms=None))
        assert out["phase_ms"] == {} and "quantiles" not in out

    def test_nested_monitor_field_is_named(self):
        with pytest.raises(MonitorError,
                           match=r"current\.monitor\.windows\[1\]\.qps"):
            diff_runs(report(), perturb("monitor.windows.1.qps", "fast"))


class TestRender:
    def test_clean_diff_renders(self):
        text = render_diff(diff_runs(report(), copy.deepcopy(report())))
        assert "no regressions beyond tolerance 0.1" in text
        assert "REGRESSED" not in text
        assert "health: healthy -> healthy" in text

    def test_regressed_diff_renders(self):
        out = diff_runs(report(), perturb("makespan_ms", 480.0))
        text = render_diff(out)
        assert "REGRESSED" in text
        assert "1 regression(s) beyond tolerance 0.1" in text
