"""Regression attribution: suspect ranking over exported reports."""

import pytest

from repro.errors import ExplainError
from repro.explain import attribute_runs, render_attribution


def _report(*, phase=None, busy=None, slowest=None, monitor=None):
    data = {"dataset": {"layout": "multimap"}}
    data["phase_ms"] = phase or {}
    if busy is not None:
        data["utilization"] = {"bin_ms": 10.0, "busy": busy}
    if slowest is not None:
        data["slowest"] = slowest
    if monitor is not None:
        data["monitor"] = monitor
    return data


class TestAttributeRuns:
    def test_identical_runs_have_zero_suspects(self):
        base = _report(phase={"service": 100.0, "prepare": 1.0},
                       busy={"0": [0.5, 0.6]})
        out = attribute_runs(base, base)
        assert out["suspects"] == []
        assert "no suspects" in out["summary"]

    def test_phase_growth_is_localized(self):
        base = _report(phase={"service": 100.0, "cache": 10.0})
        cur = _report(phase={"service": 150.0, "cache": 10.0})
        out = attribute_runs(base, cur)
        assert [s["name"] for s in out["suspects"]] == ["service"]
        assert out["suspects"][0]["kind"] == "phase"
        assert out["suspects"][0]["delta"] == 50.0

    def test_within_tolerance_is_clean(self):
        base = _report(phase={"service": 100.0})
        cur = _report(phase={"service": 105.0})
        assert attribute_runs(base, cur)["suspects"] == []

    def test_improvement_never_flags(self):
        base = _report(phase={"service": 150.0})
        cur = _report(phase={"service": 100.0})
        assert attribute_runs(base, cur)["suspects"] == []

    def test_hot_disk_is_named(self):
        base = _report(busy={"0": [0.4, 0.4], "1": [0.4, 0.4]})
        cur = _report(busy={"0": [0.4, 0.4], "1": [0.9, 0.9]})
        out = attribute_runs(base, cur)
        assert [s["name"] for s in out["suspects"]] == ["d1"]
        assert out["suspects"][0]["kind"] == "disk"

    def test_slowed_query_with_plan_drift(self):
        base = _report(slowest=[
            {"name": "c0#1", "dur_ms": 10.0, "cells": 64},
        ])
        cur = _report(slowest=[
            {"name": "c0#1", "dur_ms": 30.0, "cells": 128},
        ])
        out = attribute_runs(base, cur)
        suspect = out["suspects"][0]
        assert suspect["kind"] == "query"
        assert "plan shape drifted" in suspect["why"]

    def test_monitor_signals(self):
        base = _report(monitor={
            "alerts": [], "health": {"state": "healthy"},
        })
        cur = _report(monitor={
            "alerts": [{"rule": "latency_threshold"}] * 3,
            "health": {"state": "degraded"},
        })
        out = attribute_runs(base, cur)
        kinds = {s["kind"] for s in out["suspects"]}
        assert kinds == {"alerts", "health"}
        alert = next(s for s in out["suspects"]
                     if s["kind"] == "alerts")
        assert "latency_threshold" in alert["why"]

    def test_suspects_ranked_by_score(self):
        base = _report(phase={"service": 100.0, "cache": 10.0})
        cur = _report(phase={"service": 120.0, "cache": 100.0})
        out = attribute_runs(base, cur)
        scores = [s["score"] for s in out["suspects"]]
        assert scores == sorted(scores, reverse=True)
        assert out["suspects"][0]["name"] == "cache"

    def test_non_dict_inputs_raise(self):
        with pytest.raises(ExplainError):
            attribute_runs([], {})

    def test_negative_tolerance_raises(self):
        with pytest.raises(ExplainError):
            attribute_runs({}, {}, tolerance=-0.1)

    def test_nan_tolerance_raises(self):
        base = _report(phase={"service": 100.0})
        cur = _report(phase={"service": 900.0})
        with pytest.raises(ExplainError, match="tolerance must be finite"):
            attribute_runs(base, cur, tolerance=float("nan"))

    def test_query_without_duration_names_the_field(self):
        base = _report(slowest=[{"name": "c0#1", "dur_ms": 10.0}])
        cur = _report(slowest=[{"name": "c0#1"}])
        with pytest.raises(ExplainError,
                           match=r"current\.slowest\[0\] is missing "
                                 r"'dur_ms'"):
            attribute_runs(base, cur)

    def test_non_integer_disk_key_names_the_field(self):
        base = _report(busy={"0": [0.5]})
        cur = _report(busy={"x": [0.5]})
        with pytest.raises(ExplainError,
                           match=r"current\.utilization\.busy key 'x'"):
            attribute_runs(base, cur)


class TestRender:
    def test_clean_render(self):
        out = attribute_runs(_report(), _report())
        assert "no suspects" in render_attribution(out)

    def test_suspect_table_lists_why(self):
        base = _report(phase={"service": 100.0})
        cur = _report(phase={"service": 200.0})
        text = render_attribution(attribute_runs(base, cur))
        assert "service time grew" in text
