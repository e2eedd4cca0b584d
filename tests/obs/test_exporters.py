"""The Chrome trace export."""

import json

import pytest

from repro.errors import ObsError
from repro.obs import Telemetry
from repro.obs.span import Span


def traced_telemetry() -> Telemetry:
    tele = Telemetry()
    root = Span("q0", "query", 0.0, 3.0, attrs={"cells": 4}, children=(
        Span("prepare", "prepare", 0.0, 0.0),
        Span("disk 0", "service", 0.0, 3.0, attrs={"disk": 0}),
    ))
    tele.observe_query(root, advance=True)
    return tele


class TestChrome:
    def test_trace_event_schema(self):
        doc = json.loads(traced_telemetry().export())
        assert doc["displayTimeUnit"] == "ms"
        events = doc["traceEvents"]
        assert len(events) == 3
        for ev in events:
            assert ev["ph"] == "X"
            assert ev["pid"] == 1
            assert set(ev) >= {"name", "cat", "ts", "dur", "tid", "args"}
        # µs timestamps; disk-bound spans land on their drive's row
        root = next(e for e in events if e["cat"] == "query")
        svc = next(e for e in events if e["cat"] == "service")
        assert root["dur"] == 3000.0
        assert root["tid"] == 0
        assert svc["tid"] == 1

    def test_requires_tracer(self):
        tele = Telemetry(trace=False, metrics=True)
        with pytest.raises(ObsError, match="needs span traces"):
            tele.export()


class TestExportTrace:
    def test_writes_path_with_parents(self, tmp_path):
        tele = traced_telemetry()
        out = tmp_path / "deep" / "trace.json"
        text = tele.export(path=out)
        assert out.read_text() == text
