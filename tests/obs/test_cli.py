"""The ``trace`` subcommand and the exporter listing."""

import json

import pytest

from repro.bench.cli import main

TRACE_QUICK = [
    "trace", "--shape", "24,12,12", "--clients", "2",
    "--queries", "3", "--drive", "minidrive",
]


class TestListExporters:
    def test_lists_builtins(self, capsys):
        assert main(["--list-exporters"]) == 0
        out = capsys.readouterr().out
        assert "registered trace exporters:" in out
        for name in ("jsonl", "chrome", "prometheus"):
            assert name in out

    def test_combines_with_other_listings(self, capsys):
        assert main(["--list-exporters", "--list-costs"]) == 0
        out = capsys.readouterr().out
        assert "registered dominant-cost classes:" in out
        assert "registered trace exporters:" in out


class TestTraceCommand:
    def test_renders_summary(self, capsys):
        assert main(TRACE_QUICK + ["--top", "2", "--bins", "8"]) == 0
        out = capsys.readouterr().out
        assert "slowest 2 queries" in out
        assert "phase totals (ms):" in out
        assert "disk utilization" in out

    def test_quiet_suppresses_table(self, capsys):
        assert main(TRACE_QUICK + ["--quiet"]) == 0
        assert capsys.readouterr().out == ""

    def test_export_to_stdout(self, capsys):
        assert main(TRACE_QUICK + ["--quiet", "--export", "jsonl"]) == 0
        out = capsys.readouterr().out
        rows = [json.loads(line) for line in out.splitlines()]
        assert rows and rows[0]["id"] == 0

    def test_export_to_file(self, tmp_path, capsys):
        dest = tmp_path / "trace.json"
        assert main(TRACE_QUICK + [
            "--export", "chrome", "--trace-out", str(dest),
        ]) == 0
        doc = json.loads(dest.read_text())
        assert doc["displayTimeUnit"] == "ms"
        assert doc["traceEvents"]
        assert f"wrote chrome trace to {dest}" in capsys.readouterr().out

    def test_json_report(self, tmp_path, capsys):
        dest = tmp_path / "report.json"
        assert main(TRACE_QUICK + [
            "--quiet", "--json", str(dest),
        ]) == 0
        data = json.loads(dest.read_text())
        assert data["obs"]["trace"]["n_queries"] == 6
        assert data["slowest"]
        assert data["utilization"]["busy"]

    @pytest.mark.parametrize("top", ["0", "-3", "two"])
    def test_rejects_non_positive_top(self, top, capsys):
        with pytest.raises(SystemExit) as exc:
            main(TRACE_QUICK + ["--top", top])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--top" in err

    def test_top_one_is_accepted(self, capsys):
        assert main(TRACE_QUICK + ["--top", "1"]) == 0
        assert "slowest 1 queries" in capsys.readouterr().out

    def test_sharded_trace(self, capsys):
        assert main([
            "trace", "--shape", "24,12,12", "--clients", "2",
            "--queries", "3", "--drive", "minidrive",
            "--layout", "zorder", "--arrival", "poisson",
            "--rate", "100", "--bins", "6",
        ]) == 0
        assert "zorder" in capsys.readouterr().out
