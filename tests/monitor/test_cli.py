"""The ``dashboard`` and ``diff`` bench subcommands."""

import json

import pytest

from repro.bench.cli import main
from repro.errors import MonitorError

DASH_QUICK = ["dashboard", "--shape", "16,8,8", "--drive", "minidrive",
              "--clients", "2", "--queries", "3", "--seed", "11"]
STORM = ["dashboard", "--shape", "24,12,12", "--drive", "minidrive",
         "--clients", "2", "--queries", "4", "--shards", "2", "--k", "2",
         "--kill-at", "40", "--revive-at", "160", "--seed", "11"]


def export(tmp_path, name, argv):
    dest = tmp_path / name
    assert main(argv + ["--json", str(dest), "--quiet"]) == 0
    return dest


class TestDashboard:
    def test_renders_sparklines_and_health(self, capsys):
        assert main(DASH_QUICK) == 0
        out = capsys.readouterr().out
        assert "qps" in out
        assert "p99 ms" in out
        assert "health: healthy" in out

    def test_json_export_carries_monitor(self, tmp_path):
        data = json.loads(export(
            tmp_path, "run.json", DASH_QUICK).read_text())
        assert data["monitor"]["n_windows"] >= 1
        assert data["throughput_qps"] > 0.0

    def test_storm_renders_alerts_and_transitions(
            self, tmp_path, capsys):
        assert main(STORM) == 0
        out = capsys.readouterr().out
        assert "degraded_capacity" in out
        assert "healthy -> degraded" in out

    def test_rejects_bad_arrival(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(DASH_QUICK + ["--arrival", "chaotic"])
        assert exc.value.code == 2

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in ("burn_rate", "degraded_capacity",
                     "latency_threshold", "queue_saturation"):
            assert rule in out


class TestDiff:
    def test_same_seed_runs_diff_clean(self, tmp_path, capsys):
        a = export(tmp_path, "a.json", DASH_QUICK)
        b = export(tmp_path, "b.json", DASH_QUICK)
        assert a.read_bytes() == b.read_bytes()
        assert main(["diff", str(a), str(b)]) == 0
        assert "no regressions" in capsys.readouterr().out

    def test_regression_exits_nonzero(self, tmp_path, capsys):
        a = export(tmp_path, "a.json", DASH_QUICK)
        data = json.loads(a.read_text())
        data["makespan_ms"] *= 2.0
        b = tmp_path / "b.json"
        b.write_text(json.dumps(data))
        assert main(["diff", str(a), str(b)]) == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_tolerance_flag_loosens_the_band(self, tmp_path):
        a = export(tmp_path, "a.json", DASH_QUICK)
        data = json.loads(a.read_text())
        data["makespan_ms"] *= 1.2
        b = tmp_path / "b.json"
        b.write_text(json.dumps(data))
        assert main(["diff", str(a), str(b)]) == 1
        assert main(["diff", str(a), str(b),
                     "--tolerance", "0.5"]) == 0

    def test_missing_report_names_the_file(self, tmp_path):
        a = export(tmp_path, "a.json", DASH_QUICK)
        missing = tmp_path / "missing.json"
        with pytest.raises(MonitorError, match="missing.json"):
            main(["diff", str(missing), str(a)])

    def test_non_json_report_names_the_file(self, tmp_path):
        a = export(tmp_path, "a.json", DASH_QUICK)
        garbled = tmp_path / "garbled.json"
        garbled.write_text("makespan 100 ms")
        with pytest.raises(MonitorError, match="garbled.json is not JSON"):
            main(["diff", str(a), str(garbled)])

    def test_nan_tolerance_is_rejected(self, tmp_path):
        data = json.loads(export(tmp_path, "run.json", DASH_QUICK)
                          .read_text())
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text(json.dumps(dict(data, makespan_ms=100.0)))
        b.write_text(json.dumps(dict(data, makespan_ms=900.0)))
        assert main(["diff", str(a), str(b)]) == 1
        with pytest.raises(MonitorError, match="tolerance must be finite"):
            main(["diff", str(a), str(b), "--tolerance", "nan"])

    def test_json_export(self, tmp_path):
        a = export(tmp_path, "a.json", DASH_QUICK)
        dest = tmp_path / "diff.json"
        assert main(["diff", str(a), str(a), "--json", str(dest),
                     "--quiet"]) == 0
        assert json.loads(dest.read_text())["regressions"] == []
