"""The perf sweep, its regression gate, and the CLI wiring."""

import json

import pytest

from repro.bench.cli import main
from repro.errors import BenchmarkError
from repro.perf.sweep import check_perf, render_perf_sweep, run_perf_sweep

SWEEP_ARGS = dict(
    layouts=("naive", "multimap"),
    drive="minidrive",
    n_beams=2,
    n_ranges=1,
    full_ranges=1,
    repeats=1,
    ref_plans=3,
    ref_cell_cap=2048,
    seed=42,
)


@pytest.fixture(scope="module")
def sweep_data():
    return run_perf_sweep((16, 8, 8), **SWEEP_ARGS)


def test_sweep_metrics_per_layout(sweep_data):
    for layout in ("naive", "multimap"):
        row = sweep_data[layout]
        assert row["n_plans"] == 4
        assert row["plans_per_s"] > 0
        assert row["cells_per_s"] > 0
        assert 0 < row["prep_share"] < 1
        assert row["ref_plans"] == 3
        assert row["speedup_vs_reference"] > 0
    meta = sweep_data["meta"]
    assert meta["shape"] == [16, 8, 8]
    assert meta["seed"] == 42
    assert "memo" in meta


def test_render_lists_every_layout(sweep_data):
    table = render_perf_sweep(sweep_data)
    assert "naive" in table
    assert "multimap" in table
    assert "speedup vs ref" in table


def test_check_against_itself_is_clean(sweep_data):
    assert check_perf(sweep_data, sweep_data) == []


def test_check_flags_regressions(sweep_data):
    inflated = json.loads(json.dumps(sweep_data))
    inflated["naive"]["speedup_vs_reference"] *= 1000
    inflated["naive"]["plans_per_s"] *= 1000
    violations = check_perf(sweep_data, inflated)
    assert any("speedup_vs_reference" in v for v in violations)
    assert any("plans_per_s" in v for v in violations)
    assert all(v.startswith("naive:") for v in violations)


def test_check_flags_missing_layout(sweep_data):
    baseline = json.loads(json.dumps(sweep_data))
    baseline["hilbert"] = baseline["naive"]
    violations = check_perf(sweep_data, baseline)
    assert violations == ["hilbert: missing from this sweep"]


def test_check_names_a_missing_baseline_field(sweep_data):
    baseline = json.loads(json.dumps(sweep_data))
    del baseline["naive"]["speedup_vs_reference"]
    with pytest.raises(BenchmarkError,
                       match=r"baseline\.naive is missing "
                             r"'speedup_vs_reference'"):
        check_perf(sweep_data, baseline)


def test_check_rejects_a_list_baseline(sweep_data):
    with pytest.raises(BenchmarkError, match="baseline must be a mapping"):
        check_perf(sweep_data, [sweep_data])


def test_check_rejects_bad_tolerances(sweep_data):
    with pytest.raises(BenchmarkError):
        check_perf(sweep_data, sweep_data, tolerance=1.0)
    with pytest.raises(BenchmarkError):
        check_perf(sweep_data, sweep_data, throughput_tolerance=-0.1)


def test_sweep_rejects_bad_params():
    with pytest.raises(BenchmarkError):
        run_perf_sweep((8, 8), layouts=("naive",), drive="minidrive",
                       repeats=0)
    with pytest.raises(BenchmarkError, match="ref_cell_cap"):
        run_perf_sweep((8, 8), layouts=("naive",), drive="minidrive",
                       n_beams=1, n_ranges=0, full_ranges=0, repeats=1,
                       ref_cell_cap=0)


CLI_ARGS = [
    "perf", "--shape", "16,8,8", "--layouts", "naive,multimap",
    "--drive", "minidrive", "--beams", "2", "--ranges", "1",
    "--full-ranges", "1", "--repeats", "1", "--ref-plans", "3",
    "--ref-cell-cap", "2048",
]


def test_cli_perf_writes_json(tmp_path, capsys):
    out = tmp_path / "perf.json"
    assert main([*CLI_ARGS, "--json", str(out)]) == 0
    data = json.loads(out.read_text())
    assert "naive" in data and "multimap" in data
    assert "speedup vs ref" in capsys.readouterr().out


def test_cli_perf_check_names_an_unreadable_baseline(tmp_path):
    missing = tmp_path / "missing.json"
    with pytest.raises(BenchmarkError, match="missing.json"):
        main([*CLI_ARGS, "--quiet", "--check", str(missing)])
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    with pytest.raises(BenchmarkError, match="garbled.json is not JSON"):
        main([*CLI_ARGS, "--quiet", "--check", str(garbled)])


def test_cli_perf_check_pass_and_fail(tmp_path, capsys, monkeypatch,
                                      sweep_data):
    """The CLI wiring of ``--check``, on one fixed report so no timing
    is involved: a clean baseline exits 0; a baseline whose speedup the
    report falls far short of exits 1 and names the metric.  The band
    rule itself is covered by the ``check_perf`` tests above."""
    shapes = []

    def fixed_sweep(shape, **kwargs):
        shapes.append(shape)
        return sweep_data

    monkeypatch.setattr("repro.perf.run_perf_sweep", fixed_sweep)
    baseline = tmp_path / "base.json"
    assert main([*CLI_ARGS, "--quiet", "--json", str(baseline)]) == 0
    assert main([*CLI_ARGS, "--quiet", "--check", str(baseline)]) == 0

    doctored = json.loads(baseline.read_text())
    doctored["naive"]["speedup_vs_reference"] *= 1000
    baseline.write_text(json.dumps(doctored))
    capsys.readouterr()
    assert main([*CLI_ARGS, "--quiet", "--check", str(baseline)]) == 1
    out = capsys.readouterr().out
    assert "perf check FAILED" in out
    assert "speedup_vs_reference" in out
    assert shapes == [(16, 8, 8)] * 3
