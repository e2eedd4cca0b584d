"""Tests for the benchmark CLI and harness plumbing."""

import json

import pytest

from repro.bench.cli import main
from repro.bench.harness import run_all
from repro.errors import DiffError


class TestCli:
    def test_single_quick_figure(self, capsys):
        rc = main(["--scale", "small", "--figure", "fig1a", "--quiet"])
        assert rc == 0

    def test_output_directory(self, tmp_path, capsys):
        rc = main([
            "--scale", "small", "--figure", "fig1b",
            "--out", str(tmp_path), "--quiet",
        ])
        assert rc == 0
        payload = json.loads((tmp_path / "fig1b.json").read_text())
        assert payload["scale"] == "small"
        assert "data" in payload

    def test_rejects_unknown_figure(self):
        with pytest.raises(SystemExit):
            main(["--figure", "nope"])

    def test_rejects_unknown_scale(self):
        with pytest.raises(SystemExit):
            main(["--scale", "huge"])

    def test_table_output_printed(self, capsys):
        main(["--scale", "small", "--figure", "fig1a"])
        out = capsys.readouterr().out
        assert "fig1a" in out


class TestRunAll:
    def test_only_filter(self, capsys, tmp_path):
        results = run_all(
            "small", out_dir=tmp_path, only=("fig1a",), quiet=True
        )
        assert set(results) == {"fig1a"}
        assert (tmp_path / "fig1a.json").exists()


CACHE_QUICK = [
    "cache", "--shape", "24,8,8", "--capacities", "0,512",
    "--layouts", "naive,multimap", "--beams", "4", "--repeats", "2",
    "--drive", "minidrive", "--quiet",
]

TRAFFIC_QUICK = [
    "traffic", "--shape", "24,8,8", "--clients", "1",
    "--queries", "3", "--layouts", "naive", "--quiet",
]


class TestCacheSubcommand:
    def test_runs_and_prints_tables(self, capsys):
        rc = main(CACHE_QUICK[:-1])  # without --quiet
        assert rc == 0
        out = capsys.readouterr().out
        assert "hit ratio" in out and "multimap" in out

    def test_json_file_output(self, tmp_path, capsys):
        dest = tmp_path / "curve.json"
        rc = main(CACHE_QUICK + ["--json", str(dest)])
        assert rc == 0
        payload = json.loads(dest.read_text())
        assert set(payload["naive"]) == {"0", "512"}
        assert payload["meta"]["prefetch"] == "track"

    def test_json_directory_output(self, tmp_path, capsys):
        rc = main(CACHE_QUICK + ["--json", str(tmp_path / "sub")])
        assert rc == 0
        assert (tmp_path / "sub" / "cache.json").exists()


SCALE_QUICK = [
    "scale", "--shape", "24,8,8", "--shards", "1,2",
    "--layouts", "naive,multimap", "--beams", "4",
    "--drive", "minidrive", "--quiet",
]


class TestScaleSubcommand:
    def test_runs_and_prints_tables(self, capsys):
        rc = main(SCALE_QUICK[:-1])  # without --quiet
        assert rc == 0
        out = capsys.readouterr().out
        assert "throughput" in out and "speedup" in out
        assert "multimap" in out

    def test_json_file_output(self, tmp_path, capsys):
        dest = tmp_path / "scale.json"
        rc = main(SCALE_QUICK + ["--json", str(dest)])
        assert rc == 0
        payload = json.loads(dest.read_text())
        assert set(payload["naive"]) == {"1", "2"}
        assert payload["meta"]["strategy"] == "disk_modulo"

    def test_json_directory_output(self, tmp_path, capsys):
        """scale routes --json through the shared writer: a non-.json
        destination is a directory receiving scale.json."""
        rc = main(SCALE_QUICK + ["--json", str(tmp_path / "sub")])
        assert rc == 0
        payload = json.loads(
            (tmp_path / "sub" / "scale.json").read_text()
        )
        assert "multimap" in payload and "meta" in payload

    def test_json_announces_path(self, tmp_path, capsys):
        """The shared writer prints the resolved path unless --quiet."""
        dest = tmp_path / "scale.json"
        rc = main(SCALE_QUICK[:-1] + ["--json", str(dest)])
        assert rc == 0
        assert f"saved {dest}" in capsys.readouterr().out

    def test_rejects_unknown_strategy(self, capsys):
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            main(SCALE_QUICK + ["--strategy", "nope"])


class TestTypedErrors:
    """Bad sweep parameters fail with a typed error or an argparse usage
    message, never a bare builtin traceback."""

    @pytest.mark.parametrize("shards", ["0", "1,0", "-2"])
    def test_scale_rejects_shard_counts_below_one(self, capsys, shards):
        from repro.errors import DatasetError
        from repro.shard import run_scale_sweep

        # a zero count used to die in ZeroDivisionError while the sweep
        # computed its chunk shapes: the CLI refuses it while parsing,
        # and the runner itself with a typed error
        with pytest.raises(SystemExit) as exc:
            main(SCALE_QUICK + ["--shards", shards])
        assert exc.value.code == 2
        assert "must be a positive integer" in capsys.readouterr().err
        counts = tuple(int(v) for v in shards.split(","))
        with pytest.raises(DatasetError, match="shard counts"):
            run_scale_sweep((24, 8, 8), ("naive",), counts, n_beams=4,
                            drive="minidrive")

    @pytest.mark.parametrize("flag, value", [
        ("--shape", "16,8,x"),
        ("--shards", "1,two"),
        ("--axes", "1.5"),
    ])
    def test_scale_bad_integer_list_exits_with_usage(self, capsys, flag,
                                                     value):
        with pytest.raises(SystemExit) as exc:
            main(SCALE_QUICK + [flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "comma-separated integers" in err

    @pytest.mark.parametrize("argv", [
        CACHE_QUICK + ["--capacities", "0,abc"],
        CACHE_QUICK + ["--axes", "y"],
        TRAFFIC_QUICK + ["--clients", "1,x"],
        ["avail", "--ks", "1,k", "--quiet"],
        ["ingest", "--shape", "16;8;8", "--quiet"],
        ["explain", "--fixed", "0,q", "--quiet"],
        ["trace", "--shape", "24x12x12", "--quiet"],
    ])
    def test_every_integer_list_flag_exits_with_usage(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "comma-separated integers" in err


class TestListFlags:
    """Registry introspection without reading source."""

    def test_list_layouts(self, capsys):
        rc = main(["--list-layouts"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "registered layouts:" in out
        for name in ("naive", "zorder", "hilbert", "multimap"):
            assert name in out

    def test_list_drives(self, capsys):
        rc = main(["--list-drives"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "registered drives:" in out
        assert "atlas10k3" in out and "minidrive" in out

    def test_list_strategies(self, capsys):
        rc = main(["--list-strategies"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "round_robin" in out and "disk_modulo" in out

    def test_combined_flags_skip_figures(self, capsys):
        rc = main(["--list-layouts", "--list-drives"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "registered layouts:" in out
        assert "registered drives:" in out

    def test_list_prefetchers(self, capsys):
        rc = main(["--list-prefetchers"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "registered prefetchers:" in out
        for name in ("none", "track"):
            assert name in out

    def test_list_flags_carry_descriptions(self, capsys):
        """The prefetcher registry holds bare classes; their docstring
        first line must still surface as the description."""
        main(["--list-prefetchers"])
        out = capsys.readouterr().out
        assert "round every run out to whole tracks" in out.lower()

    @pytest.mark.parametrize("argv", [
        ["--list-policies"],
        ["--list-placements"],
        ["--list-read-policies"],
        ["--list-exporters"],
        ["cache", "--policy", "lru"],
        ["avail", "--placement", "rotated"],
        ["avail", "--read-policy", "primary"],
        ["explain", "--cache-policy", "lru"],
        ["traffic", "--head", "random"],
        ["trace", "--head", "random"],
        ["trace", "--export", "chrome"],
    ])
    def test_retired_flags_exit_2(self, capsys, argv):
        """A setting with one alternative is a constant: its flag is
        gone, and argparse refuses it before anything runs."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


AVAIL_QUICK = [
    "avail", "--shape", "16,8,8", "--ks", "1,2", "--disks", "2",
    "--layouts", "naive,multimap", "--beams", "2",
    "--drive", "minidrive", "--quiet",
]


class TestAvailSubcommand:
    def test_runs_and_prints_tables(self, capsys):
        rc = main(AVAIL_QUICK[:-1])  # without --quiet
        assert rc == 0
        out = capsys.readouterr().out
        assert "healthy throughput" in out
        assert "degraded throughput" in out
        assert "multimap" in out

    def test_json_file_output(self, tmp_path, capsys):
        dest = tmp_path / "avail.json"
        rc = main(AVAIL_QUICK + ["--json", str(dest)])
        assert rc == 0
        payload = json.loads(dest.read_text())
        assert set(payload["naive"]) == {"1", "2"}
        assert payload["meta"]["placement"] == "rotated"

    def test_json_directory_output(self, tmp_path, capsys):
        rc = main(AVAIL_QUICK + ["--json", str(tmp_path / "sub")])
        assert rc == 0
        assert (tmp_path / "sub" / "avail.json").exists()

    def test_kill_disk_flag(self, capsys):
        rc = main(AVAIL_QUICK + ["--kill-disk", "1"])
        assert rc == 0


class TestSharedJsonWriter:
    """Both report subcommands accept --json through one helper."""

    def test_traffic_json_flag(self, tmp_path, capsys):
        dest = tmp_path / "storm.json"
        rc = main(TRAFFIC_QUICK + ["--json", str(dest)])
        assert rc == 0
        payload = json.loads(dest.read_text())
        assert "naive" in payload and "meta" in payload


TRACE_QUICK = ["trace", "--shape", "16,8,8", "--drive", "minidrive",
               "--clients", "2", "--queries", "3", "--seed", "11"]


class TestStormFlagsChecked:
    """Storm values the library refuses exit 2 through argparse before
    any dataset is built, for ``traffic`` and ``trace`` alike; each used
    to pass argparse and end in a :class:`QueryError` traceback."""

    @pytest.mark.parametrize("command", [TRAFFIC_QUICK, TRACE_QUICK],
                             ids=["traffic", "trace"])
    @pytest.mark.parametrize("flags, message", [
        (["--mix", "beam:-1"], "axis must be >= 0"),
        (["--mix", "range:0"], "selectivity must be in (0, 100]"),
        (["--mix", "range:101"], "selectivity must be in (0, 100]"),
        (["--mix", "beam:1,beam:5"], "beam:5 is not an axis of the 3-D"),
        (["--arrival", "poisson", "--rate", "nan"], "must be finite"),
        (["--arrival", "poisson", "--rate", "0"], "rate_qps must be > 0"),
        (["--arrival", "poisson", "--rate", "inf"], "must be finite"),
        (["--think-ms", "-1"], "must be >= 0"),
        (["--think-ms", "nan"], "think_ms must be finite"),
        (["--clients", "0"], "must be a positive integer, got 0"),
        (["--queries", "0"], "must be a positive integer, got 0"),
        (["--queries", "-1"], "must be a positive integer, got -1"),
        (["--slice-runs", "-5"], "must be a non-negative integer, got -5"),
    ])
    def test_exits_2_before_any_dataset(self, capsys, monkeypatch,
                                        command, flags, message):
        from repro.api import Dataset

        def refuse(*args, **kwargs):
            raise AssertionError("a dataset was built")

        monkeypatch.setattr(Dataset, "create", refuse)
        with pytest.raises(SystemExit) as exc:
            main(command + flags)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and message in err

    @pytest.mark.parametrize("command", [TRAFFIC_QUICK, TRACE_QUICK],
                             ids=["traffic", "trace"])
    def test_valid_values_still_run(self, capsys, command):
        assert main(command + [
            "--mix", "beam:2,range:100", "--arrival", "poisson",
            "--rate", "0.5", "--think-ms", "0", "--quiet",
        ]) == 0

    @pytest.mark.parametrize("command", [TRAFFIC_QUICK, TRACE_QUICK],
                             ids=["traffic", "trace"])
    def test_whole_query_slices_and_single_counts_still_run(self, capsys,
                                                             command):
        """``--slice-runs 0`` still means whole queries, and one client
        with one query still runs."""
        assert main(command + ["--clients", "1", "--queries", "1",
                               "--slice-runs", "0", "--quiet"]) == 0

    @pytest.mark.parametrize("clients", ["0,1", "2,0", "1,-3"])
    def test_traffic_client_list_entries_are_positive(
            self, capsys, monkeypatch, clients):
        from repro.api import Dataset

        def refuse(*args, **kwargs):
            raise AssertionError("a dataset was built")

        monkeypatch.setattr(Dataset, "create", refuse)
        with pytest.raises(SystemExit) as exc:
            main(TRAFFIC_QUICK + ["--clients", clients])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "must be a positive integer" in err


INGEST_QUICK = [
    "ingest", "--shape", "16,8,8", "--layouts", "naive",
    "--loaders", "fixed", "--points", "256", "--batch-points", "128",
    "--flush-points", "256", "--shards", "2", "--drive", "minidrive",
    "--quiet",
]

EXPLAIN_QUICK = ["explain", "--shape", "16,8,8", "--quiet"]

PERF_QUICK = [
    "perf", "--shape", "16,8,8", "--layouts", "naive",
    "--drive", "minidrive", "--quiet",
]

POSITIVE = "must be a positive integer, got "
NON_NEGATIVE = "must be a non-negative integer, got "
DISTINCT = "a sweep needs distinct values, at least one"

#: (argv, message): every count, seed, index and swept list a runner
#: refuses, in each subcommand that takes it
BAD_COUNTS = {
    "cache-repeats-0": (CACHE_QUICK + ["--repeats", "0"], POSITIVE + "0"),
    "cache-beams-0": (CACHE_QUICK + ["--beams", "0"], POSITIVE + "0"),
    "cache-capacities-negative": (CACHE_QUICK + ["--capacities", "0,-5"],
                                  NON_NEGATIVE + "-5"),
    "cache-capacities-repeated": (CACHE_QUICK + ["--capacities", "512,512"],
                                  DISTINCT),
    "cache-capacities-empty": (CACHE_QUICK + ["--capacities", ","],
                               DISTINCT),
    "cache-shape-0": (CACHE_QUICK + ["--shape", "0,8,8"], POSITIVE + "0"),
    "cache-seed-negative": (CACHE_QUICK + ["--seed", "-1"],
                            NON_NEGATIVE + "-1"),
    "scale-beams-0": (SCALE_QUICK + ["--beams", "0"], POSITIVE + "0"),
    "scale-shards-repeated": (SCALE_QUICK + ["--shards", "2,2"], DISTINCT),
    "scale-layouts-repeated": (SCALE_QUICK + ["--layouts", "naive,naive"],
                               DISTINCT),
    "avail-disks-0": (AVAIL_QUICK + ["--disks", "0"], POSITIVE + "0"),
    "avail-ks-0": (AVAIL_QUICK + ["--ks", "0,1"], POSITIVE + "0"),
    "avail-ks-repeated": (AVAIL_QUICK + ["--ks", "2,2"], DISTINCT),
    "avail-kill-disk-negative": (AVAIL_QUICK + ["--kill-disk", "-1"],
                                 NON_NEGATIVE + "-1"),
    "avail-beams-0": (AVAIL_QUICK + ["--beams", "0"], POSITIVE + "0"),
    "ingest-points-0": (INGEST_QUICK + ["--points", "0"], POSITIVE + "0"),
    "ingest-batch-points-0": (INGEST_QUICK + ["--batch-points", "0"],
                              POSITIVE + "0"),
    "ingest-flush-points-0": (INGEST_QUICK + ["--flush-points", "0"],
                              POSITIVE + "0"),
    "ingest-shards-0": (INGEST_QUICK + ["--shards", "0"], POSITIVE + "0"),
    "ingest-k-0": (INGEST_QUICK + ["--k", "0"], POSITIVE + "0"),
    "ingest-loaders-repeated": (INGEST_QUICK + ["--loaders", "fixed,fixed"],
                                DISTINCT),
    "ingest-layouts-repeated": (INGEST_QUICK + ["--layouts", "zorder,zorder"],
                                DISTINCT),
    "traffic-clients-repeated": (TRAFFIC_QUICK + ["--clients", "1,1"],
                                 DISTINCT),
    "traffic-seed-negative": (TRAFFIC_QUICK + ["--seed", "-1"],
                              NON_NEGATIVE + "-1"),
    "trace-bins-0": (TRACE_QUICK + ["--bins", "0"], POSITIVE + "0"),
    "trace-shape-0": (TRACE_QUICK + ["--shape", "16,0,8"], POSITIVE + "0"),
    "trace-seed-negative": (TRACE_QUICK + ["--seed", "-3"],
                            NON_NEGATIVE + "-3"),
    "explain-cache-blocks-negative": (EXPLAIN_QUICK + ["--cache-blocks",
                                                       "-5"],
                                      NON_NEGATIVE + "-5"),
    "explain-axis-negative": (EXPLAIN_QUICK + ["--axis", "-1"],
                              NON_NEGATIVE + "-1"),
    "explain-shape-negative": (EXPLAIN_QUICK + ["--shape", "16,-8,8"],
                               POSITIVE + "-8"),
    "explain-seed-negative": (EXPLAIN_QUICK + ["--seed", "-1"],
                              NON_NEGATIVE + "-1"),
    "perf-repeats-0": (PERF_QUICK + ["--repeats", "0"], POSITIVE + "0"),
    "perf-beams-negative": (PERF_QUICK + ["--beams", "-1"],
                            NON_NEGATIVE + "-1"),
    "perf-ranges-negative": (PERF_QUICK + ["--ranges", "-1"],
                             NON_NEGATIVE + "-1"),
    "perf-full-ranges-negative": (PERF_QUICK + ["--full-ranges", "-2"],
                                  NON_NEGATIVE + "-2"),
    "perf-ref-plans-0": (PERF_QUICK + ["--ref-plans", "0"], POSITIVE + "0"),
    "perf-ref-cell-cap-0": (PERF_QUICK + ["--ref-cell-cap", "0"],
                            POSITIVE + "0"),
    "perf-shape-0": (PERF_QUICK + ["--shape", "16,8,0"], POSITIVE + "0"),
    "perf-seed-negative": (PERF_QUICK + ["--seed", "-1"],
                           NON_NEGATIVE + "-1"),
}


class TestCountFlagsChecked:
    """Counts, dims, seeds, indexes and swept lists a runner refuses exit
    2 through argparse before any dataset is built.  Each used to pass
    argparse and end in a typed-error traceback with exit 1, a bare
    numpy ``ValueError`` (a negative seed) or, for ``perf``'s negative
    workload counts, an empty part of the workload."""

    @pytest.mark.parametrize("argv, message", list(BAD_COUNTS.values()),
                             ids=list(BAD_COUNTS))
    def test_exits_2_before_any_dataset(self, capsys, monkeypatch, argv,
                                        message):
        from repro.api import Dataset

        def refuse(*args, **kwargs):
            raise AssertionError("a dataset was built")

        monkeypatch.setattr(Dataset, "create", refuse)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and message in err

    @pytest.mark.parametrize("argv", [
        CACHE_QUICK + ["--capacities", "0"],
        AVAIL_QUICK + ["--kill-disk", "0"],
        EXPLAIN_QUICK + ["--cache-blocks", "0", "--axis", "0", "--seed",
                         "0"],
        PERF_QUICK + ["--beams", "0", "--full-ranges", "0"],
    ], ids=["cache-uncached-only", "avail-kill-disk-0",
            "explain-zeros", "perf-ranges-only"])
    def test_zero_where_zero_is_meaningful_still_runs(self, capsys, argv):
        """The uncached baseline, the first member disk, no pool, axis 0,
        seed 0 and a workload without beams stay valid."""
        assert main(argv) == 0


def export(tmp_path, name):
    dest = tmp_path / name
    assert main(TRACE_QUICK + ["--json", str(dest), "--quiet"]) == 0
    return dest


class TestDiff:
    """``diff`` over ``trace --json`` exports."""

    def test_same_seed_runs_diff_clean(self, tmp_path, capsys):
        a = export(tmp_path, "a.json")
        b = export(tmp_path, "b.json")
        assert a.read_bytes() == b.read_bytes()
        assert main(["diff", str(a), str(b)]) == 0
        assert "no regressions" in capsys.readouterr().out

    def test_regression_exits_nonzero(self, tmp_path, capsys):
        a = export(tmp_path, "a.json")
        data = json.loads(a.read_text())
        data["makespan_ms"] *= 2.0
        b = tmp_path / "b.json"
        b.write_text(json.dumps(data))
        assert main(["diff", str(a), str(b)]) == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_tolerance_flag_loosens_the_band(self, tmp_path):
        a = export(tmp_path, "a.json")
        data = json.loads(a.read_text())
        data["makespan_ms"] *= 1.2
        b = tmp_path / "b.json"
        b.write_text(json.dumps(data))
        assert main(["diff", str(a), str(b)]) == 1
        assert main(["diff", str(a), str(b),
                     "--tolerance", "0.5"]) == 0

    def test_missing_report_names_the_file(self, tmp_path):
        a = export(tmp_path, "a.json")
        missing = tmp_path / "missing.json"
        with pytest.raises(DiffError, match="missing.json"):
            main(["diff", str(missing), str(a)])

    def test_non_json_report_names_the_file(self, tmp_path):
        a = export(tmp_path, "a.json")
        garbled = tmp_path / "garbled.json"
        garbled.write_text("makespan 100 ms")
        with pytest.raises(DiffError, match="garbled.json is not JSON"):
            main(["diff", str(a), str(garbled)])

    def test_nan_tolerance_is_rejected(self, tmp_path):
        data = json.loads(export(tmp_path, "run.json").read_text())
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text(json.dumps(dict(data, makespan_ms=100.0)))
        b.write_text(json.dumps(dict(data, makespan_ms=900.0)))
        assert main(["diff", str(a), str(b)]) == 1
        with pytest.raises(DiffError, match="tolerance must be finite"):
            main(["diff", str(a), str(b), "--tolerance", "nan"])

    def test_json_export(self, tmp_path):
        a = export(tmp_path, "a.json")
        dest = tmp_path / "diff.json"
        assert main(["diff", str(a), str(a), "--json", str(dest),
                     "--quiet"]) == 0
        assert json.loads(dest.read_text())["regressions"] == []
