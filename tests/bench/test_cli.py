"""Tests for the benchmark CLI and harness plumbing."""

import json

import pytest

from repro.bench.cli import main
from repro.bench.harness import run_all


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

    def test_rejects_unknown_policy(self, capsys):
        from repro.errors import RegistryError

        with pytest.raises(RegistryError):
            main(CACHE_QUICK + ["--policy", "nope"])


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

    def test_cube_aligned_strategy(self, capsys):
        rc = main(SCALE_QUICK + ["--strategy", "cube_aligned"])
        assert rc == 0

    def test_rejects_unknown_strategy(self, capsys):
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            main(SCALE_QUICK + ["--strategy", "nope"])


class TestTypedErrors:
    """Bad sweep parameters fail with a typed error or an argparse usage
    message, never a bare builtin traceback."""

    @pytest.mark.parametrize("shards", ["0", "1,0", "-2"])
    def test_scale_rejects_shard_counts_below_one(self, shards):
        from repro.errors import DatasetError

        # a zero count used to die in ZeroDivisionError while the sweep
        # computed its chunk shapes
        with pytest.raises(DatasetError, match="shard counts"):
            main(SCALE_QUICK + ["--shards", shards])

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
        assert "round_robin" in out and "cube_aligned" in out

    def test_combined_flags_skip_figures(self, capsys):
        rc = main(["--list-layouts", "--list-drives"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "registered layouts:" in out
        assert "registered drives:" in out

    def test_list_policies(self, capsys):
        rc = main(["--list-policies"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "registered cache policies:" in out
        for name in ("lru", "slru", "scan"):
            assert name in out

    def test_list_prefetchers(self, capsys):
        rc = main(["--list-prefetchers"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "registered prefetchers:" in out
        for name in ("none", "track", "adjacent"):
            assert name in out

    def test_list_placements(self, capsys):
        rc = main(["--list-placements"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "registered replica placements:" in out
        assert "rotated" in out and "locality_aligned" in out

    def test_list_read_policies(self, capsys):
        rc = main(["--list-read-policies"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "registered read policies:" in out
        for name in ("primary", "round_robin", "least_loaded"):
            assert name in out

    def test_list_flags_carry_descriptions(self, capsys):
        """Cache registries hold bare classes; their docstring first
        line must still surface as the description."""
        main(["--list-policies"])
        out = capsys.readouterr().out
        assert "least-recently-used" in out.lower()


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

    def test_kill_disk_and_placement_flags(self, capsys):
        rc = main(AVAIL_QUICK + [
            "--kill-disk", "1", "--placement", "locality_aligned",
            "--read-policy", "least_loaded",
        ])
        assert rc == 0

    def test_rejects_unknown_placement(self, capsys):
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            main(AVAIL_QUICK + ["--placement", "nope"])


class TestSharedJsonWriter:
    """Both report subcommands accept --json through one helper."""

    def test_traffic_json_flag(self, tmp_path, capsys):
        dest = tmp_path / "storm.json"
        rc = main(TRAFFIC_QUICK + ["--json", str(dest)])
        assert rc == 0
        payload = json.loads(dest.read_text())
        assert "naive" in payload and "meta" in payload
