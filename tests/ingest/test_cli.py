"""The ``repro-bench ingest`` subcommand and registry listings."""

import json

from repro.bench.cli import main

INGEST_QUICK = [
    "ingest", "--shape", "16,8,8", "--layouts", "naive,multimap",
    "--loaders", "fixed", "--stream", "clustered", "--points", "512",
    "--batch-points", "128", "--flush-points", "256", "--shards", "2",
    "--drive", "minidrive", "--seed", "42", "--quiet",
]


class TestIngestSubcommand:
    def test_quick_sweep_runs(self):
        assert main(INGEST_QUICK) == 0

    def test_json_payload(self, tmp_path):
        rc = main(INGEST_QUICK + ["--json", str(tmp_path)])
        assert rc == 0
        payload = json.loads((tmp_path / "ingest.json").read_text())
        assert payload["meta"]["loaders"] == ["fixed"]
        assert payload["multimap"]["fixed"]["mb_per_s"] > 0

    def test_table_output(self, capsys):
        main([a for a in INGEST_QUICK if a != "--quiet"])
        out = capsys.readouterr().out
        assert "ingest goodput" in out

    def test_replicated_sweep(self):
        assert main(INGEST_QUICK + ["--k", "2", "--reorganize"]) == 0


class TestRegistryListings:
    def test_list_loaders(self, capsys):
        assert main(["--list-loaders"]) == 0
        out = capsys.readouterr().out
        assert "registered bulk loaders:" in out
        assert "fixed" in out and "adaptive" in out

    def test_list_streams(self, capsys):
        assert main(["--list-streams"]) == 0
        out = capsys.readouterr().out
        assert "registered record streams:" in out
        for name in ("uniform", "clustered"):
            assert name in out

    def test_listings_combine(self, capsys):
        assert main(["--list-loaders", "--list-streams"]) == 0
        out = capsys.readouterr().out
        assert "bulk loaders" in out and "record streams" in out
