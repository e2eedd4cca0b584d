"""Default bench runs never leak observability keys into their JSON.

The regression guard for the opt-in contract: at default settings
every subcommand's report must contain NO ``obs``/``explain``/
``attribution`` key anywhere (``trace`` attaches telemetry by design,
so it is asserted to carry ``obs`` only; ``explain`` IS the diagnosis
subcommand, so it is asserted obs-free only).
"""

import json

import pytest

from repro.bench.cli import main

QUICK = ["--shape", "16,8,8", "--layouts", "multimap",
         "--drive", "minidrive", "--quiet"]


def gated_keys(obj, names=("obs", "explain", "attribution")) -> set:
    """Every gated key present anywhere in a JSON payload."""
    found = set()
    if isinstance(obj, dict):
        for key, value in obj.items():
            if key in names:
                found.add(key)
            found |= gated_keys(value, names)
    elif isinstance(obj, list):
        for value in obj:
            found |= gated_keys(value, names)
    return found


def run_json(tmp_path, argv):
    dest = tmp_path / "out.json"
    assert main(argv + ["--json", str(dest)]) == 0
    return json.loads(dest.read_text())


CASES = {
    "traffic": ["traffic"] + QUICK + ["--clients", "2",
                                      "--queries", "2"],
    "cache": ["cache"] + QUICK + ["--capacities", "0,256",
                                  "--beams", "2", "--repeats", "1"],
    "scale": ["scale"] + QUICK + ["--shards", "1,2", "--beams", "2"],
    "avail": ["avail"] + QUICK + ["--ks", "1,2", "--disks", "2",
                                  "--beams", "2"],
    "ingest": ["ingest"] + QUICK + ["--loaders", "fixed",
                                    "--points", "128"],
    "perf": ["perf"] + QUICK + ["--beams", "2", "--ranges", "1",
                                "--full-ranges", "0", "--repeats", "1",
                                "--ref-plans", "1"],
}


class TestDefaultRunsAreUnobserved:
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_no_gated_keys(self, tmp_path, name):
        data = run_json(tmp_path, CASES[name])
        assert gated_keys(data) == set(), (
            f"{name} leaked gated meta at default settings"
        )

    def test_trace_attaches_obs_only(self, tmp_path):
        data = run_json(tmp_path, [
            "trace", "--shape", "16,8,8", "--drive", "minidrive",
            "--clients", "2", "--queries", "2", "--quiet",
        ])
        assert "obs" in data  # telemetry is the subcommand's point
        assert gated_keys(data, names=("explain", "attribution")) == set()

    def test_explain_never_carries_obs(self, tmp_path):
        """EXPLAIN/ANALYZE runs under a *private* trace: the exported
        payload must not leak the telemetry tree."""
        data = run_json(tmp_path, [
            "explain", "--shape", "16,8,8", "--drive", "minidrive",
            "--analyze", "--quiet",
        ])
        assert "layouts" in data
        assert gated_keys(data, names=("obs",)) == set()

    def test_diff_without_attribute_stays_clean(self, tmp_path):
        src = tmp_path / "run.json"
        argv = ["trace", "--shape", "16,8,8", "--drive", "minidrive",
                "--clients", "2", "--queries", "2", "--quiet",
                "--json", str(src)]
        assert main(argv) == 0
        dest = tmp_path / "diff.json"
        assert main(["diff", str(src), str(src), "--quiet",
                     "--json", str(dest)]) == 0
        data = json.loads(dest.read_text())
        assert gated_keys(data, names=("attribution", "explain")) == set()
