#!/usr/bin/env python3
"""Two-clock, layer-attributed benchmark of the MultiMap reproduction.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper-batch --seed 1 --trace 0

The workloads (``perfbench/workloads.py``) run in rounds until
``--seconds`` have passed (and at least ``SIM_ROUNDS`` rounds ran).  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``:

* ``--trace 0`` reports the end-to-end metrics: host (wall-clock) ms per
  round as median and p90, the simulated multimap speedup over naive and
  multimap's simulated ms per operation, and ``setup_s`` — the median of
  several cold set-ups, each in a fresh interpreter, from the first
  ``import`` to datasets that have served one request.
* ``--trace 1`` wraps each layer's entry points (``perfbench/layers.py``)
  and reports the per-layer metrics instead: host self-time shares,
  the simulated drive time split into its mechanical parts, and
  per-layer work counters.

Host times are normalised to a reference CPU, because the speed of a
shared machine drifts by tens of percent within minutes: a fixed
pure-Python kernel is timed before and after every round (and every
cold set-up), and each host time is scaled by ``CAL_REF_MS`` over the
kernel's mean time, i.e. reported as if the kernel took ``CAL_REF_MS``.

Simulated figures and counters come from the first ``SIM_ROUNDS``
rounds only, so they repeat exactly for a seed on any machine.  The
program is imported from ``src/`` next to this directory; without it the
benchmark exits non-zero and prints no result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from layers import LAYERS, SIM_PARTS, LayerTracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 120
#: the calibration kernel's wall time on the reference CPU
CAL_REF_MS = 3.0


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("paper-batch", "failover-storm", "ingest-reorg"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def _calibration_ms(repeats: int = 1) -> float:
    """Median wall time of a fixed pure-Python kernel (dict updates and a
    sort), the yardstick host times are normalised by."""
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        counts: dict[int, int] = {}
        for i in range(30000):
            k = i & 1023
            counts[k] = counts.get(k, 0) + i
        sorted(counts.values(), reverse=True)
        times.append((perf_counter() - t0) * 1e3)
    return statistics.median(times)


def _use_program_source() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(
            "perfbench: src/repro not found next to perfbench/; run from "
            "the root of a checkout of the program")
    sys.path.insert(0, str(SRC))
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, "
                         f"not from {SRC}")


def _cold_setup_s(args) -> float:
    """One cold set-up in a fresh interpreter; returns its seconds."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--setup-probe"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=SETUP_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: set-up probe failed:\n{proc.stderr}")
    return float(json.loads(proc.stdout.splitlines()[-1])["setup_s"])


def _pct(part: float, whole: float) -> float:
    return 100.0 * part / whole if whole else 0.0


def _end_to_end(host_ms, sim, setups) -> dict:
    return {
        "host_round_ms": (statistics.median(host_ms), "ms"),
        "host_round_p90_ms": (statistics.quantiles(host_ms, n=10)[-1], "ms"),
        "sim_speedup": (sim["sim_speedup"], "x"),
        "sim_multimap_ms": (sim["sim_multimap_ms"], "ms"),
        "setup_s": (statistics.median(setups), "s"),
    }


def _per_layer(rounds, host_ms, n_sim, self_s, sim_counts) -> dict:
    """Host self-time shares over every traced round; simulated split
    and counters per round over the first ``n_sim`` rounds."""
    host_s = sum(rd.host_s for rd in rounds)
    out = {"host.traced_round_ms": (statistics.median(host_ms), "ms")}
    for layer in LAYERS:
        out[f"host.{layer}_pct"] = (_pct(self_s.get(layer, 0.0), host_s),
                                    "%")
    out["host.other_pct"] = (
        _pct(host_s - sum(self_s.values()), host_s), "%")

    counts = dict(sim_counts)
    for rd in rounds[:n_sim]:
        for key, value in rd.counts.items():
            counts[key] = counts.get(key, 0) + value
    busy = sum(counts.get("sim." + part, 0.0) for part in SIM_PARTS)
    out["sim.drive_busy_ms"] = (busy / n_sim, "ms")
    for part in SIM_PARTS:
        name = part.removesuffix("_ms")
        out[f"sim.{name}_pct"] = (_pct(counts.get("sim." + part, 0.0), busy),
                                  "%")
    out["sim.queue_pct"] = (_pct(counts.get("sim.queue_ms", 0.0),
                                 counts.get("sim.latency_ms", 0.0)), "%")
    out["sim.reorg_pct"] = (_pct(counts.get("sim.reorg_ms", 0.0),
                                 counts.get("sim.pipeline_ms", 0.0)), "%")
    out["api.ops"] = (sum(rd.ops for rd in rounds[:n_sim]) / n_sim, "count")
    for key in ("query.raw_runs", "query.issued_runs", "drive.batches",
                "drive.requests", "drive.blocks", "drive.sptf_batches",
                "replica.redispatched_subs", "ingest.flushes",
                "ingest.blocks_written", "ingest.overflow_points",
                "reorg.pages_freed"):
        out[key] = (counts.get(key, 0) / n_sim, "count")
    return out


def _load_workload(args):
    _use_program_source()
    from workloads import WORKLOADS

    return WORKLOADS[args.workload](args.seed)


def _setup_probe(args) -> int:
    """The fresh interpreter's side of :func:`_cold_setup_s`."""
    cal_before = _calibration_ms(3)
    t0 = perf_counter()
    _load_workload(args).setup()
    setup_s = perf_counter() - t0
    cal_ms = (cal_before + _calibration_ms(3)) / 2
    print(json.dumps({"setup_s": setup_s * CAL_REF_MS / cal_ms}))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if args.setup_probe:
        return _setup_probe(args)
    wl = _load_workload(args)
    setups = [] if args.trace else [
        _cold_setup_s(args) for _ in range(SETUP_SAMPLES)]
    wl.setup()
    tracer = LayerTracer().install() if args.trace else None
    n_sim = wl.SIM_ROUNDS
    rounds, host_ms, sim_counts = [], [], {}
    cal_ms = _calibration_ms()
    deadline = perf_counter() + args.seconds
    while len(rounds) < n_sim or perf_counter() < deadline:
        rounds.append(wl.round(len(rounds)))
        cal_before, cal_ms = cal_ms, _calibration_ms()
        host_ms.append(rounds[-1].host_s * 1e3 * CAL_REF_MS
                       / ((cal_before + cal_ms) / 2))
        if tracer is not None and len(rounds) == n_sim:
            sim_counts = dict(tracer.counts)
    if tracer is not None:
        tracer.uninstall()

    attempted = sum(rd.ops for rd in rounds)
    failed = sum(rd.failed for rd in rounds)
    problems = [p for rd in rounds for p in rd.problems]
    sim = {"sim_speedup": 0.0, "sim_multimap_ms": 0.0}
    if not failed and not problems:
        sim, claims = wl.summarize(rounds[:n_sim])
        problems += claims
        replay = wl.round(0, layouts=("multimap",), fresh=True)
        if replay.failed or replay.sim["multimap"] != rounds[0].sim[
                "multimap"]:
            problems.append("a fresh multimap dataset did not replay "
                            "round 0 bit for bit")

    if tracer is None:
        metrics = _end_to_end(host_ms, sim, setups)
    else:
        metrics = _per_layer(rounds, host_ms, n_sim, tracer.self_s,
                             sim_counts)
    for p in problems[:20]:
        print(f"perfbench: {p}", file=sys.stderr)
    print(f"perfbench: {args.workload} seed {args.seed}: {len(rounds)} "
          f"rounds, {attempted} operations, {failed} failed, "
          f"{len(problems)} problems", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(v), "unit": unit}
                    for name, (v, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
