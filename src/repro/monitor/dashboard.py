"""The ``repro-bench dashboard`` subcommand's engine and renderer.

:func:`run_dashboard` runs one seeded traffic storm with a
:class:`~repro.monitor.Monitor` attached — optionally killing (and
reviving) a member disk mid-storm — and returns the full monitoring
payload: windowed time-series, SLO alerts, and the health timeline.
:func:`render_dashboard` draws it as sparkline rows (throughput, p99,
in-flight, cache hit ratio, capacity, ingest goodput), a per-drive
utilisation heatmap, and the alert/health tables.  Everything derives
from the monitor, so the report is deterministic under a fixed seed —
which is why ``repro-bench diff`` over two same-seed dashboard exports
is an exact-zero check.
"""

from __future__ import annotations

__all__ = ["render_dashboard", "run_dashboard"]


def run_dashboard(shape, *, clients: int = 4, queries: int = 16,
                  window_ms: float = 50.0, **storm):
    """Run one monitored traffic storm.

    ``storm`` holds :func:`~repro.traffic.storm.run_one_storm`'s
    keywords: the workload, the dataset's ``shards``/``k`` (a kill needs
    ``k >= 2`` to keep answering) and the disk failure.  Returns
    ``(data, telemetry)`` like :func:`~repro.obs.trace_cmd.run_trace`.
    """
    from repro.traffic.storm import run_one_storm

    # ``rules: None`` selects the default rule set; it is spelled out
    # because the telemetry spec is exported in ``data["dataset"]``
    ds, report = run_one_storm(
        shape, clients=clients, queries=queries,
        telemetry=dict(trace=True, metrics=True, exporter=None,
                       monitor={"window_ms": window_ms, "rules": None}),
        **storm,
    )
    tele = ds.telemetry
    tracer = tele.tracer
    data = {
        "dataset": ds.describe(),
        "makespan_ms": report.makespan_ms,
        "throughput_qps": report.throughput_qps(),
        "phase_ms": {cat: round(ms, 3)
                     for cat, ms in tracer.phase_ms().items()},
        "monitor": tele.monitor.describe(),
    }
    return data, tele


def render_dashboard(data: dict) -> str:
    """Console dashboard: header, sparkline panel, per-drive heatmap,
    alerts, and the health timeline."""
    from repro.bench.reporting import render_table
    from repro.obs.trace_cmd import sparkline

    mon = data["monitor"]
    windows = mon["windows"]
    ds = data["dataset"]
    parts = [
        f"dashboard: {ds['layout']} {tuple(ds['shape'])} on "
        f"{ds['drive']} — makespan {data['makespan_ms']:.1f} ms, "
        f"{data['throughput_qps']:.1f} q/s, "
        f"{mon['n_windows']} x {mon['window_ms']:g} ms windows"
    ]
    if windows:
        lat = mon["summary"]["latency_ms"]
        parts.append(
            "latency (ms): " + ", ".join(
                f"{k}={v:g}" for k, v in lat.items())
        )
        series = {
            "qps": [w["qps"] for w in windows],
            "p99 ms": [w["p99_ms"] for w in windows],
            "inflight": [w["inflight"] for w in windows],
        }
        rows = [
            [name, sparkline(vals), f"{max(vals, default=0.0):g}"]
            for name, vals in series.items()
        ]
        hits = [w["cache_hit_ratio"] for w in windows]
        rows.append(["cache hit", sparkline(hits, peak=1.0),
                     f"{max(hits, default=0.0):g}"])
        caps = [w["capacity"] for w in windows]
        rows.append(["capacity", sparkline(caps, peak=1.0),
                     f"{min(caps, default=1.0):g}"])
        ingest = [w["ingest_mb_s"] for w in windows]
        if any(ingest):
            rows.append(["ingest MB/s", sparkline(ingest),
                         f"{max(ingest):g}"])
        parts.append(render_table(["series", "windows", "peak"], rows))
        # per-drive utilisation heatmap (one row per disk)
        disks = sorted({int(d) for w in windows for d in w["util"]})
        if disks:
            parts.append("drive utilization (1 glyph per window):")
            for d in disks:
                row = [w["util"].get(str(d), 0.0) for w in windows]
                parts.append(f"  d{d} |{sparkline(row, peak=1.0)}|")
    alerts = mon["alerts"]
    if alerts:
        parts.append(f"{len(alerts)} alert(s):")
        parts.append(render_table(
            ["t ms", "rule", "sev", "w", "detail"],
            [[f"{a['t_ms']:g}", a["rule"], a["severity"],
              a["window"], a["detail"]] for a in alerts],
        ))
    else:
        parts.append("no alerts")
    health = mon["health"]
    line = f"health: {health['state']}"
    if health["transitions"]:
        line += " (" + " -> ".join(
            [health["transitions"][0]["from"]]
            + [t["to"] for t in health["transitions"]]
        ) + ")"
    parts.append(line)
    for t in health["transitions"]:
        parts.append(
            f"  {t['t_ms']:>9.1f} ms  {t['from']} -> {t['to']}: "
            f"{t['reason']}"
        )
    return "\n".join(parts)
