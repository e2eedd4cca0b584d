"""The ``repro-bench trace`` subcommand's engine and renderer.

:func:`run_trace` runs a seeded traffic storm on one layout with
telemetry attached and distils the recorded span trees into the three
views the subcommand prints: the top-N slowest queries with their
per-phase breakdown, the per-phase totals across the run, and a binned
per-disk utilisation timeline.  Everything derives from the tracer, so
the report is deterministic under a fixed seed.
"""

from __future__ import annotations

from repro.errors import ObsError

__all__ = [
    "disk_utilization",
    "render_trace",
    "run_trace",
    "slowest_queries",
    "sparkline",
]


def slowest_queries(tracer, top: int = 5) -> list:
    """The ``top`` slowest recorded queries, each with its per-phase
    child-duration breakdown (ties broken by start time then name, so
    the ordering is deterministic)."""
    roots = sorted(
        tracer.roots,
        key=lambda r: (-r.dur_ms, r.t0_ms, r.name),
    )
    out = []
    for root in roots[: max(int(top), 0)]:
        phases: dict[str, float] = {}
        for span in root.walk():
            if span is root:
                continue
            phases[span.cat] = phases.get(span.cat, 0.0) + span.dur_ms
        entry = {
            "name": root.name,
            "t0_ms": round(root.t0_ms, 3),
            "dur_ms": round(root.dur_ms, 3),
            "phases": {cat: round(phases[cat], 3)
                       for cat in sorted(phases)},
        }
        for key in ("client", "label", "cells", "policy"):
            if key in root.attrs:
                entry[key] = root.attrs[key]
        out.append(entry)
    return out


def disk_utilization(tracer, horizon_ms: float, bins: int = 24) -> dict:
    """Binned busy fractions per disk over ``[0, horizon_ms)``.

    Every disk-bound span (``service``/``flush``) contributes its
    overlap with each bin; the result maps ``str(disk)`` to a list of
    ``bins`` fractions in [0, 1] — the utilisation timeline the
    subcommand renders as a sparkline-style row per drive.
    """
    bins = int(bins)
    if bins < 1:
        raise ObsError("utilization needs at least one bin")
    horizon_ms = float(horizon_ms)
    bin_ms = horizon_ms / bins if horizon_ms > 0 else 0.0
    busy: dict[int, list[float]] = {}
    for root in tracer.roots:
        for span in root.walk():
            if span.cat not in ("service", "flush"):
                continue
            disk = span.attrs.get("disk")
            if disk is None:
                continue
            row = busy.setdefault(int(disk), [0.0] * bins)
            if bin_ms <= 0 or span.dur_ms <= 0:
                continue
            first = max(int(span.t0_ms / bin_ms), 0)
            last = min(int(span.t1_ms / bin_ms), bins - 1)
            for b in range(first, last + 1):
                lo = b * bin_ms
                overlap = min(span.t1_ms, lo + bin_ms) - max(span.t0_ms,
                                                             lo)
                if overlap > 0:
                    row[b] += overlap
    return {
        "bin_ms": round(bin_ms, 3),
        "busy": {
            str(disk): [round(min(ms / bin_ms, 1.0), 4) if bin_ms > 0
                        else 0.0 for ms in row]
            for disk, row in sorted(busy.items())
        },
    }


def run_trace(shape, *, clients: int = 2, queries: int = 8,
              top: int = 5, bins: int = 24, **storm):
    """Run one telemetry-attached traffic storm and distil its trace.

    ``storm`` holds :func:`~repro.traffic.storm.run_one_storm`'s
    workload keywords.  Returns ``(data, telemetry)``: a JSON-friendly
    report plus the live :class:`~repro.obs.telemetry.Telemetry`.
    """
    from repro.traffic.storm import run_one_storm

    ds, report = run_one_storm(
        shape, clients=clients, queries=queries,
        telemetry=dict(trace=True, metrics=True),
        **storm,
    )
    tele = ds.telemetry
    tracer = tele.tracer
    data = {
        "dataset": ds.describe(),
        "makespan_ms": report.makespan_ms,
        "throughput_qps": report.throughput_qps(),
        "obs": tele.describe(),
        "slowest": slowest_queries(tracer, top),
        "phase_ms": {cat: round(ms, 3)
                     for cat, ms in tracer.phase_ms().items()},
        "utilization": disk_utilization(
            tracer, report.makespan_ms, bins
        ),
    }
    return data, tele


_GLYPHS = " .:-=+*#%@"


def sparkline(values, peak=None) -> str:
    """One glyph per value, scaled against the series peak (or an
    explicit ``peak`` for ratio series)."""
    top = peak if peak is not None else max(values, default=0.0)
    if top <= 0:
        return " " * len(values)
    return "".join(
        _GLYPHS[min(int(min(v / top, 1.0) * (len(_GLYPHS) - 1) + 0.5),
                    len(_GLYPHS) - 1)]
        for v in values
    )


def render_trace(data: dict) -> str:
    """Console rendering: slowest-query table, phase totals, and one
    utilisation row per drive (each glyph is one time bin)."""
    from repro.bench.reporting import render_table

    ds = data["dataset"]
    parts = [
        f"trace: {ds['layout']} {tuple(ds['shape'])} on {ds['drive']} — "
        f"makespan {data['makespan_ms']:.1f} ms, "
        f"{data['throughput_qps']:.1f} q/s"
    ]
    slowest = data["slowest"]
    if slowest:
        headers = ["query", "label", "t0 ms", "dur ms", "phases"]
        rows = [
            [
                q["name"],
                q.get("label", "-"),
                f"{q['t0_ms']:.1f}",
                f"{q['dur_ms']:.2f}",
                " ".join(f"{cat}={ms:.2f}"
                         for cat, ms in q["phases"].items()),
            ]
            for q in slowest
        ]
        parts.append(f"slowest {len(slowest)} queries:")
        parts.append(render_table(headers, rows))
    phase = data["phase_ms"]
    parts.append("phase totals (ms): " + ", ".join(
        f"{cat}={ms:.2f}" for cat, ms in phase.items()
    ))
    util = data["utilization"]
    if util["busy"]:
        parts.append(f"disk utilization ({util['bin_ms']:.1f} ms/bin):")
        for disk, row in util["busy"].items():
            parts.append(f"  d{disk} |{sparkline(row, peak=1.0)}|")
    return "\n".join(parts)
