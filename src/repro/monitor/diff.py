"""Run-to-run comparison: the one scorer behind every regression gate.

``repro-bench diff base.json current.json`` loads two reports written
by the ``--json`` writer (``trace`` or ``dashboard`` exports — anything
carrying ``makespan_ms``/``phase_ms`` and, when monitoring was on, a
``monitor`` block) and compares them: phase totals, overall latency
quantiles, and window-by-window throughput/p99 series, flagging every
metric that moved beyond a relative tolerance band (with small absolute
floors so sub-millisecond noise never flags).  Two same-seed runs are
bit-identical, so a clean diff is an exact-zero check — which is what
the CI smoke job relies on.

The band rule (:func:`band_score`), its floor table and the input
checks (:func:`validate_report`) also serve ``diff --attribute``
(:func:`repro.explain.attribute_runs`) and ``perf --check``
(:func:`repro.perf.sweep.check_perf`).
"""

from __future__ import annotations

import json
import math
from numbers import Real
from pathlib import Path

from repro.bench.reporting import render_table
from repro.errors import MonitorError

__all__ = ["band_edge", "band_score", "check_runs", "diff_runs",
           "load_report", "render_diff", "validate_report"]

#: absolute floors under which a delta never flags, keyed per metric
#: family — tolerance bands are relative, these stop tiny denominators;
#: ``relative`` is the zero floor of the purely relative perf bands
_FLOORS = {"ms": 1.0, "qps": 1.0, "count": 0.5, "util": 0.02,
           "relative": 0.0}


def _band(base: float, tolerance: float, floor: str) -> float:
    return max(abs(base) * tolerance, _FLOORS[floor])


def band_score(base: float, cur: float, tolerance: float, *,
               floor: str = "ms", worse: str = "up") -> float:
    """The bad-direction delta of ``base -> cur`` over ``max(|base| *
    tolerance, floor)``: above 1 flags; 0 or below is no change or an
    improvement.  ``worse='up'`` means larger is worse (latency),
    ``'down'`` smaller is worse (throughput).  A zero band flags any
    bad move."""
    delta = cur - base
    bad = delta if worse == "up" else -delta
    band = _band(base, tolerance, floor)
    if band > 0:
        return bad / band
    return math.inf if bad > 0 else 0.0


def band_edge(base: float, tolerance: float, *, floor: str = "ms",
              worse: str = "up") -> float:
    """The value a move from ``base`` must pass to flag (for messages)."""
    band = _band(base, tolerance, floor)
    return base + band if worse == "up" else base - band


def load_report(path, error=MonitorError) -> dict:
    """Read one exported JSON report; ``error`` names the file when it
    cannot be read or is not JSON."""
    try:
        return json.loads(Path(path).read_text())
    except OSError as exc:
        raise error(f"cannot read {path}: {exc.strerror or exc}") from None
    except json.JSONDecodeError as exc:
        raise error(f"{path} is not JSON: {exc}") from None


def validate_report(data, shape, error, path: str) -> None:
    """Raise ``error`` naming the first field of ``data`` off ``shape``.

    A shape is a type (``float``: any real number), ``[item]`` (a list),
    or a mapping whose listed keys are checked when present (``"key!"``
    must be present) and whose ``str`` or ``int`` key shapes every other
    entry (``int``: the keys are integer strings).  A None entry counts
    as absent unless its shape is a type, as the readers treat it.
    """
    if isinstance(shape, type):
        if not isinstance(data, Real if shape is float else shape):
            what = "a number" if shape is float else f"a {shape.__name__}"
            raise error(f"{path} must be {what}, got {data!r}")
    elif isinstance(shape, list):
        if not isinstance(data, (list, tuple)):
            raise error(f"{path} must be a list, got {type(data).__name__}")
        for i, item in enumerate(data):
            validate_report(item, shape[0], error, f"{path}[{i}]")
    elif not isinstance(data, dict):
        raise error(f"{path} must be a mapping, got {type(data).__name__}")
    else:
        named = {k.rstrip("!"): k for k in shape if isinstance(k, str)}
        for key in named.values():
            if key.endswith("!") and key[:-1] not in data:
                raise error(f"{path} is missing {key[:-1]!r}")
        for key, value in data.items():
            if key not in named and int in shape:
                try:
                    int(key)
                except (TypeError, ValueError):
                    raise error(f"{path} key {key!r} must be an "
                                f"integer") from None
            sub = (shape[named[key]] if key in named
                   else shape.get(str, shape.get(int)))
            if sub is not None and (value is not None
                                    or isinstance(sub, type)):
                validate_report(value, sub, error, f"{path}.{key}")


#: what diff and attribution read from a report's monitor block, and
#: from the rest of the report
_MONITOR = {
    "summary": {"latency_ms": {str: float}},
    "windows": [{"qps": float, "p99_ms": float}],
    "alerts": [{}],
    "health": {},
}
_RUN = {
    "makespan_ms": float,
    "throughput_qps": float,
    "phase_ms": {str: float},
    "utilization": {"busy": {int: [float]}},
    "slowest": [{"name!": str, "dur_ms!": float}],
}


def _monitor_block(data: dict) -> dict | None:
    """The ``monitor`` payload wherever the report put it (top level
    for dashboard exports, under ``meta`` for batch reports)."""
    block = data.get("monitor")
    if block is None:
        block = (data.get("meta") or {}).get("monitor")
    return block if isinstance(block, dict) else None


def check_runs(base, cur, tolerance, error, what: str):
    """Check the inputs of a base → current comparison (``what`` is
    ``diff`` or ``attribution``), raising ``error``; returns the
    tolerance and both monitor blocks (None where a report has none)."""
    if not isinstance(base, dict) or not isinstance(cur, dict):
        raise error(f"{what} inputs must be exported report dicts")
    tolerance = float(tolerance)
    if not math.isfinite(tolerance):
        raise error(f"tolerance must be finite, got {tolerance}")
    if tolerance < 0:
        raise error(f"tolerance must be >= 0, got {tolerance}")
    blocks = []
    for name, data in (("base", base), ("current", cur)):
        validate_report(data, _RUN, error, name)
        blocks.append(_monitor_block(data))
        if blocks[-1] is not None:
            validate_report(blocks[-1], _MONITOR, error, f"{name}.monitor")
    return tolerance, *blocks


def _flag(regressions, label, base, cur, tolerance, *,
          floor="ms", worse="up"):
    """Record a delta; append to ``regressions`` when it crossed the
    tolerance band in the bad direction."""
    base = float(base)
    cur = float(cur)
    delta = cur - base
    entry = {"base": round(base, 3), "cur": round(cur, 3),
             "delta": round(delta, 3)}
    if band_score(base, cur, tolerance, floor=floor, worse=worse) > 1.0:
        entry["regressed"] = True
        regressions.append(
            f"{label}: {base:g} -> {cur:g} "
            f"({'+' if delta >= 0 else ''}{delta:g})"
        )
    return entry


def diff_runs(base: dict, cur: dict, *, tolerance: float = 0.1) -> dict:
    """Compare two exported run reports.

    Returns a JSON-friendly payload whose ``regressions`` list names
    every metric that moved beyond ``tolerance`` (relative) in the bad
    direction; empty for identical (same-seed) runs.
    """
    tolerance, bmon, cmon = check_runs(base, cur, tolerance,
                                       MonitorError, "diff")
    regressions: list[str] = []
    out: dict = {
        "base_dataset": base.get("dataset"),
        "cur_dataset": cur.get("dataset"),
        "tolerance": tolerance,
    }

    # headline totals
    totals = {}
    if "makespan_ms" in base and "makespan_ms" in cur:
        totals["makespan_ms"] = _flag(
            regressions, "makespan_ms", base["makespan_ms"],
            cur["makespan_ms"], tolerance, worse="up")
    if "throughput_qps" in base and "throughput_qps" in cur:
        totals["throughput_qps"] = _flag(
            regressions, "throughput_qps", base["throughput_qps"],
            cur["throughput_qps"], tolerance, floor="qps", worse="down")
    out["totals"] = totals

    # per-phase time totals (trace exports carry them top-level)
    bp = base.get("phase_ms") or {}
    cp = cur.get("phase_ms") or {}
    out["phase_ms"] = {
        cat: _flag(regressions, f"phase_ms.{cat}",
                   bp.get(cat, 0.0), cp.get(cat, 0.0), tolerance,
                   worse="up")
        for cat in sorted(set(bp) | set(cp))
    }

    if bmon is not None and cmon is not None:
        # overall latency quantiles
        bq = (bmon.get("summary") or {}).get("latency_ms") or {}
        cq = (cmon.get("summary") or {}).get("latency_ms") or {}
        out["quantiles"] = {
            q: _flag(regressions, f"latency.{q}", bq.get(q, 0.0),
                     cq.get(q, 0.0), tolerance, worse="up")
            for q in sorted(set(bq) | set(cq))
        }
        # window-by-window regressions (compared over the shared span)
        bw = bmon.get("windows") or []
        cw = cmon.get("windows") or []
        flagged = []
        for b, c in zip(bw, cw):
            row_regs: list[str] = []
            _flag(row_regs, "qps", b.get("qps", 0.0), c.get("qps", 0.0),
                  tolerance, floor="qps", worse="down")
            _flag(row_regs, "p99_ms", b.get("p99_ms", 0.0),
                  c.get("p99_ms", 0.0), tolerance, worse="up")
            if row_regs:
                w = b.get("w", len(flagged))
                flagged.append({"w": w, "why": row_regs})
                regressions.extend(f"window {w}: {r}" for r in row_regs)
        out["windows"] = {
            "base": len(bw),
            "cur": len(cw),
            "compared": min(len(bw), len(cw)),
            "flagged": flagged,
        }
        # alert volume (more alerts = worse)
        out["alerts"] = _flag(
            regressions, "alerts", len(bmon.get("alerts") or ()),
            len(cmon.get("alerts") or ()), tolerance, floor="count",
            worse="up")
        bh = (bmon.get("health") or {}).get("state")
        ch = (cmon.get("health") or {}).get("state")
        out["health"] = {"base": bh, "cur": ch}
        if bh == "healthy" and ch not in (None, "healthy"):
            regressions.append(f"health: {bh} -> {ch}")
    out["regressions"] = regressions
    return out


def render_diff(data: dict) -> str:
    """Human-readable diff table (the CLI's non-JSON output)."""
    rows = []

    def fam(name, metrics):
        for key in sorted(metrics):
            m = metrics[key]
            rows.append([
                f"{name}.{key}" if name else key,
                f"{m['base']:g}", f"{m['cur']:g}", f"{m['delta']:+g}",
                "REGRESSED" if m.get("regressed") else "ok",
            ])

    fam("", data.get("totals", {}))
    fam("phase_ms", data.get("phase_ms", {}))
    fam("latency", data.get("quantiles", {}))
    if "alerts" in data:
        fam("", {"alerts": data["alerts"]})
    lines = [render_table(
        ["metric", "base", "current", "delta", "status"], rows)]
    windows = data.get("windows")
    if windows:
        lines.append(
            f"windows: {windows['compared']} compared, "
            f"{len(windows['flagged'])} flagged"
        )
    health = data.get("health")
    if health and health.get("base") is not None:
        lines.append(f"health: {health['base']} -> {health['cur']}")
    regs = data.get("regressions", [])
    if regs:
        lines.append(f"{len(regs)} regression(s) beyond "
                     f"tolerance {data.get('tolerance'):g}:")
        lines.extend(f"  - {r}" for r in regs)
    else:
        lines.append("no regressions beyond tolerance "
                     f"{data.get('tolerance'):g}")
    return "\n".join(lines)
