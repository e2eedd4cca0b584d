"""Run-to-run comparison: the one scorer behind every regression gate.

``repro-bench diff base.json current.json`` loads two reports written
by ``trace --json`` (anything carrying ``makespan_ms``/``phase_ms``)
and compares their headline totals and per-phase times, flagging every
metric that moved beyond a relative tolerance band (with small absolute
floors so sub-millisecond noise never flags).  Two same-seed runs are
bit-identical, so a clean diff is an exact-zero check — which is what
the CI smoke job relies on.

The band rule (:func:`band_score`), its floor table and the input
checks (:func:`validate_report`) also serve ``diff --attribute``
(:func:`repro.explain.attribute_runs`) and ``perf --check``
(:func:`repro.perf.sweep.check_perf`).  Bad inputs raise
:class:`~repro.errors.DiffError`.
"""

from __future__ import annotations

import json
import math
from numbers import Real
from pathlib import Path

from repro.bench.reporting import render_table
from repro.errors import DiffError

__all__ = ["band_edge", "band_score", "check_runs", "diff_runs",
           "load_report", "render_diff", "validate_report"]

#: absolute floors under which a delta never flags, keyed per metric
#: family — tolerance bands are relative, these stop tiny denominators;
#: ``relative`` is the zero floor of the purely relative perf bands
_FLOORS = {"ms": 1.0, "qps": 1.0, "util": 0.02, "relative": 0.0}


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


def load_report(path, error=DiffError) -> dict:
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


#: what diff and attribution read from a report
_RUN = {
    "makespan_ms": float,
    "throughput_qps": float,
    "phase_ms": {str: float},
    "utilization": {"busy": {int: [float]}},
    "slowest": [{"name!": str, "dur_ms!": float}],
}


def check_runs(base, cur, tolerance, error, what: str) -> float:
    """Check the inputs of a base → current comparison (``what`` is
    ``diff`` or ``attribution``), raising ``error``; returns the
    tolerance as a float."""
    if not isinstance(base, dict) or not isinstance(cur, dict):
        raise error(f"{what} inputs must be exported report dicts")
    tolerance = float(tolerance)
    if not math.isfinite(tolerance):
        raise error(f"tolerance must be finite, got {tolerance}")
    if tolerance < 0:
        raise error(f"tolerance must be >= 0, got {tolerance}")
    for name, data in (("base", base), ("current", cur)):
        validate_report(data, _RUN, error, name)
    return tolerance


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
    tolerance = check_runs(base, cur, tolerance, DiffError, "diff")
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
    lines = [render_table(
        ["metric", "base", "current", "delta", "status"], rows)]
    regs = data.get("regressions", [])
    if regs:
        lines.append(f"{len(regs)} regression(s) beyond "
                     f"tolerance {data.get('tolerance'):g}:")
        lines.extend(f"  - {r}" for r in regs)
    else:
        lines.append("no regressions beyond tolerance "
                     f"{data.get('tolerance'):g}")
    return "\n".join(lines)
