"""Regression attribution: localize *why* two runs diverged.

``repro-bench diff`` says *that* a run regressed; :func:`attribute_runs`
says *where*.  Given the same two exported reports (``trace`` or
``dashboard`` JSON), it localizes the divergence to specific phases,
disks, queries, and monitor signals, scoring each suspect with the
diff's own band rule (:func:`repro.monitor.diff.band_score`, the same
floors and the same input checks) and ranking worst-first.  Two
same-seed runs are bit-identical, so a clean run attributes to zero
suspects — the CI smoke's exact-zero check.

Suspect kinds:

``phase``    a span category's total time grew (prepare / cache /
             service / flush / failover / reorg)
``disk``     one drive's mean utilisation rose — a hotspot or a
             failed-over neighbour absorbing reads
``query``    a named query got slower, with its plan-shape drift
             (cells) when the reports carry it
``alerts``   more SLO alerts fired
``health``   the health state machine ended somewhere worse
"""

from __future__ import annotations

from repro.bench.reporting import render_table
from repro.errors import ExplainError
from repro.monitor.diff import band_score, check_runs

__all__ = ["attribute_runs", "render_attribution"]

#: health states ordered best to worst, for decline detection
_HEALTH_ORDER = ("healthy", "recovering", "degraded", "saturated")


def _suspect(kind: str, name: str, base: float, cur: float,
             score: float, why: str) -> dict:
    return {
        "kind": kind,
        "name": name,
        "base": round(base, 3),
        "cur": round(cur, 3),
        "delta": round(cur - base, 3),
        "score": round(score, 3),
        "why": why,
    }


def _mean_util(report: dict) -> dict[str, float]:
    busy = (report.get("utilization") or {}).get("busy") or {}
    return {
        disk: (sum(row) / len(row) if row else 0.0)
        for disk, row in busy.items()
    }


def attribute_runs(base: dict, cur: dict, *,
                   tolerance: float = 0.1) -> dict:
    """Rank the suspects behind a base→current regression.

    Both inputs are exported report dicts (the ``diff`` subcommand's
    inputs).  Returns a JSON-friendly payload with ``suspects`` sorted
    by descending score (worst offender first) and a one-line
    ``summary``; both empty/clean for identical runs.
    """
    tolerance, bmon, cmon = check_runs(base, cur, tolerance,
                                       ExplainError, "attribution")
    suspects: list[dict] = []

    # 1. phase totals — which span category grew
    bp = base.get("phase_ms") or {}
    cp = cur.get("phase_ms") or {}
    for cat in sorted(set(bp) | set(cp)):
        b, c = float(bp.get(cat, 0.0)), float(cp.get(cat, 0.0))
        score = band_score(b, c, tolerance, floor="ms")
        if score > 1.0:
            suspects.append(_suspect(
                "phase", cat, b, c, score,
                f"{cat} time grew {c - b:+.1f} ms",
            ))

    # 2. per-disk mean utilisation — which drive got hotter
    bu, cu = _mean_util(base), _mean_util(cur)
    for disk in sorted(set(bu) | set(cu), key=int):
        b, c = bu.get(disk, 0.0), cu.get(disk, 0.0)
        score = band_score(b, c, tolerance, floor="util")
        if score > 1.0:
            suspects.append(_suspect(
                "disk", f"d{disk}", b, c, score,
                f"disk {disk} mean utilisation rose "
                f"{b:.0%} -> {c:.0%}",
            ))

    # 3. named slowest queries — which query slowed, and did its plan
    #    shape drift
    bq = {q["name"]: q for q in base.get("slowest") or ()}
    cq = {q["name"]: q for q in cur.get("slowest") or ()}
    for name in sorted(set(bq) & set(cq)):
        b, c = float(bq[name]["dur_ms"]), float(cq[name]["dur_ms"])
        score = band_score(b, c, tolerance, floor="ms")
        if score > 1.0:
            why = f"query {name} slowed {c - b:+.2f} ms"
            b_cells = bq[name].get("cells")
            c_cells = cq[name].get("cells")
            if b_cells is not None and b_cells != c_cells:
                why += f" (plan shape drifted: {b_cells} -> {c_cells} cells)"
            suspects.append(_suspect("query", name, b, c, score, why))

    # 4. monitor signals — alert volume and health decline
    if bmon is not None and cmon is not None:
        b_alerts = len(bmon.get("alerts") or ())
        c_alerts = len(cmon.get("alerts") or ())
        score = band_score(b_alerts, c_alerts, tolerance, floor="count")
        if score > 1.0:
            new_rules = sorted(
                {a.get("rule") for a in cmon.get("alerts") or ()}
                - {a.get("rule") for a in bmon.get("alerts") or ()}
            )
            why = f"alert volume rose {b_alerts} -> {c_alerts}"
            if new_rules:
                why += f" (new rules: {', '.join(map(str, new_rules))})"
            suspects.append(_suspect(
                "alerts", "alerts", b_alerts, c_alerts, score, why,
            ))
        bh = (bmon.get("health") or {}).get("state")
        ch = (cmon.get("health") or {}).get("state")
        if (bh in _HEALTH_ORDER and ch in _HEALTH_ORDER
                and _HEALTH_ORDER.index(ch) > _HEALTH_ORDER.index(bh)):
            suspects.append(_suspect(
                "health", "health",
                _HEALTH_ORDER.index(bh), _HEALTH_ORDER.index(ch),
                float(_HEALTH_ORDER.index(ch) - _HEALTH_ORDER.index(bh)),
                f"health declined {bh} -> {ch}",
            ))

    suspects.sort(key=lambda s: (-s["score"], s["kind"], s["name"]))
    if suspects:
        top = suspects[0]
        summary = (
            f"{len(suspects)} suspect(s); top: {top['why']}"
        )
    else:
        summary = "no suspects — runs agree within tolerance"
    return {
        "tolerance": tolerance,
        "suspects": suspects,
        "summary": summary,
    }


def render_attribution(data: dict) -> str:
    """Human-readable suspect ranking (the CLI's non-JSON output)."""
    lines = [f"attribution: {data['summary']}"]
    if data["suspects"]:
        rows = [
            [s["kind"], s["name"], f"{s['base']:g}", f"{s['cur']:g}",
             f"{s['delta']:+g}", f"{s['score']:.1f}x", s["why"]]
            for s in data["suspects"]
        ]
        lines.append(render_table(
            ["kind", "name", "base", "current", "delta", "band", "why"],
            rows,
        ))
    return "\n".join(lines)
