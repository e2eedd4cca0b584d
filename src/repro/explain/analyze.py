"""ANALYZE: execute the explained query and reconcile the prediction.

:func:`analyze_query` runs the query once with a private trace-only
:class:`~repro.obs.telemetry.Telemetry` attached (the dataset's own
telemetry, if any, is saved and restored), distils the recorded span
tree into measured per-phase and per-disk splits, classifies the
measured dominant cost, and reconciles every phase and disk against
EXPLAIN's prediction into a model-error report.  The execution is real
— drives move and the cache warms, exactly as :meth:`QueryBatch.run`
would — but the diagnosis stays in plain dictionaries, so nothing
telemetry-shaped leaks into the payload.
"""

from __future__ import annotations

from repro.errors import ExplainError
from repro.explain.classify import classify_cost

__all__ = ["analyze_query", "measured_from_root", "reconcile"]

_MECH_KEYS = ("seek_ms", "rotation_ms", "transfer_ms", "switch_ms")


def measured_from_root(root) -> dict:
    """Distil one recorded query span tree into measured splits.

    Sums the service spans' mechanical attribution per disk (cache
    service joins that disk's busy time), totals each phase category,
    and derives the cache hit ratio when any cache span was recorded.
    """
    phase_ms: dict[str, float] = {}
    per_disk: dict[str, dict] = {}
    mech = dict.fromkeys(_MECH_KEYS, 0.0)
    cache_ms = 0.0
    hits = blocks = 0
    for span in root.walk():
        if span is root:
            continue
        phase_ms[span.cat] = phase_ms.get(span.cat, 0.0) + span.dur_ms
        disk = span.attrs.get("disk")
        if disk is None:
            continue
        row = per_disk.setdefault(
            str(int(disk)),
            {"busy_ms": 0.0, "blocks": 0, "runs": 0,
             **dict.fromkeys(_MECH_KEYS, 0.0)},
        )
        row["busy_ms"] += span.dur_ms
        if span.cat in ("service", "flush"):
            for key in _MECH_KEYS:
                value = float(span.attrs.get(key, 0.0))
                row[key] += value
                mech[key] += value
            row["blocks"] += int(span.attrs.get("blocks", 0))
            row["runs"] += int(span.attrs.get("runs", 0))
            blocks += int(span.attrs.get("blocks", 0))
        elif span.cat == "cache":
            cache_ms += span.dur_ms
            hits += int(span.attrs.get("hits", 0))
    cache_seen = cache_ms > 0 or hits > 0
    total_accesses = hits + blocks
    hit_ratio = (hits / total_accesses
                 if cache_seen and total_accesses else None)
    out = {
        "total_ms": round(root.dur_ms, 3),
        "phase_ms": {cat: round(ms, 3)
                     for cat, ms in sorted(phase_ms.items())},
        "per_disk": {
            disk: {k: (round(v, 3) if isinstance(v, float) else v)
                   for k, v in row.items()}
            for disk, row in sorted(per_disk.items())
        },
        **{k: round(v, 3) for k, v in mech.items()},
    }
    if cache_seen:
        out["cache"] = {
            "hits": hits,
            "cache_ms": round(cache_ms, 3),
            "hit_ratio": round(hit_ratio, 4) if hit_ratio is not None
            else 0.0,
        }
    out["dominant_cost"] = classify_cost(
        seek_ms=mech["seek_ms"],
        rotation_ms=mech["rotation_ms"],
        transfer_ms=mech["transfer_ms"],
        switch_ms=mech["switch_ms"],
        cache_ms=cache_ms,
        hit_ratio=hit_ratio,
    )
    return out


def _entry(predicted: float, measured: float) -> dict:
    error = measured - predicted
    base = max(abs(measured), abs(predicted))
    return {
        "predicted_ms": round(predicted, 3),
        "measured_ms": round(measured, 3),
        "error_ms": round(error, 3),
        "rel_error": round(abs(error) / base, 4) if base > 0 else 0.0,
    }


def reconcile(predicted: dict, measured: dict) -> dict:
    """Predicted-vs-measured model-error report, per phase and per disk.

    The service phase compares summed per-disk mechanical busy time (the
    scatter accounting EXPLAIN mirrors); the total compares predicted
    makespan plus expected cache service against the measured wall
    clock.  ``summed_abs_error_ms`` / ``summed_rel_error`` aggregate the
    per-phase rows — the bounded number the smoke test gates on.
    """
    pred_service = sum(
        row["busy_ms"] for row in predicted["per_disk"].values()
    )
    meas_service = measured["phase_ms"].get("service", 0.0) + \
        measured["phase_ms"].get("flush", 0.0)
    pred_cache = predicted.get("cache", {}).get("expected_ms", 0.0)
    meas_cache = measured["phase_ms"].get("cache", 0.0)
    per_phase = {
        "service": _entry(pred_service, meas_service),
        "total": _entry(
            predicted["makespan_ms"] + pred_cache, measured["total_ms"]
        ),
    }
    if pred_cache > 0 or meas_cache > 0:
        per_phase["cache"] = _entry(pred_cache, meas_cache)
    per_disk = {}
    disks = set(predicted["per_disk"]) | set(measured["per_disk"])
    for disk in sorted(disks, key=int):
        pred = predicted["per_disk"].get(disk, {}).get("busy_ms", 0.0)
        meas = measured["per_disk"].get(disk, {}).get("busy_ms", 0.0)
        per_disk[disk] = _entry(pred, meas)
    summed_abs = sum(abs(row["error_ms"]) for row in per_phase.values())
    summed_base = sum(
        max(abs(row["measured_ms"]), abs(row["predicted_ms"]))
        for row in per_phase.values()
    )
    return {
        "per_phase": per_phase,
        "per_disk": per_disk,
        "summed_abs_error_ms": round(summed_abs, 3),
        "summed_rel_error": round(summed_abs / summed_base, 4)
        if summed_base > 0 else 0.0,
        "cost_match": predicted["dominant_cost"]
        == measured["dominant_cost"],
    }


def analyze_query(ds, query, predicted: dict) -> tuple[dict, dict]:
    """Run ``query`` once under a private trace and reconcile.

    Returns ``(measured, reconciliation)``.  The dataset's attached
    telemetry (if any) is restored afterwards, so ANALYZE never pollutes
    the user's own trace stream.
    """
    from repro.obs import Telemetry

    storage = ds.storage
    saved_obs = storage.obs
    tele = Telemetry(trace=True, metrics=False)
    storage.obs = tele
    try:
        storage.run_query(query, rng=ds.rng())
    finally:
        storage.obs = saved_obs
    roots = tele.tracer.roots
    if not roots:
        raise ExplainError("ANALYZE recorded no query span")
    measured = measured_from_root(roots[0])
    return measured, reconcile(predicted, measured)
