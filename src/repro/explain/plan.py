"""EXPLAIN: static, no-execution plan inspection for a Dataset query.

:func:`explain_query` prepares a query exactly the way execution would
— §5.2 run coalescing, SPTF clamping, shard splitting, replica routing
— but against *ghost* state, so nothing observable changes: the live
drives never move, the buffer pool is consulted through the
non-mutating :meth:`BufferPool.peek_plan` probe, and preparation
records no routing stats (a run counts its own).  Predicted per-run
mechanical cost comes from servicing
the prepared runs on a fresh drive instance built from the same
:class:`DiskModel` (deterministic: track 0, time 0), mirroring the
scatter-gather accounting (per-disk sub-plans back to back, makespan =
slowest disk).
"""

from __future__ import annotations

import numpy as np

from repro.analytic.model import AnalyticModel, DriveParameters
from repro.disk.drive import DiskDrive
from repro.errors import ExplainError
from repro.explain.classify import (
    classify_cost,
    classify_runs,
    run_length_histogram,
)
from repro.query.scheduler import DEFAULT_WINDOW
from repro.query.workload import BeamQuery, RangeQuery
from repro.replica.executor import READ_POLICY

__all__ = [
    "analytic_block",
    "explain_query",
    "predict_mechanics",
    "prepare_readonly",
    "query_spec",
]

#: sentinel attached as ``storage.obs`` during read-only preparation so
#: prepared sub-plans carry their raw (pre-coalescing) run counts; the
#: prepare path only checks ``obs is not None``, never calls into it
_RAW_PROBE = object()


def query_spec(query) -> dict:
    """A JSON-friendly description of a beam or range query."""
    if isinstance(query, BeamQuery):
        return {
            "kind": "beam",
            "axis": int(query.axis),
            "fixed": [int(v) for v in query.fixed],
            "lo": int(query.lo),
            "hi": None if query.hi is None else int(query.hi),
        }
    if isinstance(query, RangeQuery):
        return {
            "kind": "range",
            "lo": [int(v) for v in query.lo],
            "hi": [int(v) for v in query.hi],
        }
    raise ExplainError(f"cannot explain query of type {type(query).__name__}")


def prepare_readonly(ds, query):
    """Prepare ``query`` on ``ds`` without mutating any live state.

    The cache is detached for the duration, so plans cover every block
    and cache stats stay untouched; preparation records nothing else
    (routing totals are counted by the run that services a query).
    """
    storage = ds.storage
    saved_cache = storage.cache
    saved_obs = storage.obs
    storage.cache = None
    storage.obs = _RAW_PROBE
    try:
        return storage.prepare(query)
    finally:
        storage.cache = saved_cache
        storage.obs = saved_obs


def predict_mechanics(volume, prepared, *,
                      window: int = DEFAULT_WINDOW) -> dict:
    """Predicted mechanical cost of a prepared query, per disk.

    Each involved disk gets a fresh ghost :class:`DiskDrive` built from
    its model (cold: track 0, time 0) that services the disk's sub-plans
    back to back — the scatter-gather accounting — collecting per-run
    service times.  Returns per-disk splits, the aggregate split, the
    predicted makespan, and a per-run summary.
    """
    by_disk: dict[int, list] = {}
    for sub in prepared.subs:
        by_disk.setdefault(int(sub.disk_index), []).append(sub)
    per_disk = {}
    agg = {"seek_ms": 0.0, "rotation_ms": 0.0, "transfer_ms": 0.0,
           "switch_ms": 0.0}
    makespan = 0.0
    run_ms: list[np.ndarray] = []
    for disk, subs in by_disk.items():
        ghost = DiskDrive(volume.models[disk])
        busy = 0.0
        split = {"seek_ms": 0.0, "rotation_ms": 0.0, "transfer_ms": 0.0,
                 "switch_ms": 0.0}
        blocks = runs = 0
        for sub in subs:
            res = ghost.service_runs(
                sub.plan.starts, sub.plan.lengths,
                policy=sub.policy, window=window, collect=True,
            )
            busy += res.total_ms
            split["seek_ms"] += res.seek_ms
            split["rotation_ms"] += res.rotation_ms
            split["transfer_ms"] += res.transfer_ms
            split["switch_ms"] += res.switch_ms
            blocks += res.n_blocks
            runs += res.n_requests
            if res.per_request_ms is not None and res.per_request_ms.size:
                run_ms.append(res.per_request_ms)
        for key, value in split.items():
            agg[key] += value
        makespan = max(makespan, busy)
        per_disk[str(disk)] = {
            "busy_ms": round(busy, 3),
            "blocks": blocks,
            "runs": runs,
            **{k: round(v, 3) for k, v in split.items()},
        }
    out = {
        "per_disk": per_disk,
        "makespan_ms": round(makespan, 3),
        **{k: round(v, 3) for k, v in agg.items()},
    }
    if run_ms:
        all_runs = np.concatenate(run_ms)
        out["per_run_ms"] = {
            "min": round(float(all_runs.min()), 4),
            "mean": round(float(all_runs.mean()), 4),
            "max": round(float(all_runs.max()), 4),
        }
    return out


def analytic_block(ds, query) -> dict:
    """The §4 expected-cost model's prediction for this query's shape:
    naive vs multimap cost and the implied speedup (layout-agnostic —
    the model compares the two canonical layouts)."""
    model_obj = ds.volume.models[0]
    params = DriveParameters.from_model(
        model_obj, 0, depth=ds.volume.depth(0)
    )
    model = AnalyticModel(params)
    k = _multimap_k(ds)
    if isinstance(query, BeamQuery):
        naive = model.naive_beam_ms(ds.shape, query.axis)
        multi = model.multimap_beam_ms(ds.shape, query.axis, k)
        out = {"kind": "beam", "axis": int(query.axis)}
    else:
        shape = query.shape
        naive = model.naive_range_ms(ds.shape, shape)
        multi = model.multimap_range_ms(ds.shape, shape, k)
        out = {"kind": "range", "box": [int(s) for s in shape]}
    out.update(
        naive_ms=round(naive, 3),
        multimap_ms=round(multi, 3),
        predicted_speedup=round(naive / multi, 3) if multi > 0 else None,
    )
    return out


def _multimap_k(ds):
    """The basic-cube dimensions of the dataset's first multimap chunk
    mapper, else ``None`` (the model picks its own)."""
    for chunk_mapper in ds.storage.mapper.chunk_mappers:
        k = getattr(chunk_mapper, "K", None)
        if k is not None:
            return k
    return None


def _peek_cache(storage, prepared) -> dict | None:
    """Expected buffer-pool hits for the prepared (cache-less) plans,
    probed without mutating pool policy or stats."""
    pool = storage.cache
    if pool is None:
        return None
    hits = hit_runs = blocks = 0
    for sub in prepared.subs:
        h, r = pool.peek_plan(sub.disk_index, sub.plan)
        hits += h
        hit_runs += r
        blocks += sub.n_blocks
    return {
        "expected_hits": hits,
        "expected_hit_runs": hit_runs,
        "expected_hit_ratio": round(hits / blocks, 4) if blocks else 0.0,
        "expected_ms": round(hits * pool.service_ms_per_block, 4),
    }


def explain_query(ds, query) -> dict:
    """EXPLAIN ``query`` on ``ds``: plan structure, access-pattern
    classification, predicted mechanical cost, expected cache hits,
    shard fan-out, and replica routing — with zero side effects."""
    storage = ds.storage
    spec = query_spec(query)  # rejects unknown query types up front
    prepared = prepare_readonly(ds, query)
    subs = prepared.subs
    volume = ds.volume

    sub_rows = []
    steps = {"sequential": 0, "semi_sequential": 0, "random": 0}
    histogram: dict[str, int] = {}
    raw_runs = 0
    for sub in subs:
        cls = classify_runs(volume, sub.disk_index, sub.plan)
        for name, count in cls["steps"].items():
            steps[name] += count
        for length, count in run_length_histogram(sub.plan).items():
            histogram[length] = histogram.get(length, 0) + count
        raw = (sub.obs or {}).get("raw_runs", sub.plan.n_runs)
        raw_runs += int(raw)
        sub_rows.append({
            "disk": int(sub.disk_index),
            "policy": sub.policy,
            "runs": cls["runs"],
            "blocks": cls["blocks"],
            "raw_runs": int(raw),
            "pattern": cls["pattern"],
        })
    total_steps = sum(steps.values())
    if total_steps == 0:
        pattern = "single"
    else:
        order = ("sequential", "semi_sequential", "random")
        pattern = max(order, key=lambda n: (steps[n], -order.index(n)))

    predicted = predict_mechanics(volume, prepared, window=storage.window)
    cache = _peek_cache(storage, prepared)
    if cache is not None:
        predicted["cache"] = cache
    predicted["dominant_cost"] = classify_cost(
        seek_ms=predicted["seek_ms"],
        rotation_ms=predicted["rotation_ms"],
        transfer_ms=predicted["transfer_ms"],
        switch_ms=predicted["switch_ms"],
    )

    data = {
        "layout": ds.layout,
        "drive": ds.drive_name,
        "shape": [int(s) for s in ds.shape],
        "query": spec,
        "plan": {
            "policy": prepared.policy,
            "n_cells": int(prepared.n_cells),
            "runs": int(prepared.n_runs),
            "blocks": int(prepared.n_blocks),
            "raw_runs": raw_runs,
            "run_length_histogram": dict(
                sorted(histogram.items(), key=lambda kv: int(kv[0]))
            ),
            "pattern": pattern,
            "steps": steps,
            "subs": sub_rows,
        },
        "predicted": predicted,
        "analytic": analytic_block(ds, query),
    }
    if ds.n_shards > 1:
        data["fanout"] = {
            "shards": int(ds.n_shards),
            "subplans": len(subs),
            "disks": [int(d) for d in prepared.disks],
        }
    if ds.replication_k > 1:
        data["routing"] = {
            "read_policy": READ_POLICY,
            "k": int(ds.replication_k),
            "failed_disks": sorted(int(d) for d in storage.failed),
            "sources": [
                {
                    "chunk": int(src.chunk),
                    "copy": int(src.copy),
                    "disk": int(sub.disk_index),
                }
                for src, sub in zip(prepared.sources, subs)
            ],
        }
    return data
