"""The ``repro-bench explain`` subcommand's engine and renderer.

:func:`run_explain` builds one seeded Dataset per requested layout
(optionally sharded / replicated / cached), EXPLAINs one query on each
— and, with ``--analyze``, executes it once to reconcile prediction
against measurement.  ``--model`` adds the §4 analytic model's
predicted beam speedups per axis and range speedups at example
selectivities, surfacing ``predicted_beam_speedups`` /
``predicted_range_speedup`` which previously had no CLI caller.
"""

from __future__ import annotations

from repro.analytic.model import AnalyticModel, DriveParameters
from repro.errors import ExplainError
from repro.explain.plan import _multimap_k
from repro.query.workload import BeamQuery, RangeQuery, range_for_selectivity

__all__ = ["model_block", "render_explain", "run_explain"]


def _build_query(shape, *, axis: int | None, fixed, box):
    """A beam on ``axis`` (other coordinates centred unless ``fixed``
    pins them), or the range box ``lo,..:hi,..`` when given."""
    if box is not None:
        lo, hi = box
        if len(lo) != len(shape) or len(hi) != len(shape):
            raise ExplainError(
                f"box rank {len(lo)} does not match shape rank "
                f"{len(shape)}"
            )
        return RangeQuery(tuple(lo), tuple(hi))
    axis = 0 if axis is None else int(axis)
    if not 0 <= axis < len(shape):
        raise ExplainError(f"axis {axis} outside shape rank {len(shape)}")
    if fixed is None:
        full = [0 if i == axis else s // 2 for i, s in enumerate(shape)]
    else:
        fixed = [int(v) for v in fixed]
        if len(fixed) == len(shape) - 1:
            # the beam axis was omitted; its entry is ignored anyway
            fixed.insert(axis, 0)
        if len(fixed) != len(shape):
            raise ExplainError(
                f"--fixed needs {len(shape)} (or {len(shape) - 1}) "
                f"coordinates, got {len(fixed)}"
            )
        full = fixed
    return BeamQuery(axis, tuple(full))


def model_block(ds, shape) -> dict:
    """The analytic model's full prediction table for ``shape`` on the
    dataset's drive: beam speedup per axis plus range speedups at 1%
    and 10% selectivity."""
    params = DriveParameters.from_model(
        ds.volume.models[0], 0, depth=ds.volume.depth(0)
    )
    model = AnalyticModel(params)
    k = _multimap_k(ds)
    beams = model.predicted_beam_speedups(shape, k)
    ranges = {}
    for pct in (1.0, 10.0):
        box = range_for_selectivity(shape, pct)
        ranges[f"{pct:g}%"] = round(
            model.predicted_range_speedup(shape, box, k), 3
        )
    return {
        "drive": ds.drive_name,
        "depth": params.depth,
        "beam_speedups": {str(axis): round(s, 3)
                          for axis, s in beams.items()},
        "range_speedups": ranges,
    }


def run_explain(shape, *, layouts=("multimap",), drive: str = "minidrive",
                axis: int | None = None, fixed=None, box=None,
                shards: int | None = None, k: int | None = None,
                cache_blocks: int = 0, prefetch: str = "none", seed=42,
                analyze: bool = False, model: bool = False) -> dict:
    """EXPLAIN (and optionally ANALYZE) one query across layouts."""
    from repro.api.dataset import Dataset

    shape = tuple(int(s) for s in shape)
    query = _build_query(shape, axis=axis, fixed=fixed, box=box)
    data: dict = {
        "shape": list(shape),
        "drive": drive,
        "seed": seed,
        "analyze": bool(analyze),
        "layouts": {},
    }
    model_ds = None
    for layout in layouts:
        ds = Dataset.create(shape, layout=layout, drive=drive, seed=seed)
        if shards and int(shards) > 1:
            ds.with_shards(int(shards))
        if k and int(k) > 1:
            ds.with_replication(int(k))
        if cache_blocks:
            ds.with_cache(int(cache_blocks), prefetch=prefetch)
        data["layouts"][layout] = ds.explain(query, analyze=analyze)
        if model_ds is None or layout == "multimap":
            model_ds = ds
    if model:
        data["model"] = model_block(model_ds, shape)
    return data


def _fmt_split(row: dict) -> str:
    return (f"seek {row['seek_ms']:g}, rot {row['rotation_ms']:g}, "
            f"xfer {row['transfer_ms']:g}, switch {row['switch_ms']:g}")


def _render_one(layout: str, entry: dict) -> list[str]:
    """The plan tree + compact table for one layout's EXPLAIN."""
    from repro.bench.reporting import render_table

    plan = entry["plan"]
    pred = entry["predicted"]
    steps = plan["steps"]
    q = entry["query"]
    if q["kind"] == "beam":
        qdesc = f"beam(axis={q['axis']}, fixed={tuple(q['fixed'])})"
    else:
        qdesc = f"range({tuple(q['lo'])} -> {tuple(q['hi'])})"
    lines = [
        f"EXPLAIN {qdesc} on {layout} @ {entry['drive']}",
        f"└─ plan: {plan['n_cells']} cells -> {plan['runs']} runs / "
        f"{plan['blocks']} blocks "
        f"(raw {plan['raw_runs']}, policy {plan['policy']})",
        f"   ├─ pattern: {plan['pattern']} "
        f"({steps['sequential']} seq / {steps['semi_sequential']} semi / "
        f"{steps['random']} random steps)",
    ]
    hist = plan["run_length_histogram"]
    if hist:
        shown = ", ".join(f"{k}x{v}" for k, v in list(hist.items())[:6])
        if len(hist) > 6:
            shown += ", ..."
        lines.append(f"   ├─ run lengths: {shown}")
    for disk, row in pred["per_disk"].items():
        lines.append(
            f"   ├─ disk {disk}: predicted {row['busy_ms']:g} ms "
            f"({_fmt_split(row)})"
        )
    if "cache" in pred:
        cache = pred["cache"]
        lines.append(
            f"   ├─ cache: {cache['expected_hits']} expected hits "
            f"({cache['expected_hit_ratio']:.0%}), "
            f"{cache['expected_ms']:g} ms"
        )
    if "fanout" in entry:
        fan = entry["fanout"]
        lines.append(
            f"   ├─ fan-out: {fan['subplans']} sub-plans over disks "
            f"{fan['disks']} ({fan['shards']} shards)"
        )
    if "routing" in entry:
        route = entry["routing"]
        copies = ", ".join(
            f"c{s['chunk']}->copy{s['copy']}@d{s['disk']}"
            for s in route["sources"][:6]
        )
        if len(route["sources"]) > 6:
            copies += ", ..."
        lines.append(
            f"   ├─ routing ({route['read_policy']}, k={route['k']}): "
            f"{copies}"
        )
    analytic = entry["analytic"]
    lines.append(
        f"   ├─ analytic: naive {analytic['naive_ms']:g} ms vs multimap "
        f"{analytic['multimap_ms']:g} ms "
        f"(predicted speedup {analytic['predicted_speedup']:g}x)"
    )
    lines.append(
        f"   └─ predicted makespan {pred['makespan_ms']:g} ms — "
        f"{pred['dominant_cost']}"
    )
    if "measured" in entry:
        meas = entry["measured"]
        rec = entry["reconciliation"]
        lines.append(
            f"ANALYZE: measured {meas['total_ms']:g} ms — "
            f"{meas['dominant_cost']} "
            f"({'matches' if rec['cost_match'] else 'differs from'} "
            f"prediction)"
        )
        rows = [
            [phase, f"{row['predicted_ms']:g}", f"{row['measured_ms']:g}",
             f"{row['error_ms']:+g}", f"{row['rel_error']:.1%}"]
            for phase, row in rec["per_phase"].items()
        ]
        lines.append(render_table(
            ["phase", "predicted", "measured", "error", "rel"], rows))
        lines.append(
            f"model error: {rec['summed_abs_error_ms']:g} ms summed "
            f"({rec['summed_rel_error']:.1%} relative)"
        )
    return lines


def render_explain(data: dict) -> str:
    """Console rendering: one plan tree per layout, plus the analytic
    model table when requested."""
    from repro.bench.reporting import render_table

    parts: list[str] = []
    for layout, entry in data["layouts"].items():
        parts.extend(_render_one(layout, entry))
    model = data.get("model")
    if model:
        rows = [[f"beam axis {axis}", f"{s:g}x"]
                for axis, s in model["beam_speedups"].items()]
        rows += [[f"range {sel}", f"{s:g}x"]
                 for sel, s in model["range_speedups"].items()]
        parts.append(
            f"analytic model ({model['drive']}, D={model['depth']}): "
            f"predicted multimap speedup vs naive"
        )
        parts.append(render_table(["query", "speedup"], rows))
    return "\n".join(parts)
