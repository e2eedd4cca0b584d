"""The ``repro-bench perf`` sweep: plan-preparation throughput per layout.

For each layout the sweep builds a dataset, replays a pinned seeded
workload (full-length beams cycling every axis, random range cubes, and
one full-box scan) through the dataset's storage manager
(``storage.prepare``), and records:

* ``plans_per_s`` / ``cells_per_s`` — fast-path preparation throughput
  (best of ``repeats`` passes);
* ``prep_share`` — preparation wall time as a fraction of prepare +
  simulated service, the prep-vs-service split;
* ``speedup_vs_reference`` — the same storage manager against
  :func:`repro.perf.reference.reference_prepare` on a capped subset of
  the workload.  Every subset plan is asserted bit-identical between
  the two pipelines before timing is trusted, so the number can never
  describe diverging plans.

``speedup_vs_reference`` compares two measurements taken on the same
machine in the same process, so it is stable across hardware —
:func:`check_perf` gates primarily on it, with a very wide band on the
absolute throughputs, which is what keeps the CI gate meaningful on
shared runners.  Both bands are scored by the diff layer's
:func:`~repro.bench.diff.band_score` under its zero ``relative``
floor, and both inputs pass its report validator first.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from repro.errors import BenchmarkError
from repro.bench.diff import band_edge, band_score, validate_report
from repro.perf.memo import MEMO
from repro.perf.reference import reference_codes, reference_prepare
from repro.query.workload import BeamQuery, RangeQuery, random_beam, \
    random_range_cube

__all__ = ["run_perf_sweep", "render_perf_sweep", "check_perf"]

#: the fields :func:`check_perf` reads from a sweep and its baseline
_SWEEP = {"meta": object, str: {"speedup_vs_reference!": float,
                                "plans_per_s!": float, "cells_per_s!": float}}


def _query_cells(query, shape) -> int:
    if isinstance(query, BeamQuery):
        return query.n_cells(shape)
    return query.n_cells()


def _build_workload(shape, n_beams, n_ranges, selectivity_pct,
                    full_ranges, seed) -> list:
    rng = np.random.default_rng(seed)
    queries = []
    n_dims = len(shape)
    for i in range(n_beams):
        queries.append(random_beam(shape, i % n_dims, rng))
    for _ in range(n_ranges):
        queries.append(random_range_cube(shape, selectivity_pct, rng))
    for _ in range(full_ranges):
        queries.append(RangeQuery((0,) * n_dims, tuple(shape)))
    return queries


def _assert_prepared_equal(prepared, ref, layout, query) -> None:
    """The one-disk dataset's query is one sub-plan, pinned field by
    field to the reference preparation."""
    if len(prepared.subs) != 1:
        raise BenchmarkError(
            f"expected one sub-plan for layout {layout!r} on {query!r}, "
            f"got {len(prepared.subs)}"
        )
    fast = prepared.subs[0]
    same = (
        fast.mapper_name == ref.mapper_name
        and fast.disk_index == ref.disk_index
        and fast.policy == ref.policy
        and fast.n_cells == ref.n_cells
        and fast.plan.policy == ref.plan.policy
        and fast.plan.merge_gap == ref.plan.merge_gap
        and np.array_equal(fast.plan.starts, ref.plan.starts)
        and np.array_equal(fast.plan.lengths, ref.plan.lengths)
    )
    if not same:
        raise BenchmarkError(
            f"vectorized plan diverged from reference for layout "
            f"{layout!r} on {query!r}"
        )


def run_perf_sweep(
    shape,
    layouts=("naive", "zorder", "hilbert", "multimap"),
    *,
    drive: str = "atlas10k3",
    n_beams: int = 12,
    n_ranges: int = 4,
    selectivity_pct: float = 12.5,
    full_ranges: int = 1,
    repeats: int = 3,
    ref_plans: int = 8,
    ref_cell_cap: int = 4096,
    seed: int = 42,
) -> dict:
    """Measure plan-preparation throughput per layout.

    Returns ``{layout: metrics, "meta": {...}}``; the metrics dict is
    the JSON payload ``BENCH_perf.json`` pins.
    """
    from repro.api.dataset import Dataset

    shape = tuple(int(s) for s in shape)
    if repeats < 1:
        raise BenchmarkError("repeats must be >= 1")
    queries = _build_workload(shape, n_beams, n_ranges, selectivity_pct,
                              full_ranges, seed)
    total_cells = sum(_query_cells(q, shape) for q in queries)
    data: dict = {}
    for layout in layouts:
        t0 = perf_counter()
        ds = Dataset.create(shape, layout=layout, drive=drive, seed=seed)
        mapper = ds.mapper
        if hasattr(mapper, "rank_table"):
            mapper.rank_table()
        build_ms = (perf_counter() - t0) * 1e3
        reference_codes(mapper)  # the reference's own table, untimed
        storage = ds.storage

        best = float("inf")
        for _ in range(repeats):
            t0 = perf_counter()
            for q in queries:
                storage.prepare(q)
            best = min(best, perf_counter() - t0)
        prep_ms = best * 1e3

        # prep-vs-service split: one more prepare pass, then execute
        rng = np.random.default_rng(seed)
        t0 = perf_counter()
        prepared = [storage.prepare(q) for q in queries]
        prep_once_ms = (perf_counter() - t0) * 1e3
        t0 = perf_counter()
        for p in prepared:
            storage.execute_prepared(p, rng=rng)
        exec_ms = (perf_counter() - t0) * 1e3

        # reference subset: cap per-query cells so the per-cell Python
        # pipeline stays seconds-scale, and pin bit-identical plans
        subset = [
            q for q in queries if _query_cells(q, shape) <= ref_cell_cap
        ][:ref_plans]
        if not subset:
            raise BenchmarkError(
                "ref_cell_cap excluded every query from the reference "
                "subset; raise it or shrink the workload"
            )
        fast_best = float("inf")
        sub_fast = []
        for _ in range(repeats):
            t0 = perf_counter()
            sub_fast = [storage.prepare(q) for q in subset]
            fast_best = min(fast_best, perf_counter() - t0)
        fast_ms = fast_best * 1e3
        t0 = perf_counter()
        sub_ref = [reference_prepare(storage, mapper, q) for q in subset]
        ref_ms = (perf_counter() - t0) * 1e3
        for q, fast, ref in zip(subset, sub_fast, sub_ref):
            _assert_prepared_equal(fast, ref, layout, q)

        data[layout] = {
            "n_plans": len(queries),
            "n_cells": int(total_cells),
            "build_ms": round(build_ms, 3),
            "prep_ms": round(prep_ms, 3),
            "plans_per_s": round(len(queries) / (prep_ms / 1e3), 1),
            "cells_per_s": round(total_cells / (prep_ms / 1e3), 1),
            "exec_ms": round(exec_ms, 3),
            "prep_share": round(
                prep_once_ms / (prep_once_ms + exec_ms), 4
            ),
            "ref_plans": len(subset),
            "ref_ms": round(ref_ms, 3),
            "fast_ms": round(fast_ms, 3),
            "speedup_vs_reference": round(ref_ms / fast_ms, 1),
        }
    data["meta"] = {
        "shape": list(shape),
        "drive": drive,
        "n_beams": n_beams,
        "n_ranges": n_ranges,
        "selectivity_pct": selectivity_pct,
        "full_ranges": full_ranges,
        "repeats": repeats,
        "ref_plans": ref_plans,
        "ref_cell_cap": ref_cell_cap,
        "seed": seed,
        "memo": MEMO.stats(),
    }
    return data


def render_perf_sweep(data: dict) -> str:
    from repro.bench.reporting import render_table

    headers = ["layout", "plans/s", "cells/s", "prep ms", "exec ms",
               "prep share", "speedup vs ref"]
    rows = []
    for layout, row in data.items():
        if layout == "meta":
            continue
        rows.append([
            layout,
            f"{row['plans_per_s']:.0f}",
            f"{row['cells_per_s']:.0f}",
            f"{row['prep_ms']:.2f}",
            f"{row['exec_ms']:.2f}",
            f"{row['prep_share']:.3f}",
            f"{row['speedup_vs_reference']:.1f}x",
        ])
    return render_table(headers, rows)


def check_perf(
    data: dict,
    baseline: dict,
    *,
    tolerance: float = 0.5,
    throughput_tolerance: float = 0.9,
) -> list[str]:
    """Compare a sweep against a pinned baseline; returns violations.

    ``speedup_vs_reference`` is machine-relative (both pipelines timed
    on the same box), so it gets the tight band: each layout must keep
    at least ``(1 - tolerance)`` of the baseline speedup.  The absolute
    throughputs only guard against catastrophic collapse — shared CI
    runners are allowed to be up to ``1 / (1 - throughput_tolerance)``
    times slower than the machine that produced the baseline.
    """
    if not 0 <= tolerance < 1 or not 0 <= throughput_tolerance < 1:
        raise BenchmarkError("tolerances must be in [0, 1)")
    validate_report(baseline, _SWEEP, BenchmarkError, "baseline")
    validate_report(data, _SWEEP, BenchmarkError, "sweep")
    violations = []
    for layout, base in baseline.items():
        if layout == "meta":
            continue
        cur = data.get(layout)
        if cur is None:
            violations.append(f"{layout}: missing from this sweep")
            continue
        for metric, tol, show in (
            ("speedup_vs_reference", tolerance, "{:.1f}x".format),
            ("plans_per_s", throughput_tolerance, "{:.0f}".format),
            ("cells_per_s", throughput_tolerance, "{:.0f}".format),
        ):
            b, c = base[metric], cur[metric]
            if band_score(b, c, tol, floor="relative", worse="down") > 1:
                edge = band_edge(b, tol, floor="relative", worse="down")
                violations.append(f"{layout}: {metric} {show(c)} fell "
                                  f"below {show(edge)} (baseline {show(b)})")
    return violations
