"""Hit-ratio-vs-capacity sweeps: the caching analogue of the storm.

``run_cache_sweep`` replays the same seeded *overlapping-beam* workload
against each registered layout at rising pool capacities and records the
cache hit ratio, prefetch accuracy, and query timings — producing the
hit-ratio-vs-capacity curve per layout that quantifies the second half
of MultiMap's locality dividend: under a placement that keeps spatial
neighbors physically adjacent, one beam's miss work (plus track-aligned
prefetch) is the neighboring beams' memory hits, while space-filling
curves scatter a beam across many tracks and pay the pollution.

The workload (:func:`overlapping_beams`) draws beams whose anchors
cluster inside a sub-region of the dataset and repeats the whole batch,
so queries overlap both spatially (neighboring anchors share tracks)
and temporally (repeats re-read the same cells) — the
repeated/overlapping access the paper's OLAP and earthquake scenarios
produce.  Every (layout, capacity) cell replays identical queries on a
fresh same-seed dataset (:func:`repro.bench.sweep.run_sweep`), so only
placement and pool behaviour differ.
"""

from __future__ import annotations

from numbers import Real

import numpy as np

from repro.bench.sweep import DEFAULT_LAYOUTS, render_sweep, run_sweep
from repro.cache.policies import LRUPolicy
from repro.errors import (
    BenchmarkError,
    DatasetError,
    _check_count,
    _check_shape,
)
from repro.query.workload import BeamQuery

__all__ = ["overlapping_beams", "run_cache_sweep", "render_cache_sweep"]


def overlapping_beams(
    shape,
    *,
    n_beams: int = 16,
    axes=(1,),
    region_frac: float = 0.4,
    seed: int = 0,
) -> list[BeamQuery]:
    """Full-length beams whose anchors cluster in one sub-region.

    ``region_frac`` bounds each fixed coordinate to the first
    ``frac * dim`` cells, so distinct beams cross and share neighboring
    cells; cycling through ``axes`` mixes access directions the way the
    paper's multi-dimensional workloads do.  Deterministic for a given
    ``seed``.
    """
    shape = _check_shape(shape)
    n_beams = _check_count("n_beams", n_beams, BenchmarkError)
    axes = tuple(axes)
    if not axes:
        raise BenchmarkError("axes must name at least one beam axis")
    # NaN fails both comparisons
    if not (isinstance(region_frac, Real) and 0 < region_frac <= 1):
        raise BenchmarkError(
            f"region_frac must be in (0, 1], got {region_frac!r}"
        )
    rng = np.random.default_rng(seed)
    queries = []
    for i in range(n_beams):
        axis = int(axes[i % len(axes)])
        fixed = tuple(
            0 if d == axis
            else int(rng.integers(0, max(1, int(s * region_frac))))
            for d, s in enumerate(shape)
        )
        queries.append(BeamQuery(axis=axis, fixed=fixed))
    return queries


def run_cache_sweep(
    shape,
    layouts=DEFAULT_LAYOUTS,
    capacities=(0, 4096, 12288, 24576),
    *,
    prefetch: str = "track",
    n_beams: int = 16,
    repeats: int = 3,
    axes=(1,),
    region_frac: float = 0.4,
    drive: str = "minidrive",
    seed: int = 42,
) -> dict:
    """Sweep layouts × pool capacities under one repeated beam workload.

    Returns ``layout -> {capacity: cell}`` where each cell carries the
    pool's hit ratio / prefetch accuracy and the batch's timing
    aggregates, plus a ``meta`` entry recording the sweep parameters.
    Capacity 0 cells run with no pool at all (the parity baseline).
    """
    shape = _check_shape(shape)
    capacities = [_check_count("capacity", c, DatasetError, low=0)
                  for c in capacities]
    repeats = _check_count("repeats", repeats)
    queries = overlapping_beams(
        shape, n_beams=n_beams, axes=axes,
        region_frac=region_frac, seed=seed,
    )

    def measure(fresh, cap: int) -> dict:
        ds = fresh().with_cache(cap, prefetch=prefetch)
        report = ds.query().add(queries).repeats(repeats).run()
        cell = {
            "capacity": cap,
            "total_ms": report.total_ms,
            "mean_query_ms": report.mean("total_ms"),
        }
        if ds.cache is not None:
            stats = ds.cache.stats
            cell.update(
                hit_ratio=stats.hit_ratio,
                prefetch_accuracy=stats.prefetch_accuracy,
                occupancy=ds.cache.occupancy,
            )
        else:
            cell.update(hit_ratio=0.0, prefetch_accuracy=0.0, occupancy=0)
        return cell

    return run_sweep(
        shape, layouts, capacities, measure, drive=drive, seed=seed,
        meta={
            "policy": LRUPolicy.name,
            "prefetch": prefetch,
            "n_beams": int(n_beams),
            "repeats": repeats,
            "axes": [int(a) for a in axes],
            "region_frac": float(region_frac),
            "seed": int(seed),
            "capacities": capacities,
            "layouts": [str(layout) for layout in layouts],
        },
    )

def render_cache_sweep(data: dict) -> str:
    """Hit-ratio and mean-latency tables, capacity columns per layout."""
    meta = data["meta"]
    cap = "cap {}".format
    return render_sweep(
        data,
        f"cache sweep: shape={tuple(meta['shape'])} on {meta['drive']}, "
        f"policy={meta['policy']}, prefetch={meta['prefetch']}, "
        f"{meta['n_beams']} beams x {meta['repeats']} repeats, "
        f"seed={meta['seed']}",
        meta["capacities"],
        [("cache hit ratio vs pool capacity (blocks)", cap,
          "{0[hit_ratio]:.1%}".format),
         ("mean query time (ms) vs pool capacity", cap,
          "{0[mean_query_ms]:.2f}".format),
         ("prefetch accuracy vs pool capacity", cap,
          "{0[prefetch_accuracy]:.1%}".format)],
    )
