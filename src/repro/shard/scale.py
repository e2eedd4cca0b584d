"""Speedup-vs-disks sweeps: the scale-out analogue of the traffic storm.

``run_scale_sweep`` replays one fixed, seeded beam workload against each
registered layout at rising shard counts and records per-query makespan
timings — producing the throughput/speedup-vs-disks curve per layout.
Every (layout, n_shards) cell builds a fresh same-seed dataset
(:func:`repro.bench.sweep.run_sweep`), shards it with
:meth:`Dataset.with_shards`, and runs the *identical* query objects, so
only the placement and the scatter-gather parallelism differ.

The sweep chunks along one *split axis* (default: axis 1, recomputed per
shard count) and queries beams over the non-streaming axes, so beams
along the split axis fan out across all drives while each layout keeps
paying its own cost structure on the untouched axes.  The expected
shape: MultiMap's throughput is monotone non-decreasing in shard count
and stays ahead of every baseline at every tested N — beams on the
split axis parallelise its cheap semi-sequential hops, while the
space-filling curves' cross-disk beams still pay scattered positioning
on every member disk and naive remains bound by its unsplit worst axis.
"""

from __future__ import annotations

import numpy as np

from repro.bench.sweep import DEFAULT_LAYOUTS, render_sweep, run_sweep
from repro.errors import (
    BenchmarkError,
    DatasetError,
    _check_count,
    _check_int,
    _check_shape,
)
from repro.query.workload import random_beam

__all__ = ["scale_beams", "run_scale_sweep", "render_scale_sweep"]


def _beam_axes(shape, axes) -> tuple[int, ...]:
    """``axes`` as ints; none named means every non-streaming axis."""
    if not axes:
        return tuple(range(1, len(shape))) if len(shape) > 1 else (0,)
    return tuple(int(a) for a in axes)


def _mb_per_s(blocks: int, total_ms: float) -> float:
    if total_ms <= 0:
        return 0.0
    return blocks * 512 / 1e6 / (total_ms / 1000.0)


def scale_beams(shape, *, n_beams: int = 12, axes=None, seed: int = 0):
    """A fixed beam workload cycling over ``axes`` (default: every
    non-streaming axis, the traffic storm's mix) at seeded random
    positions — the same concrete queries for every (layout,
    shard-count) cell."""
    shape = _check_shape(shape)
    n_beams = _check_count("n_beams", n_beams, BenchmarkError)
    axes = _beam_axes(shape, axes)
    rng = np.random.default_rng(seed)
    return [
        random_beam(shape, axes[i % len(axes)], rng)
        for i in range(n_beams)
    ]


def run_scale_sweep(
    shape,
    layouts=DEFAULT_LAYOUTS,
    shard_counts=(1, 2, 4),
    *,
    strategy: str = "disk_modulo",
    split_axis: int = 1,
    chunk_shape=None,
    n_beams: int = 12,
    axes=None,
    drive: str = "atlas10k3",
    seed: int = 42,
) -> dict:
    """Sweep layouts × shard counts under one fixed beam workload.

    Chunking slabs ``split_axis`` into ``n`` pieces per cell (an explicit
    ``chunk_shape`` overrides this and is then used at every shard
    count).  Returns ``layout -> {n_shards: cell}`` where each cell
    carries the batch total, per-query mean, aggregate throughput (MB/s
    over summed makespans), and the speedup relative to that layout's
    first shard count, plus a ``meta`` entry recording the sweep
    parameters.
    """
    from repro.api.dataset import Dataset

    from repro.lvm.striping import STRATEGIES

    shape = _check_shape(shape)
    # before any work: the chunk shapes below divide by the count
    shard_counts = [_check_count("shard counts", n, DatasetError)
                    for n in shard_counts]
    split_axis = _check_int("split_axis", split_axis, BenchmarkError)
    if not -len(shape) <= split_axis < len(shape):
        raise BenchmarkError(
            f"split_axis must be in [{-len(shape)}, {len(shape)}) for "
            f"shape {shape}, got {split_axis}"
        )
    split_axis %= len(shape)
    entry = STRATEGIES.get(strategy)
    # resolve one chunk shape per shard count up front and hand the SAME
    # shape to every layout — the fairness condition of the sweep (cells
    # compare placements, never chunk grids).  cube_aligned shapes split
    # on a basic-cube boundary (overriding split_axis); the granule K
    # depends only on shape/drive, so one probe dataset resolves it for
    # every shard count.  Otherwise: split_axis slabs.
    align = None
    if entry.align_cubes and chunk_shape is None:
        from repro.shard.map import ShardMap

        align = Dataset.create(shape, layout="multimap", drive=drive,
                               seed=seed)._basic_cube_sides()
    shapes_by_n: dict[int, tuple[int, ...]] = {}
    for n in shard_counts:
        if chunk_shape is not None:
            shapes_by_n[n] = tuple(chunk_shape)
        elif align is not None:
            shapes_by_n[n] = ShardMap.build(
                shape, n, strategy, align=align
            ).chunks[0].shape
        else:
            cs = list(shape)
            cs[split_axis] = -(-shape[split_axis] // n)
            shapes_by_n[n] = tuple(cs)
    axes = _beam_axes(shape, axes)
    queries = scale_beams(shape, n_beams=n_beams, axes=axes, seed=seed)

    def measure(fresh, n: int) -> dict:
        report = fresh().with_shards(
            n, strategy=strategy, chunk_shape=shapes_by_n[n]
        ).query().add(queries).run()
        blocks = sum(r.result.n_blocks for r in report.records)
        return {
            "n_shards": n,
            "total_ms": report.total_ms,
            "mean_query_ms": report.mean("total_ms"),
            "ms_per_cell": report.mean("ms_per_cell"),
            "served_blocks": blocks,
            "mb_per_s": _mb_per_s(blocks, report.total_ms),
        }

    data = run_sweep(
        shape, layouts, shard_counts, measure, drive=drive, seed=seed,
        meta={
            "strategy": entry.name,
            # cube_aligned overrides the slab axis (it splits on a
            # basic-cube boundary instead), so don't record a split_axis
            # it ignored
            "split_axis": None if (entry.align_cubes and chunk_shape is None)
            else split_axis,
            "chunk_shape": list(chunk_shape) if chunk_shape else None,
            "chunk_shapes": {n: list(s) for n, s in shapes_by_n.items()},
            "n_beams": int(n_beams),
            "axes": list(axes),
            "seed": int(seed),
            "shard_counts": shard_counts,
            "layouts": [str(layout) for layout in layouts],
        },
    )
    # each layout's speedup is relative to its own first shard count
    for layout, per_n in data.items():
        if layout != "meta":
            base_ms = per_n[shard_counts[0]]["total_ms"]
            for cell in per_n.values():
                cell["speedup"] = (base_ms / cell["total_ms"]
                                   if cell["total_ms"] > 0 else 0.0)
    return data


def render_scale_sweep(data: dict) -> str:
    """Throughput, speedup, and ms/cell tables, shard columns per layout."""
    meta = data["meta"]

    def disks(n: int) -> str:
        return f"{n} disk" + ("s" if n > 1 else "")

    return render_sweep(
        data,
        f"scale-out sweep: shape={tuple(meta['shape'])} on {meta['drive']},"
        f" strategy={meta['strategy']}, {meta['n_beams']} beams over axes "
        f"{meta['axes']}, seed={meta['seed']}",
        meta["shard_counts"],
        [("throughput (MB/s) vs shard count", disks,
          "{0[mb_per_s]:.2f}".format),
         ("speedup vs shard count (relative to first column)", disks,
          "{0[speedup]:.2f}x".format),
         ("mean ms/cell vs shard count", disks,
          "{0[ms_per_cell]:.4f}".format)],
    )
