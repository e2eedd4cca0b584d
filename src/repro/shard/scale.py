"""Speedup-vs-disks sweeps: the scale-out analogue of the traffic storm.

``run_scale_sweep`` replays one fixed, seeded beam workload against each
registered layout at rising shard counts and records per-query makespan
timings — producing the throughput/speedup-vs-disks curve per layout.
Every (layout, n_shards) cell builds a fresh same-seed dataset, shards it
with :meth:`Dataset.with_shards`, and runs the *identical* query objects,
so only the placement and the scatter-gather parallelism differ.

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

from repro.bench.reporting import render_table
from repro.errors import DatasetError
from repro.query.workload import random_beam

__all__ = ["scale_beams", "run_scale_sweep", "render_scale_sweep"]

DEFAULT_LAYOUTS = ("naive", "zorder", "hilbert", "multimap")
DEFAULT_SHARDS = (1, 2, 4)


def scale_beams(shape, *, n_beams: int = 12, axes=None, seed: int = 0):
    """A fixed beam workload cycling over ``axes`` (default: every
    non-streaming axis, the traffic storm's mix) at seeded random
    positions — the same concrete queries for every (layout,
    shard-count) cell."""
    shape = tuple(int(s) for s in shape)
    if axes is None:
        axes = tuple(range(1, len(shape))) if len(shape) > 1 else (0,)
    rng = np.random.default_rng(seed)
    return [
        random_beam(shape, int(axes[i % len(axes)]), rng)
        for i in range(int(n_beams))
    ]


def run_scale_sweep(
    shape,
    layouts=DEFAULT_LAYOUTS,
    shard_counts=DEFAULT_SHARDS,
    *,
    strategy: str = "disk_modulo",
    split_axis: int = 1,
    chunk_shape=None,
    n_beams: int = 12,
    axes=None,
    drive: str = "atlas10k3",
    seed: int = 42,
    dataset_opts: dict | None = None,
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

    shape = tuple(int(s) for s in shape)
    shard_counts = tuple(int(n) for n in shard_counts)
    if any(n < 1 for n in shard_counts):
        # before any work: the chunk shapes below divide by the count
        raise DatasetError(
            f"shard counts must be >= 1, got {list(shard_counts)}"
        )
    split_axis = int(split_axis) % len(shape)
    entry = STRATEGIES.get(strategy) if isinstance(strategy, str) \
        else strategy
    align_cubes = bool(getattr(entry, "align_cubes", False))
    strategy_name = getattr(entry, "name", str(strategy))
    # resolve one chunk shape per shard count up front and hand the SAME
    # shape to every layout — the fairness condition of the sweep (cells
    # compare placements, never chunk grids).  cube_aligned shapes split
    # on a basic-cube boundary (overriding split_axis); the granule K
    # depends only on shape/drive, so one probe dataset resolves it for
    # every shard count.  Otherwise: split_axis slabs.
    align = None
    if align_cubes and chunk_shape is None:
        from repro.shard.map import ShardMap

        align = Dataset.create(
            shape, layout="multimap", drive=drive, seed=seed,
            **(dataset_opts or {}),
        )._basic_cube_sides()
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
    if axes is None:
        axes = tuple(range(1, len(shape))) if len(shape) > 1 else (0,)
    queries = scale_beams(shape, n_beams=n_beams, axes=axes, seed=seed)
    data: dict = {}
    for layout in layouts:
        per_n: dict = {}
        base_ms = None
        for n in shard_counts:
            ds = Dataset.create(
                shape, layout=layout, drive=drive, seed=seed,
                **(dataset_opts or {}),
            ).with_shards(n, strategy=strategy,
                          chunk_shape=shapes_by_n[n])
            report = ds.query().add(queries).run()
            blocks = sum(r.result.n_blocks for r in report.records)
            total_ms = report.total_ms
            if base_ms is None:
                base_ms = total_ms
            per_n[n] = {
                "n_shards": n,
                "total_ms": total_ms,
                "mean_query_ms": report.mean("total_ms"),
                "ms_per_cell": report.mean("ms_per_cell"),
                "served_blocks": blocks,
                "mb_per_s": (
                    blocks * 512 / 1e6 / (total_ms / 1000.0)
                    if total_ms > 0 else 0.0
                ),
                "speedup": base_ms / total_ms if total_ms > 0 else 0.0,
            }
        data[layout] = per_n
    data["meta"] = {
        "shape": list(shape),
        "drive": drive if isinstance(drive, str) else getattr(
            drive, "name", str(drive)
        ),
        "strategy": strategy_name,
        # cube_aligned overrides the slab axis (it splits on a basic-cube
        # boundary instead), so don't record a split_axis it ignored
        "split_axis": None if (align_cubes and chunk_shape is None)
        else split_axis,
        "chunk_shape": list(chunk_shape) if chunk_shape else None,
        "chunk_shapes": {
            int(n): list(s) for n, s in shapes_by_n.items()
        },
        "n_beams": int(n_beams),
        "axes": [int(a) for a in axes],
        "seed": int(seed),
        "shard_counts": list(shard_counts),
        "layouts": [str(layout) for layout in layouts],
    }
    return data


def _layout_rows(data: dict, metric) -> tuple[list[int], list[list]]:
    counts = data["meta"]["shard_counts"]
    rows = []
    for layout in data["meta"]["layouts"]:
        per_n = data[layout]
        rows.append([layout] + [metric(per_n[n]) for n in counts])
    return counts, rows


def render_scale_sweep(data: dict) -> str:
    """Throughput, speedup, and ms/cell tables, shard columns per layout."""
    meta = data["meta"]
    parts = [
        f"scale-out sweep: shape={tuple(meta['shape'])} on {meta['drive']},"
        f" strategy={meta['strategy']}, {meta['n_beams']} beams over axes "
        f"{meta['axes']}, seed={meta['seed']}"
    ]
    counts, rows = _layout_rows(data, lambda c: f"{c['mb_per_s']:.2f}")
    headers = ["layout"] + [f"{n} disk" + ("s" if n > 1 else "")
                            for n in counts]
    parts.append("throughput (MB/s) vs shard count")
    parts.append(render_table(headers, rows))
    _, rows = _layout_rows(data, lambda c: f"{c['speedup']:.2f}x")
    parts.append("speedup vs shard count (relative to first column)")
    parts.append(render_table(headers, rows))
    _, rows = _layout_rows(data, lambda c: f"{c['ms_per_cell']:.4f}")
    parts.append("mean ms/cell vs shard count")
    parts.append(render_table(headers, rows))
    return "\n\n".join(parts)
