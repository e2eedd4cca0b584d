"""Ingest throughput sweeps: write-path MB/s, layouts × loaders.

``run_ingest_sweep`` streams one fixed, seeded record stream into each
registered layout under each registered loader and records goodput —
the write-path analogue of the scale-out sweep.  Every (layout, loader)
cell builds a fresh same-seed dataset
(:func:`repro.bench.sweep.run_sweep`), shards and replicates it
identically, and replays the *identical* stream, so only the placement
(where cells land on the platter) and the ingest plan (cell capacity,
chunk split) differ.

The expected shape: MultiMap's flushes write whole basic cubes as a few
long sequential runs, so its goodput beats the space-filling curves
(whose buffered cells scatter across the platter) and naive (bound by
its worst axis); the adaptive loader samples the stream's density and
sizes cells so clustered hot spots don't chain into overflow pages,
so on a skewed stream ``adaptive`` ≥ ``fixed`` for every layout.
"""

from __future__ import annotations

from repro.bench.sweep import DEFAULT_LAYOUTS, render_sweep, run_sweep
from repro.errors import DatasetError, IngestError, _check_count, _check_shape

__all__ = ["run_ingest_sweep", "render_ingest_sweep"]


def run_ingest_sweep(
    shape,
    layouts=DEFAULT_LAYOUTS,
    loaders=("fixed", "adaptive"),
    *,
    stream: str = "clustered",
    stream_opts: dict | None = None,
    n_points: int = 4096,
    batch_points: int = 256,
    flush_points: int = 1024,
    n_shards: int = 2,
    k: int = 1,
    strategy: str = "disk_modulo",
    drive: str = "atlas10k3",
    seed: int = 42,
    reorganize: bool = False,
) -> dict:
    """Sweep layouts × loaders under one fixed record stream.

    Returns ``layout -> {loader: cell}`` where each cell carries the
    goodput, timing breakdown, and overflow counts of one
    :class:`~repro.ingest.report.IngestReport`, plus a ``meta`` entry
    recording the sweep parameters.  Streams are seeded and re-drawn
    identically per cell; the chunk grid is the shard default for every
    cell (the adaptive loader's chunk-shape suggestion depends only on
    the stream sample, so when it re-chunks, it re-chunks every layout
    the same way — the fairness condition of the sweep).
    """
    shape = _check_shape(shape)
    n_shards = _check_count("n_shards", n_shards, DatasetError)
    k = _check_count("k", k, DatasetError)
    n_points = _check_count("n_points", n_points, IngestError)
    batch_points = _check_count("batch_points", batch_points, IngestError)
    flush_points = _check_count("flush_points", flush_points, IngestError)

    def measure(fresh, loader: str) -> dict:
        report = fresh().with_shards(
            n_shards, strategy=strategy
        ).with_replication(k).with_ingest(
            stream=stream,
            loader=loader,
            n_points=n_points,
            batch_points=batch_points,
            flush_points=flush_points,
            seed=int(seed),
            reorganize=bool(reorganize),
            **(stream_opts or {}),
        ).ingest().run()
        return {
            "mb_per_s": report.mb_per_s,
            "points_per_s": report.points_per_s,
            "stage_ms": report.stage_ms,
            "write_ms": report.write_ms,
            "total_ms": report.total_ms,
            "flushes": report.flushes,
            "home_blocks": report.home_blocks,
            "blocks_written": report.blocks_written,
            "overflow_points": report.overflow_points,
            "plan": report.plan,
        }

    return run_sweep(
        shape, layouts, loaders, measure, drive=drive, seed=seed,
        meta={
            "stream": str(stream),
            "stream_opts": dict(stream_opts or {}),
            "n_points": n_points,
            "batch_points": batch_points,
            "flush_points": flush_points,
            "n_shards": n_shards,
            "k": k,
            "strategy": str(strategy),
            "seed": int(seed),
            "reorganize": bool(reorganize),
            "layouts": [str(layout) for layout in layouts],
            "loaders": [str(ld) for ld in loaders],
        },
    )


def render_ingest_sweep(data: dict) -> str:
    """Goodput and overflow tables, loader columns per layout."""
    meta = data["meta"]
    return render_sweep(
        data,
        f"ingest sweep: shape={tuple(meta['shape'])} on {meta['drive']}, "
        f"{meta['n_points']} points of {meta['stream']} stream, "
        f"{meta['n_shards']} shard(s) x{meta['k']}, seed={meta['seed']}",
        meta["loaders"],
        [("ingest goodput (MB/s) per loader", "{} MB/s".format,
          "{0[mb_per_s]:.3f}".format),
         ("overflowed points per loader", "{} spills".format,
          "{0[overflow_points]}".format),
         ("write makespan (ms) per loader", "{} write ms".format,
          "{0[write_ms]:.2f}".format)],
    )
