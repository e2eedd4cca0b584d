"""Availability/overhead-vs-k sweeps: the fault-tolerance storm.

``run_avail_sweep`` replays one fixed, seeded beam workload against each
registered layout at rising replication factors k, twice per cell: once
healthy, once *degraded* with one member disk killed (the same seeded
victim for every cell, so layouts and k values face the identical
failure).  Each cell records healthy and degraded throughput, the
k-fold storage overhead, single-failure chunk availability, and how
many queries completed degraded (k=1 loses the dead disk's chunks — the
unreadable queries are skipped and counted).

The expected shape: k=1 cannot serve every query degraded; any k >= 2
serves them all, and MultiMap keeps its locality dividend in degraded
mode — failover reads land on replica chunks laid out by the very same
mapping, so its degraded MB/s stays ahead of every baseline
(``examples/failover.py`` asserts this end to end).
"""

from __future__ import annotations

import numpy as np

from repro.bench.sweep import DEFAULT_LAYOUTS, render_sweep, run_sweep
from repro.errors import (
    DatasetError,
    ReplicaError,
    _check_count,
    _check_int,
    _check_shape,
)
from repro.shard.scale import _beam_axes, _mb_per_s, scale_beams

__all__ = ["run_avail_sweep", "render_avail_sweep"]


def run_avail_sweep(
    shape,
    layouts=DEFAULT_LAYOUTS,
    ks=(1, 2, 3),
    *,
    n_disks: int = 3,
    placement: str = "rotated",
    read_policy: str = "primary",
    n_beams: int = 8,
    axes=None,
    drive: str = "atlas10k3",
    seed: int = 42,
    kill_disk: int | None = None,
) -> dict:
    """Sweep layouts × replication factors under one seeded failure.

    Returns ``layout -> {k: cell}`` plus a ``meta`` entry; each cell
    carries healthy/degraded totals, MB/s, availability, and completed
    query counts.  ``kill_disk=None`` draws the victim uniformly from
    a generator seeded with ``seed`` (one draw, shared by every cell).
    """
    shape = _check_shape(shape)
    ks = [_check_count("k", k, DatasetError) for k in ks]
    n_disks = _check_count("n_disks", n_disks, DatasetError)
    if any(k > n_disks for k in ks):
        raise ReplicaError(
            f"every k in {tuple(ks)} must be <= n_disks={n_disks}"
        )
    victim = (
        int(np.random.default_rng(seed).integers(n_disks))
        if kill_disk is None else _check_int("kill_disk", kill_disk,
                                             ReplicaError)
    )
    axes = _beam_axes(shape, axes)
    queries = scale_beams(shape, n_beams=n_beams, axes=axes, seed=seed)

    def measure(fresh, k: int) -> dict:
        def build():
            return fresh().with_shards(n_disks).with_replication(
                k, placement=placement, read_policy=read_policy,
            )

        report = build().query().add(queries).run()
        h_blocks = sum(r.result.n_blocks for r in report.records)
        h_ms = report.total_ms

        degraded = build()
        degraded.storage.fail_disk(victim)
        rng = degraded.rng()
        d_blocks = completed = skipped = 0
        d_ms = 0.0
        for q in queries:
            try:
                res = degraded.storage.run_query(q, rng=rng)
            except ReplicaError:
                skipped += 1
                continue
            completed += 1
            d_blocks += res.n_blocks
            d_ms += res.total_ms
        return {
            "k": k,
            "healthy_ms": h_ms,
            "healthy_mb_per_s": _mb_per_s(h_blocks, h_ms),
            "degraded_ms": d_ms,
            "degraded_mb_per_s": _mb_per_s(d_blocks, d_ms),
            "availability": degraded.replica_map.readable_fraction(
                {victim}
            ),
            "completed": completed,
            "skipped": skipped,
            "storage_overhead": k,
        }

    return run_sweep(
        shape, layouts, ks, measure, drive=drive, seed=seed,
        meta={
            "n_disks": n_disks,
            "placement": placement,
            "read_policy": read_policy,
            "killed_disk": victim,
            "n_beams": int(n_beams),
            "axes": list(axes),
            "seed": int(seed),
            "ks": ks,
            "layouts": [str(layout) for layout in layouts],
        },
    )


def render_avail_sweep(data: dict) -> str:
    """Healthy/degraded throughput and availability tables, k columns
    per layout."""
    meta = data["meta"]
    k = "k={}".format
    return render_sweep(
        data,
        f"availability sweep: shape={tuple(meta['shape'])} on "
        f"{meta['drive']}, {meta['n_disks']} disks, "
        f"placement={meta['placement']}, read_policy={meta['read_policy']},"
        f" disk {meta['killed_disk']} killed, {meta['n_beams']} beams over"
        f" axes {meta['axes']}, seed={meta['seed']}",
        meta["ks"],
        [("healthy throughput (MB/s) vs replication factor", k,
          "{0[healthy_mb_per_s]:.2f}".format),
         ("degraded throughput (MB/s), one disk down", k,
          "{0[degraded_mb_per_s]:.2f}".format),
         ("single-failure availability (chunks readable, "
          "queries completed)", k,
          lambda c: f"{c['availability']:.1%} "
          f"({c['completed']}/{c['completed'] + c['skipped']} q)")],
    )
