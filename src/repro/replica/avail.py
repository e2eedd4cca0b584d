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

from repro.bench.reporting import render_table
from repro.errors import ReplicaError
from repro.replica.failures import FailureInjector
from repro.shard.scale import scale_beams

__all__ = ["run_avail_sweep", "render_avail_sweep"]

DEFAULT_LAYOUTS = ("naive", "zorder", "hilbert", "multimap")
DEFAULT_KS = (1, 2, 3)


def _mb_per_s(blocks: int, total_ms: float) -> float:
    if total_ms <= 0:
        return 0.0
    return blocks * 512 / 1e6 / (total_ms / 1000.0)


def run_avail_sweep(
    shape,
    layouts=DEFAULT_LAYOUTS,
    ks=DEFAULT_KS,
    *,
    n_disks: int = 3,
    placement: str = "rotated",
    read_policy: str = "primary",
    n_beams: int = 8,
    axes=None,
    drive: str = "atlas10k3",
    seed: int = 42,
    kill_disk: int | None = None,
    dataset_opts: dict | None = None,
) -> dict:
    """Sweep layouts × replication factors under one seeded failure.

    Returns ``layout -> {k: cell}`` plus a ``meta`` entry; each cell
    carries healthy/degraded totals, MB/s, availability, and completed
    query counts.  ``kill_disk=None`` draws the victim from a
    :class:`FailureInjector` seeded with ``seed`` (one draw, shared by
    every cell).
    """
    from repro.api.dataset import Dataset

    shape = tuple(int(s) for s in shape)
    ks = tuple(int(k) for k in ks)
    n_disks = int(n_disks)
    if any(k > n_disks for k in ks):
        raise ReplicaError(
            f"every k in {ks} must be <= n_disks={n_disks}"
        )
    victim = (
        FailureInjector(n_disks, seed=seed).pick_disk()
        if kill_disk is None else int(kill_disk)
    )
    if axes is None:
        axes = tuple(range(1, len(shape))) if len(shape) > 1 else (0,)
    queries = scale_beams(shape, n_beams=n_beams, axes=axes, seed=seed)

    def build(layout: str, k: int) -> Dataset:
        return Dataset.create(
            shape, layout=layout, drive=drive, seed=seed,
            **(dataset_opts or {}),
        ).with_shards(n_disks).with_replication(
            k, placement=placement, read_policy=read_policy,
        )

    data: dict = {}
    for layout in layouts:
        per_k: dict = {}
        for k in ks:
            healthy = build(layout, k)
            report = healthy.query().add(queries).run()
            h_blocks = sum(r.result.n_blocks for r in report.records)
            h_ms = report.total_ms

            degraded = build(layout, k)
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
            per_k[k] = {
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
        data[layout] = per_k
    data["meta"] = {
        "shape": list(shape),
        "drive": drive if isinstance(drive, str) else getattr(
            drive, "name", str(drive)
        ),
        "n_disks": n_disks,
        "placement": placement,
        "read_policy": read_policy,
        "killed_disk": victim,
        "n_beams": int(n_beams),
        "axes": [int(a) for a in axes],
        "seed": int(seed),
        "ks": list(ks),
        "layouts": [str(layout) for layout in layouts],
    }
    return data


def _layout_rows(data: dict, metric) -> tuple[list[int], list[list]]:
    ks = data["meta"]["ks"]
    rows = []
    for layout in data["meta"]["layouts"]:
        per_k = data[layout]
        rows.append([layout] + [metric(per_k[k]) for k in ks])
    return ks, rows


def render_avail_sweep(data: dict) -> str:
    """Healthy/degraded throughput and availability tables, k columns
    per layout."""
    meta = data["meta"]
    parts = [
        f"availability sweep: shape={tuple(meta['shape'])} on "
        f"{meta['drive']}, {meta['n_disks']} disks, "
        f"placement={meta['placement']}, read_policy={meta['read_policy']},"
        f" disk {meta['killed_disk']} killed, {meta['n_beams']} beams over"
        f" axes {meta['axes']}, seed={meta['seed']}"
    ]
    ks, rows = _layout_rows(
        data, lambda c: f"{c['healthy_mb_per_s']:.2f}"
    )
    headers = ["layout"] + [f"k={k}" for k in ks]
    parts.append("healthy throughput (MB/s) vs replication factor")
    parts.append(render_table(headers, rows))
    _, rows = _layout_rows(
        data, lambda c: f"{c['degraded_mb_per_s']:.2f}"
    )
    parts.append("degraded throughput (MB/s), one disk down")
    parts.append(render_table(headers, rows))
    _, rows = _layout_rows(
        data,
        lambda c: f"{c['availability']:.1%} "
        f"({c['completed']}/{c['completed'] + c['skipped']} q)",
    )
    parts.append("single-failure availability (chunks readable, "
                 "queries completed)")
    parts.append(render_table(headers, rows))
    return "\n\n".join(parts)
