"""Seeded "traffic storm" runs: the layout-vs-load sweep and one storm.

``run_storm`` replays the same seeded multi-client workload against each
registered layout at rising client counts and collects throughput and
latency-percentile aggregates — the concurrent analogue of the paper's
Figure 6 comparisons.  Fairness mirrors :meth:`Dataset.with_layout`:
every (layout, client-count) cell builds a fresh dataset from the same
seed, so client *k* draws the identical query stream in every cell and
only the placement (and the contention it causes) differs.

``run_one_storm`` runs one such storm on one layout with telemetry
attached, optionally killing a member disk mid-storm: the runner behind
the ``trace`` and ``dashboard`` subcommands.
"""

from __future__ import annotations

from repro.bench.reporting import render_table
from repro.traffic.arrivals import ClosedLoop, arrival_named
from repro.traffic.clients import QueryMix

__all__ = ["run_one_storm", "run_storm", "render_storm"]

DEFAULT_LAYOUTS = ("naive", "zorder", "hilbert", "multimap")
DEFAULT_CLIENTS = (1, 2, 4, 8)


def run_storm(
    shape,
    layouts=DEFAULT_LAYOUTS,
    client_counts=DEFAULT_CLIENTS,
    *,
    drive: str = "atlas10k3",
    queries_per_client: int = 20,
    mix: QueryMix | None = None,
    arrival=None,
    seed: int = 42,
    slice_runs: int | None = 64,
    head: str = "random",
    dataset_opts: dict | None = None,
) -> dict:
    """Sweep layouts × client counts; returns a JSON-friendly dict.

    The result maps ``layout -> {n_clients: aggregate}`` (see
    :meth:`TrafficReport.aggregate`) plus a ``meta`` entry recording the
    sweep parameters.
    """
    from repro.api.dataset import Dataset

    shape = tuple(int(s) for s in shape)
    mix = mix or QueryMix.beams(*range(1, len(shape)))
    arrival = arrival or ClosedLoop()
    data: dict = {}
    for layout in layouts:
        per_load: dict = {}
        for n in client_counts:
            ds = Dataset.create(
                shape, layout=layout, drive=drive, seed=seed,
                **(dataset_opts or {}),
            )
            report = (
                ds.traffic()
                .clients(int(n), mix=mix, arrival=arrival,
                         queries=queries_per_client)
                .slice_runs(slice_runs)
                .head(head)
                .run()
            )
            per_load[int(n)] = report.aggregate()
        data[layout] = per_load
    data["meta"] = {
        "shape": list(shape),
        "drive": drive if isinstance(drive, str) else getattr(
            drive, "name", str(drive)
        ),
        "queries_per_client": int(queries_per_client),
        "mix": mix.describe(),
        "arrival": arrival.describe(),
        "seed": seed,
        "slice_runs": slice_runs,
        "head": head,
        "client_counts": [int(n) for n in client_counts],
    }
    return data


def run_one_storm(shape, *, clients: int, queries: int, telemetry: dict,
                  layout: str = "multimap", drive: str = "atlas10k3",
                  mix: QueryMix | None = None, arrival: str = "closed",
                  rate: float = 50.0, think_ms: float = 0.0, seed=42,
                  slice_runs: int | None = 64, head: str = "random",
                  shards: int | None = None, k: int | None = None,
                  kill_at: float | None = None, kill_disk: int = 0,
                  revive_at: float | None = None):
    """Run one seeded storm on one layout; returns ``(dataset, report)``.

    The dataset is declustered over ``shards`` disks and replicated
    ``k`` times when those exceed 1, then gets ``telemetry``
    (:meth:`Dataset.with_telemetry` keywords).  ``clients`` clients each
    issue ``queries`` queries under the named ``arrival`` model
    (:func:`~repro.traffic.arrivals.arrival_named`); ``kill_at`` kills
    member disk ``kill_disk`` at that simulated ms, and ``revive_at``
    brings it back.
    """
    from repro.api.dataset import Dataset

    ds = Dataset.create(tuple(shape), layout=layout, drive=drive,
                        seed=seed)
    if shards is not None and shards > 1:
        ds = ds.with_shards(int(shards))
    if k is not None and k > 1:
        ds = ds.with_replication(int(k))
    ds.with_telemetry(**telemetry)
    run = (
        ds.traffic()
        .clients(int(clients), mix=mix,
                 arrival=arrival_named(arrival, rate=rate,
                                       think_ms=think_ms),
                 queries=int(queries))
        .slice_runs(slice_runs if slice_runs else None)
        .head(head)
    )
    if kill_at is not None:
        run.kill(float(kill_at), int(kill_disk),
                 revive_at_ms=(float(revive_at)
                               if revive_at is not None else None))
    return ds, run.run()


def _layout_rows(data: dict, metric) -> tuple[list[int], list[list]]:
    counts = data["meta"]["client_counts"]
    rows = []
    for layout, per_load in data.items():
        if layout == "meta":
            continue
        rows.append([layout] + [metric(per_load[n]) for n in counts])
    return counts, rows


def render_storm(data: dict) -> str:
    """Throughput-vs-load plus p50/p95/p99 latency tables."""
    meta = data["meta"]
    parts = [
        f"traffic storm: shape={tuple(meta['shape'])} on {meta['drive']}, "
        f"{meta['queries_per_client']} queries/client, mix={meta['mix']}, "
        f"arrival={meta['arrival']['model']}, seed={meta['seed']}"
    ]
    counts, rows = _layout_rows(
        data, lambda agg: f"{agg['throughput_qps']:.2f}"
    )
    headers = ["layout"] + [f"{n} cl" for n in counts]
    parts.append("throughput (queries/s) vs client count")
    parts.append(render_table(headers, rows))
    for pct in ("p50", "p95", "p99"):
        _, rows = _layout_rows(
            data, lambda agg, p=pct: f"{agg['latency_ms'][p]:.2f}"
        )
        parts.append(f"{pct} latency (ms) vs client count")
        parts.append(render_table(headers, rows))
    return "\n\n".join(parts)
