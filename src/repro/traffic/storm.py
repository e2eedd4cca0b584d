"""Seeded "traffic storm" runs: the layout-vs-load sweep and one storm.

``run_storm`` replays the same seeded multi-client workload against each
registered layout at rising client counts and collects throughput and
latency-percentile aggregates — the concurrent analogue of the paper's
Figure 6 comparisons.  Fairness mirrors :meth:`Dataset.with_layout`:
every (layout, client-count) cell builds a fresh dataset from the same
seed (:func:`repro.bench.sweep.run_sweep`), so client *k* draws the
identical query stream in every cell and only the placement (and the
contention it causes) differs.

``run_one_storm`` runs one such storm on one layout with telemetry
attached: the runner behind the ``trace`` subcommand.  Both take the
same workload keywords: ``clients``, ``queries`` per client, ``mix``, the
``arrival`` model by name with its ``rate`` and ``think_ms``, and
``slice_runs`` (0 serves each query whole).  Every query starts from a
random head position, as the meta's ``head`` records.
"""

from __future__ import annotations

from repro.bench.sweep import DEFAULT_LAYOUTS, render_sweep, run_sweep
from repro.errors import _check_count, _check_shape
from repro.traffic.arrivals import arrival_named
from repro.traffic.clients import QueryMix
from repro.traffic.engine import HEAD

__all__ = ["run_one_storm", "run_storm", "render_storm"]


def run_storm(shape, layouts=DEFAULT_LAYOUTS, clients=(1, 2, 4, 8), *,
              drive: str = "atlas10k3", queries: int = 20,
              mix: QueryMix | None = None, arrival: str = "closed",
              rate: float = 50.0, think_ms: float = 0.0, seed=42,
              slice_runs: int | None = 64) -> dict:
    """Sweep layouts × client counts; returns a JSON-friendly dict.

    The result maps ``layout -> {n_clients: aggregate}`` (see
    :meth:`TrafficReport.aggregate`) plus a ``meta`` entry recording the
    sweep parameters.
    """
    shape = _check_shape(shape)
    clients = [_check_count("clients", n) for n in clients]
    queries = _check_count("queries", queries)
    mix = mix or QueryMix.beams(*range(1, len(shape)))
    arrival = arrival_named(arrival, rate=rate, think_ms=think_ms)
    slice_runs = slice_runs or None

    def measure(fresh, n: int) -> dict:
        return (
            fresh().traffic()
            .clients(n, mix=mix, arrival=arrival, queries=queries)
            .slice_runs(slice_runs)
            .run()
        ).aggregate()

    return run_sweep(
        shape, layouts, clients, measure, drive=drive, seed=seed,
        meta={
            "queries_per_client": queries,
            "mix": mix.describe(),
            "arrival": arrival.describe(),
            "seed": seed,
            "slice_runs": slice_runs,
            "head": HEAD,
            "client_counts": clients,
        },
    )


def run_one_storm(shape, *, clients: int, queries: int, telemetry: dict,
                  layout: str = "multimap", drive: str = "atlas10k3",
                  mix: QueryMix | None = None, arrival: str = "closed",
                  rate: float = 50.0, think_ms: float = 0.0, seed=42,
                  slice_runs: int | None = 64):
    """Run one seeded storm on one layout; returns ``(dataset, report)``.

    The dataset gets ``telemetry`` (:meth:`Dataset.with_telemetry`
    keywords), then ``clients`` clients each issue ``queries`` queries
    under the named ``arrival`` model
    (:func:`~repro.traffic.arrivals.arrival_named`).
    """
    from repro.api.dataset import Dataset

    shape = _check_shape(shape)
    ds = Dataset.create(shape, layout=layout, drive=drive, seed=seed)
    ds.with_telemetry(**telemetry)
    report = (
        ds.traffic()
        .clients(clients, mix=mix,
                 arrival=arrival_named(arrival, rate=rate,
                                       think_ms=think_ms),
                 queries=queries)
        .slice_runs(slice_runs or None)
        .run()
    )
    return ds, report


def render_storm(data: dict) -> str:
    """Throughput-vs-load plus p50/p95/p99 latency tables."""
    meta = data["meta"]
    cl = "{} cl".format
    return render_sweep(
        data,
        f"traffic storm: shape={tuple(meta['shape'])} on {meta['drive']}, "
        f"{meta['queries_per_client']} queries/client, mix={meta['mix']}, "
        f"arrival={meta['arrival']['model']}, seed={meta['seed']}",
        meta["client_counts"],
        [("throughput (queries/s) vs client count", cl,
          "{0[throughput_qps]:.2f}".format)]
        + [(f"{pct} latency (ms) vs client count", cl,
            lambda agg, p=pct: f"{agg['latency_ms'][p]:.2f}")
           for pct in ("p50", "p95", "p99")],
    )
