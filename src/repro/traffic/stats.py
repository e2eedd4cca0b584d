"""Traces and reports for traffic runs.

A :class:`TrafficReport` mirrors :class:`repro.api.report.Report` for the
concurrent world: it wraps the per-query :class:`QueryTrace` records of
one simulation together with per-client, per-drive, and aggregate
statistics (throughput, utilisation, and p50/p90/p95/p99 latency), and
serialises to JSON with a stable layout so same-seed runs are
byte-identical.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from repro.bench.reporting import render_table
from repro.query.workload import BeamQuery, RangeQuery

__all__ = ["QueryTrace", "DriveStats", "TrafficReport", "describe_query"]

_PCTS = (50, 90, 95, 99)


def describe_query(query) -> str:
    """Short label for a workload query (matches the Report labels)."""
    if isinstance(query, BeamQuery):
        return f"beam[axis={query.axis}]"
    if isinstance(query, RangeQuery):
        return f"range{tuple(query.shape)}"
    return type(query).__name__


@dataclass(frozen=True)
class QueryTrace:
    """One completed query: who issued it, when, and what it cost.

    ``service_ms`` is drive time actually spent on this query's slices;
    ``latency_ms`` is submission to completion, so ``queue_ms`` (their
    difference) is time spent waiting behind other clients' requests —
    the quantity contention creates.
    """

    client: str
    label: str
    index: int
    disk: int
    arrival_ms: float
    start_ms: float
    completion_ms: float
    service_ms: float
    n_slices: int
    n_runs: int
    n_blocks: int
    n_cells: int
    seek_ms: float
    rotation_ms: float
    transfer_ms: float
    switch_ms: float

    @classmethod
    def from_fields(cls, **values) -> "QueryTrace":
        """Set every field, each given by name, in one step: the
        engine's trusted constructor (one trace per completed query),
        which skips the frozen dataclass's field-by-field
        ``__setattr__``."""
        trace = cls.__new__(cls)
        trace.__dict__.update(values)
        return trace

    @property
    def latency_ms(self) -> float:
        return self.completion_ms - self.arrival_ms

    @property
    def queue_ms(self) -> float:
        return self.latency_ms - self.service_ms


@dataclass(frozen=True)
class DriveStats:
    """Aggregate servicing done by one drive over the run."""

    disk: int
    busy_ms: float
    served_slices: int
    served_blocks: int

    def utilization(self, makespan_ms: float) -> float:
        return self.busy_ms / makespan_ms if makespan_ms > 0 else 0.0


def _latency_stats(values: np.ndarray) -> dict:
    if not values.size:
        return {}
    out = {
        "mean": float(values.mean()),
        "min": float(values.min()),
        "max": float(values.max()),
    }
    out.update(
        {f"p{p}": float(np.percentile(values, p)) for p in _PCTS}
    )
    return out


@dataclass(frozen=True)
class TrafficReport:
    """Results of one traffic simulation."""

    traces: tuple[QueryTrace, ...]
    drives: tuple[DriveStats, ...]
    makespan_ms: float
    meta: dict = field(default_factory=dict)

    # ------------------------------------------------------------------
    # record access
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.traces)

    def __iter__(self):
        return iter(self.traces)

    def client_names(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for tr in self.traces:
            seen.setdefault(tr.client, None)
        return tuple(seen)

    def for_client(self, name: str) -> tuple[QueryTrace, ...]:
        return tuple(tr for tr in self.traces if tr.client == name)

    # ------------------------------------------------------------------
    # aggregates
    # ------------------------------------------------------------------

    def _values(self, traces, attr: str) -> np.ndarray:
        return np.asarray(
            [getattr(tr, attr) for tr in traces], dtype=np.float64
        )

    def throughput_qps(self) -> float:
        """Completed queries per simulated second over the makespan."""
        if self.makespan_ms <= 0:
            return 0.0
        return len(self.traces) / (self.makespan_ms / 1000.0)

    def percentile(self, p: float, attr: str = "latency_ms") -> float:
        vals = self._values(self.traces, attr)
        return float(np.percentile(vals, p)) if vals.size else 0.0

    def _stats_for(self, traces) -> dict:
        lat = self._values(traces, "latency_ms")
        blocks = int(self._values(traces, "n_blocks").sum())
        span_ms = (
            max(tr.completion_ms for tr in traces) if traces else 0.0
        )
        out = {
            "n_queries": len(traces),
            "throughput_qps": (
                len(traces) / (span_ms / 1000.0) if span_ms > 0 else 0.0
            ),
            "served_blocks": blocks,
            "mb_per_s": (
                blocks * 512 / 1e6 / (span_ms / 1000.0)
                if span_ms > 0 else 0.0
            ),
            "latency_ms": _latency_stats(lat),
            "mean_service_ms": float(
                self._values(traces, "service_ms").mean()
            ) if traces else 0.0,
            "mean_queue_ms": float(
                self._values(traces, "queue_ms").mean()
            ) if traces else 0.0,
        }
        return out

    def aggregate(self) -> dict:
        """Whole-run summary across every client."""
        out = self._stats_for(self.traces)
        out["makespan_ms"] = float(self.makespan_ms)
        out["throughput_qps"] = self.throughput_qps()
        return out

    def per_client(self) -> dict:
        return {
            name: self._stats_for(self.for_client(name))
            for name in self.client_names()
        }

    def per_drive(self) -> list[dict]:
        return [
            {
                "disk": d.disk,
                "busy_ms": float(d.busy_ms),
                "served_slices": int(d.served_slices),
                "served_blocks": int(d.served_blocks),
                "utilization": float(d.utilization(self.makespan_ms)),
            }
            for d in self.drives
        ]

    def cache_stats(self) -> dict | list | None:
        """Shared buffer-pool snapshot(s) the engine recorded, if any.

        ``None`` when the run had no pool attached (the meta — and so
        the JSON — then stays identical to an uncached run).
        """
        return self.meta.get("cache")

    # ------------------------------------------------------------------
    # serialisation / rendering
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "meta": dict(self.meta),
            "makespan_ms": float(self.makespan_ms),
            "aggregate": self.aggregate(),
            "clients": self.per_client(),
            "drives": self.per_drive(),
            "traces": [asdict(tr) for tr in self.traces],
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, default=str)

    def render_table(self) -> str:
        """Per-client stats table plus a drive utilisation table."""
        headers = ["client", "queries", "qps", "mean ms", "p50", "p95",
                   "p99", "blocks"]

        def fmt(lat: dict, key: str) -> str:
            # latency stats are absent when no query completed
            return f"{lat[key]:.2f}" if key in lat else "-"

        def row(label: str, st: dict) -> list:
            lat = st["latency_ms"]
            return [
                label,
                st["n_queries"],
                f"{st['throughput_qps']:.2f}",
                fmt(lat, "mean"),
                fmt(lat, "p50"),
                fmt(lat, "p95"),
                fmt(lat, "p99"),
                st["served_blocks"],
            ]

        rows = [
            row(name, st) for name, st in self.per_client().items()
        ]
        rows.append(row("TOTAL", self.aggregate()))
        parts = [render_table(headers, rows)]
        drows = [
            [
                f"disk{d['disk']}",
                f"{d['busy_ms']:.1f}",
                d["served_slices"],
                d["served_blocks"],
                f"{d['utilization']:.1%}",
            ]
            for d in self.per_drive()
        ]
        parts.append(render_table(
            ["drive", "busy ms", "slices", "blocks", "util"], drows
        ))
        cache = self.cache_stats()
        if cache is not None:
            crows = [
                [
                    c["policy"],
                    c["prefetch"],
                    c["capacity_blocks"],
                    c["occupancy"],
                    f"{c['stats']['hit_ratio']:.1%}",
                    f"{c['stats']['prefetch_accuracy']:.1%}",
                    c["stats"]["evictions"],
                ]
                for c in (cache if isinstance(cache, list) else [cache])
            ]
            parts.append(render_table(
                ["cache", "prefetch", "capacity", "used", "hit%",
                 "pf acc", "evict"], crows
            ))
        return "\n\n".join(parts)

    def __str__(self) -> str:
        title = (
            f"[traffic] {len(self.traces)} queries, "
            f"{self.throughput_qps():.2f} q/s over "
            f"{self.makespan_ms:.1f} ms"
        )
        return f"{title}\n{self.render_table()}"
