"""End-to-end telemetry: per-query tracing, metrics, and exporters.

``repro.obs`` is the observability layer of the repository — opt-in
(``Dataset.with_telemetry``), deterministic (every recorded value comes
off the simulated clocks, never the wall clock), and zero-impact when
detached (results and report JSON stay bit-identical, the pinned parity
guarantee every other layer's neutral setting gives):

``metrics``    :class:`MetricsRegistry` — counters, per-phase
               simulated-time totals, gauges, and fixed-bucket
               streaming :class:`Histogram` s with p50/p90/p99/p999
``span``       :class:`Span` trees and the :class:`Tracer` — one root
               per query, children per phase (prepare, cache, per-disk
               service with seek/rotate/transfer attribution, ingest
               flush, failover, reorganisation)
``telemetry``  :class:`Telemetry` — the handle storage managers carry
               (``storage.obs``) bundling tracer + metrics + exporter
``exporters``  the :data:`EXPORTERS` registry (``jsonl``, ``chrome``,
               ``prometheus``; extend with :func:`register_exporter`)
``trace_cmd``  the ``repro-bench trace`` subcommand: slowest queries,
               phase totals, per-disk utilisation timeline; its
               ``--json`` export is what ``repro-bench diff`` compares

Only ``trace_cmd`` (which builds Datasets) loads lazily; everything
else imports nothing above :mod:`repro.errors`/:mod:`repro.registry`,
so the executor and traffic engine can hook it without cycles.
"""

from __future__ import annotations

from repro.obs.exporters import (
    EXPORTERS,
    ExporterEntry,
    export_trace,
    exporter_names,
    register_exporter,
)
from repro.obs.metrics import DEFAULT_BUCKETS_MS, Histogram, MetricsRegistry
from repro.obs.span import Span, Tracer
from repro.obs.telemetry import Telemetry

#: lazily loaded names -> defining module (the trace subcommand pulls in
#: the Dataset façade, which must be importable before repro.obs is)
_LAZY_EXPORTS = {
    "run_trace": "repro.obs.trace_cmd",
    "render_trace": "repro.obs.trace_cmd",
    "slowest_queries": "repro.obs.trace_cmd",
    "disk_utilization": "repro.obs.trace_cmd",
}

__all__ = [
    "DEFAULT_BUCKETS_MS",
    "EXPORTERS",
    "ExporterEntry",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "Telemetry",
    "Tracer",
    "export_trace",
    "exporter_names",
    "register_exporter",
    *_LAZY_EXPORTS,
]


def __getattr__(name: str):
    module_name = _LAZY_EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro.obs' has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY_EXPORTS))
