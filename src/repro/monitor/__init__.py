"""Continuous monitoring: windowed series, SLOs, health, diffing.

``repro.monitor`` layers operational monitoring on :mod:`repro.obs` —
opt-in (``Dataset.with_telemetry(monitor=...)`` or
``Dataset.with_monitor()``), deterministic (every window, alert, and
health transition is a pure function of the recorded spans and the
seed), and zero-impact when detached (the parity suite pins detached
output bit-identical):

``timeseries``  :class:`TimeSeries` — tumbling simulated-time windows
                of throughput, latency quantiles, per-drive queue depth
                and utilisation, cache hit ratio, ingest goodput, and
                degraded capacity
``slo``         the :data:`RULES` registry (:func:`register_rule`) of
                declarative SLO rules — latency threshold, error-budget
                burn rate, queue saturation, degraded capacity — each
                emitting :class:`AlertEvent` s stamped at simulated time
``health``      :class:`HealthTracker` — the healthy → degraded →
                saturated → recovering state machine driven by
                failover/revive events and firing alerts
``monitor``     :class:`Monitor` — the handle a Telemetry carries; its
                :meth:`~Monitor.describe` is the gated
                ``meta["monitor"]`` block
``diff``        ``repro-bench diff``: run-to-run comparison of exported
                reports, and the one band rule and report check that
                ``diff --attribute`` and ``perf --check`` share
``dashboard``   ``repro-bench dashboard``: sparkline/heatmap rendering
                of one monitored storm

Only ``diff``/``dashboard`` (which reach the bench/Dataset layers)
load lazily; the core imports nothing above :mod:`repro.obs`, so a
Telemetry can carry a Monitor without import cycles.
"""

from __future__ import annotations

from repro.monitor.health import HEALTH_STATES, HealthTracker
from repro.monitor.monitor import Monitor
from repro.monitor.slo import (
    RULES,
    AlertEvent,
    BurnRateRule,
    DegradedCapacityRule,
    LatencyThresholdRule,
    QueueSaturationRule,
    register_rule,
    resolve_rules,
    rule_names,
)
from repro.monitor.timeseries import TimeSeries

#: lazily loaded names -> defining module (these pull in the reporting
#: and Dataset layers, which must be importable before repro.monitor)
_LAZY_EXPORTS = {
    "diff_runs": "repro.monitor.diff",
    "render_diff": "repro.monitor.diff",
    "run_dashboard": "repro.monitor.dashboard",
    "render_dashboard": "repro.monitor.dashboard",
}

__all__ = [
    "HEALTH_STATES",
    "RULES",
    "AlertEvent",
    "BurnRateRule",
    "DegradedCapacityRule",
    "HealthTracker",
    "LatencyThresholdRule",
    "Monitor",
    "QueueSaturationRule",
    "TimeSeries",
    "register_rule",
    "resolve_rules",
    "rule_names",
    *_LAZY_EXPORTS,
]


def __getattr__(name: str):
    module_name = _LAZY_EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(
            f"module 'repro.monitor' has no attribute {name!r}"
        )
    import importlib

    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY_EXPORTS))
