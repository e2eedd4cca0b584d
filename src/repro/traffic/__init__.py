"""Concurrent multi-client traffic simulation.

The batch executor (:meth:`repro.api.Dataset.run`) times one query at a
time on idle drives; this package models *contention*: many clients issuing
beam/range queries concurrently against drives they share, with
queueing, slice-level interleaving, and per-client fairness statistics.

Quick tour::

    from repro.api import Dataset
    from repro.traffic import QueryMix, PoissonArrivals

    ds = Dataset.create((64, 64, 32), layout="multimap", seed=42)
    report = (
        ds.traffic()
        .clients(8, mix=QueryMix.beams(1, 2), queries=25)
        .run()
    )
    print(report.render_table())

Everything is seeded and wall-clock free: the same seeds produce a
bit-identical :class:`TrafficReport`.  :func:`run_storm` sweeps layouts
x client counts (``repro-bench traffic``, on :mod:`repro.bench.sweep`);
:func:`~repro.traffic.storm.run_one_storm` runs one telemetry-attached
storm for ``repro-bench trace``.
"""

from repro.traffic.arrivals import ArrivalProcess, ClosedLoop, PoissonArrivals
from repro.traffic.clients import (
    BeamDraw,
    QueryMix,
    RangeDraw,
    Replay,
    TrafficClient,
)
from repro.traffic.engine import TrafficConfig, TrafficSim
from repro.traffic.stats import DriveStats, QueryTrace, TrafficReport
from repro.traffic.storm import render_storm, run_storm

__all__ = [
    "ArrivalProcess",
    "BeamDraw",
    "ClosedLoop",
    "DriveStats",
    "PoissonArrivals",
    "QueryMix",
    "QueryTrace",
    "RangeDraw",
    "Replay",
    "TrafficClient",
    "TrafficConfig",
    "TrafficReport",
    "TrafficSim",
    "render_storm",
    "run_storm",
]
