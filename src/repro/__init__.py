"""repro — reproduction of MultiMap (Shao et al., ICDE 2007).

MultiMap maps N-dimensional datasets onto disks so that one dimension gets
full streaming bandwidth and every other dimension gets *semi-sequential*
access (settle-time hops with zero rotational latency) via the adjacency
model of modern disks.

Public surface
--------------
The :class:`Dataset` façade (re-exported from :mod:`repro.api`) is the
entry point: it owns the drive/volume/mapper/storage-manager wiring,
resolves layouts and drives by name through string-keyed registries, and
runs fluent query batches into structured :class:`Report` objects::

    from repro import Dataset

    ds = Dataset.create((216, 64, 64), layout="multimap", drive="atlas10k3",
                        seed=42)
    print(ds.random_beams(axis=1, n=5).run().render_table())

The layers underneath remain importable for direct use:

``repro.api``       the façade, registries, query batches, reports
``repro.disk``      simulated drives, adjacency model, characterisation
``repro.lvm``       logical volumes and chunk declustering
``repro.mappings``  Naive / Z-order / Hilbert / Gray baselines
``repro.core``      MultiMap itself: basic cubes, planner, mapper
``repro.query``     beam and range queries, storage manager
``repro.cache``     buffer pool, eviction policies, locality prefetch
``repro.shard``     multi-disk scale-out: shard maps, scatter-gather
``repro.replica``   fault tolerance: replicated shards, failure injection
``repro.ingest``    streaming ingest, bulk loaders, write-path pipeline
``repro.traffic``   concurrent multi-client traffic simulation
``repro.perf``      plan-prep fast path: memoization, reference, perf sweep
``repro.obs``       telemetry: span tracing, metrics, trace exporters
``repro.explain``   EXPLAIN/ANALYZE plan diagnosis, regression attribution
``repro.datasets``  the paper's three evaluation datasets
``repro.analytic``  the expected-cost model
``repro.bench``     one regenerator per paper figure, the CLI, run diffing

All façade attributes load lazily (PEP 562): ``import repro`` stays cheap.
"""

from __future__ import annotations

__version__ = "1.9.0"

#: single source of truth for the lazy public surface: name -> module
_LAZY_EXPORTS = {
    "DRIVES": "repro.api.registry",
    "Dataset": "repro.api.dataset",
    "LAYOUTS": "repro.api.registry",
    "QueryBatch": "repro.api.dataset",
    "QueryRecord": "repro.api.report",
    "Report": "repro.api.report",
    "drive_names": "repro.api.registry",
    "get_drive": "repro.api.registry",
    "get_layout": "repro.api.registry",
    "layout_names": "repro.api.registry",
    "register_drive": "repro.api.registry",
    "register_layout": "repro.api.registry",
    "BeamQuery": "repro.query.workload",
    "RangeQuery": "repro.query.workload",
    "QueryResult": "repro.query.executor",
    "TrafficRun": "repro.api.traffic",
    "TrafficReport": "repro.traffic.stats",
    "BufferPool": "repro.cache",
    "CacheStats": "repro.cache",
    "policy_names": "repro.cache",
    "prefetcher_names": "repro.cache",
    "register_policy": "repro.cache",
    "register_prefetcher": "repro.cache",
    "ShardMap": "repro.shard",
    "ShardedStorageManager": "repro.shard",
    "ReplicaMap": "repro.replica",
    "FailureSchedule": "repro.replica",
    "placement_names": "repro.replica",
    "read_policy_names": "repro.replica",
    "register_placement": "repro.replica",
    "register_read_policy": "repro.replica",
    "register_strategy": "repro.lvm.striping",
    "strategy_names": "repro.lvm.striping",
    "IngestRun": "repro.api.ingest",
    "IngestPipeline": "repro.ingest",
    "IngestReport": "repro.ingest",
    "loader_names": "repro.ingest",
    "register_loader": "repro.ingest",
    "stream_names": "repro.ingest",
    "register_stream": "repro.ingest",
    "Telemetry": "repro.obs",
    "MetricsRegistry": "repro.obs",
    "Tracer": "repro.obs",
    "EXPORTERS": "repro.obs",
    "exporter_names": "repro.obs",
    "register_exporter": "repro.obs",
    "COST_CLASSES": "repro.explain",
    "attribute_runs": "repro.explain",
    "explain_query": "repro.explain",
    "analyze_query": "repro.explain",
}

__all__ = sorted([*_LAZY_EXPORTS, "__version__"])


def __getattr__(name: str):
    try:
        module = _LAZY_EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    from importlib import import_module

    return getattr(import_module(module), name)


def __dir__():
    return sorted(__all__)
