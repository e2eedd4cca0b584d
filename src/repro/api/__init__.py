"""Public façade: ``Dataset``, fluent query batches, and registries.

Everything downstream code needs lives here::

    from repro.api import Dataset, layout_names, drive_names

    ds = Dataset.create((216, 64, 64), layout="multimap", drive="atlas10k3",
                        seed=42)
    print(ds.random_beams(axis=1, n=5).run().render_table())

Attributes are loaded lazily (PEP 562) so the registration decorators in
:mod:`repro.mappings`, :mod:`repro.core` and :mod:`repro.disk` can import
:mod:`repro.api.registry` without cycles.
"""

from __future__ import annotations

#: single source of truth for the lazy public surface: name -> module
_LAZY_EXPORTS = {
    "DRIVES": "repro.api.registry",
    "DriveEntry": "repro.api.registry",
    "LAYOUTS": "repro.api.registry",
    "LayoutEntry": "repro.api.registry",
    "Registry": "repro.api.registry",
    "build_mapper": "repro.api.registry",
    "drive_names": "repro.api.registry",
    "get_drive": "repro.api.registry",
    "get_layout": "repro.api.registry",
    "layout_names": "repro.api.registry",
    "register_drive": "repro.api.registry",
    "register_layout": "repro.api.registry",
    "Dataset": "repro.api.dataset",
    "QueryBatch": "repro.api.dataset",
    "QueryRecord": "repro.api.report",
    "Report": "repro.api.report",
    "TrafficRun": "repro.api.traffic",
    "TrafficReport": "repro.traffic.stats",
    "BufferPool": "repro.cache",
    "CacheStats": "repro.cache",
    "PREFETCHERS": "repro.cache",
    "prefetcher_names": "repro.cache",
    "register_prefetcher": "repro.cache",
    "FailureEvent": "repro.replica",
    "FailureSchedule": "repro.replica",
    "ReplicaMap": "repro.replica",
    "ReplicaStats": "repro.replica",
    "ShardMap": "repro.shard",
    "ShardStats": "repro.shard",
    "ShardedMapper": "repro.shard",
    "ShardedStorageManager": "repro.shard",
    "STRATEGIES": "repro.lvm.striping",
    "register_strategy": "repro.lvm.striping",
    "strategy_names": "repro.lvm.striping",
}

__all__ = sorted(_LAZY_EXPORTS)


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
