"""The settings surface: every keyword a caller can set on the stack.

Each entry lists a builder's parameters in signature order (``**name``
for a pass-through of keywords checked elsewhere: ``Dataset.create``'s
layout options against the mapper, ``with_ingest``'s, ``ingest``'s and
``make_stream``'s against the stream).  A change that adds or retires a
setting edits this table in the same diff, so the surface only grows on
purpose.  The §5.2 conventions' numbers are constants of
:mod:`repro.query.scheduler`, not settings, and a pool has no tuning
keywords beyond its size and prefetcher.  The ingest pipeline's
staging cost and overflow bound are constants of
:mod:`repro.ingest.pipeline`, and a reorganisation takes only its
pipeline.  The public methods of the traffic and ingest runs are a
table too, so a second way to set something (an alias method) is an
edit here.  So are the registries' names (:data:`REGISTRIES`): a
registry holds only what a figure, pin, example or benchmark selects,
and a setting with one alternative is a constant, not a table.
"""

import dataclasses
import importlib
import inspect

import pytest

from repro.api import Dataset
from repro.api.ingest import IngestRun
from repro.api.traffic import TrafficRun
from repro.cache import BufferPool
from repro.ingest import pipeline
from repro.ingest.pipeline import IngestPipeline
from repro.ingest.reorg import plan_reorganize
from repro.ingest.streams import make_stream
from repro.query import StorageManager, scheduler
from repro.shard import ShardedStorageManager
from repro.traffic.engine import TrafficConfig

#: builder -> its parameters in signature order
SURFACE = {
    "Dataset.create": (
        "shape", "layout", "drive", "cell_blocks", "depth", "seed",
        "window", "**layout_opts",
    ),
    "Dataset.with_cache": ("capacity_blocks", "prefetch"),
    "Dataset.with_shards": ("n_shards", "strategy", "chunk_shape"),
    "Dataset.with_replication": ("k",),
    "Dataset.with_telemetry": ("trace", "metrics"),
    "Dataset.with_ingest": ("stream", "loader", "**opts"),
    "BufferPool": ("capacity_blocks", "prefetch"),
    "StorageManager": ("volume", "window", "cache"),
    "ShardedStorageManager": (
        "volume", "shard_map", "layout", "k", "cell_blocks", "window",
        "cache", "layout_opts",
    ),
    "Dataset.ingest": ("**overrides",),
    "IngestPipeline": ("dataset", "stream", "plan", "flush_points"),
    "plan_reorganize": ("pipeline",),
    "make_stream": ("name", "dims", "**opts"),
    "TrafficRun.clients": ("n", "mix", "arrival", "queries", "name"),
    "TrafficRun.kill": ("at_ms", "disk", "revive_at_ms"),
    "TrafficConfig": ("slice_runs",),
}

#: run class -> its public methods, sorted
METHODS = {
    "TrafficRun": ("clients", "kill", "run", "slice_runs"),
    "IngestRun": ("run",),
}

#: (module, table) -> its names, sorted
REGISTRIES = {
    ("repro.api.registry", "LAYOUTS"): (
        "gray", "hilbert", "multimap", "naive", "zorder",
    ),
    ("repro.api.registry", "DRIVES"): (
        "atlas10k3", "cheetah36es", "minidrive", "toy",
    ),
    ("repro.lvm.striping", "STRATEGIES"): ("disk_modulo", "round_robin"),
    ("repro.cache", "PREFETCHERS"): ("none", "track"),
    ("repro.ingest", "LOADERS"): ("adaptive", "fixed"),
    ("repro.ingest", "STREAMS"): ("clustered", "uniform"),
    ("repro.traffic.arrivals", "ARRIVALS"): ("closed", "poisson"),
}

#: package -> the retired tables and helpers it no longer exports (a
#: setting with one alternative is a constant of its module)
RETIRED = {
    "repro.cache": ("POLICIES", "EvictionPolicy", "policy_names",
                    "register_policy"),
    "repro.replica": ("PLACEMENTS", "READ_POLICIES", "placement_names",
                      "read_policy_names", "register_placement",
                      "register_read_policy"),
    "repro.obs": ("EXPORTERS", "exporter_names", "register_exporter"),
}


def parameters(fn) -> tuple[str, ...]:
    return tuple(
        ("**" if p.kind is p.VAR_KEYWORD else "") + p.name
        for p in inspect.signature(fn).parameters.values()
        if p.name != "self"
    )


def test_settings_surface():
    builders = {
        "Dataset.create": Dataset.create,
        "Dataset.with_cache": Dataset.with_cache,
        "Dataset.with_shards": Dataset.with_shards,
        "Dataset.with_replication": Dataset.with_replication,
        "Dataset.with_telemetry": Dataset.with_telemetry,
        "Dataset.with_ingest": Dataset.with_ingest,
        "BufferPool": BufferPool,
        "StorageManager": StorageManager,
        "ShardedStorageManager": ShardedStorageManager,
        "Dataset.ingest": Dataset.ingest,
        "IngestPipeline": IngestPipeline,
        "plan_reorganize": plan_reorganize,
        "make_stream": make_stream,
        "TrafficRun.clients": TrafficRun.clients,
        "TrafficRun.kill": TrafficRun.kill,
    }
    actual = {name: parameters(fn) for name, fn in builders.items()}
    actual["TrafficConfig"] = tuple(
        f.name for f in dataclasses.fields(TrafficConfig)
    )
    assert actual == SURFACE


def test_run_methods():
    actual = {
        cls.__name__: tuple(sorted(
            name for name, value in vars(cls).items()
            if callable(value) and not name.startswith("_")
        ))
        for cls in (TrafficRun, IngestRun)
    }
    assert actual == METHODS


def test_ingest_constants():
    """The retired pipeline keywords' values, now constants."""
    assert pipeline.STAGE_MS_PER_POINT == 2e-4
    assert pipeline.MAX_OVERFLOW_PAGES == 256


def test_storage_conventions_are_constants():
    """The two §5.2 numbers every dataset shares, and the one queue
    depth a dataset may set (``window``)."""
    assert scheduler.SPTF_RUN_LIMIT == 150_000
    assert scheduler.COALESCE_GAP_BLOCKS == 24
    window = inspect.signature(Dataset.create).parameters["window"]
    assert window.default == scheduler.DEFAULT_WINDOW == 128


def test_registries():
    actual = {
        (module, table): tuple(sorted(
            getattr(importlib.import_module(module), table)
        ))
        for module, table in REGISTRIES
    }
    assert actual == REGISTRIES


@pytest.mark.parametrize("package", sorted(RETIRED))
def test_retired_tables_are_gone(package):
    module = importlib.import_module(package)
    for name in RETIRED[package]:
        assert not hasattr(module, name), f"{package}.{name}"


def test_single_alternatives_are_constants():
    """What the retired one-entry tables named, the pins still record."""
    from repro.cache import LRUPolicy
    from repro.replica import PLACEMENT, READ_POLICY
    from repro.traffic.engine import HEAD

    assert (LRUPolicy.name, PLACEMENT, READ_POLICY, HEAD) == (
        "lru", "rotated", "primary", "random",
    )
