"""Per-layer attribution for ``--trace 1`` runs.

The tracer wraps the entry points of each layer of the program from the
outside: every call records a span on the host clock, and a layer's
*self time* is its spans' duration minus the time of the wrapped calls
they made into other layers (a stack of open spans tracks that).  The
drive layer's spans also sum the simulated mechanics each batch
reported, so the simulated clock is attributed to seek, rotation,
transfer, head switch and command overhead.

Targets are looked up by name and skipped when absent, so a refactor
that moves a method loses that layer's attribution (its time shows up
in its caller's layer or in ``other``) instead of breaking the run.
"""

from __future__ import annotations

import functools
import importlib
import sys
import types
from collections import defaultdict
from time import perf_counter

#: layer -> [(module, class, methods)]; the mapper layer is every Mapper
#: subclass (MAPPER_METHODS)
METHODS = {
    "api": [
        ("repro.api.dataset", "Dataset", ("run",)),
        ("repro.api.dataset", "QueryBatch", ("run",)),
        ("repro.api.traffic", "TrafficRun", ("run",)),
    ],
    "query": [
        ("repro.query.executor", "StorageManager",
         ("prepare", "prepare_plan", "prepare_write", "execute_prepared",
          "admit_prepared", "execute_plan", "run_query", "beam", "range")),
    ],
    "shard": [
        ("repro.shard.executor", "ShardedStorageManager",
         ("prepare", "execute_prepared", "admit_prepared", "write_copies",
          "run_query", "beam", "range")),
        ("repro.replica.executor", "ReplicatedStorageManager",
         ("prepare", "failover_sub", "admit_prepared", "write_copies",
          "fail_disk", "revive_disk")),
    ],
    "traffic": [
        ("repro.traffic.engine", "TrafficSim", ("run",)),
    ],
    "ingest": [
        ("repro.api.ingest", "IngestRun", ("run",)),
        ("repro.ingest.pipeline", "IngestPipeline",
         ("__init__", "stage", "build_flush", "prepare_batch",
          "drain_disks")),
    ],
    "drive": [
        ("repro.disk.drive", "DiskDrive", ("service_runs",)),
    ],
}

#: wrapped on repro.mappings.base.Mapper and each of its subclasses
MAPPER_METHODS = ("lbns", "lbns_batch", "beam_plan", "range_plan",
                  "plan_from_ranks", "write_extents", "code_table")

#: module-level functions, rebound wherever a repro module imported them
FUNCTIONS = {
    "shard": [("repro.query.scatter", "scatter_execute")],
    "reorg": [("repro.ingest.reorg", "plan_reorganize")],
}

LAYERS = ("api", "mapper", "query", "shard", "traffic", "ingest", "reorg",
          "drive")

#: simulated components a drive batch reports (BatchResult fields)
SIM_PARTS = ("seek_ms", "rotation_ms", "transfer_ms", "switch_ms",
             "overhead_ms")


def _lookup(module: str, name: str):
    try:
        return getattr(importlib.import_module(module), name)
    except (ImportError, AttributeError):
        return None


def _subclasses(cls):
    seen, todo = [], [cls]
    while todo:
        c = todo.pop()
        if c not in seen:
            seen.append(c)
            todo.extend(c.__subclasses__())
    return seen


class LayerTracer:
    """Install with :meth:`install`, remove with :meth:`uninstall`;
    ``self_s`` holds host self seconds per layer and ``counts`` the
    drive and preparation counters, both cumulative since install."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self._stack: list[list[float]] = []
        self._undo: list[tuple] = []

    # -- spans ---------------------------------------------------------

    def _wrap(self, layer: str, fn, observe=None):
        stack = self._stack
        self_s = self.self_s

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [0.0]  # host time of wrapped calls made from here
            stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                self_s[layer] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
            if observe is not None:
                observe(args, kwargs, out)
            return out

        return span

    def _observe_drive(self, args, kwargs, res) -> None:
        c = self.counts
        c["drive.batches"] += 1
        c["drive.requests"] += getattr(res, "n_requests", 0)
        c["drive.blocks"] += getattr(res, "n_blocks", 0)
        if kwargs.get("policy") == "sptf":
            c["drive.sptf_batches"] += 1
        for part in SIM_PARTS:
            c["sim." + part] += getattr(res, part, 0.0)

    def _observe_prepare(self, args, kwargs, prepared) -> None:
        """Runs entering the §5.2 issue-order step (a read plan's runs,
        a write batch's blocks) and runs it issued to the drives."""
        raw = args[2] if len(args) > 2 else None
        self.counts["query.raw_runs"] += getattr(raw, "n_runs", None) \
            or getattr(raw, "size", 0)
        issued = getattr(prepared, "plan", None)
        self.counts["query.issued_runs"] += getattr(issued, "n_runs", 0)

    # -- install / uninstall -------------------------------------------

    def _set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def install(self) -> "LayerTracer":
        observers = {
            ("DiskDrive", "service_runs"): self._observe_drive,
            ("StorageManager", "prepare_plan"): self._observe_prepare,
            ("StorageManager", "prepare_write"): self._observe_prepare,
        }
        classes = []
        for layer, targets in METHODS.items():
            for module, cls_name, methods in targets:
                cls = _lookup(module, cls_name)
                if cls is not None:
                    classes.append((layer, cls, methods))
        mapper = _lookup("repro.mappings.base", "Mapper")
        if mapper is not None:
            classes += [("mapper", cls, MAPPER_METHODS)
                        for cls in _subclasses(mapper)]
        for layer, cls, methods in classes:
            for name in methods:
                fn = cls.__dict__.get(name)
                if isinstance(fn, types.FunctionType):
                    observe = observers.get((cls.__name__, name))
                    self._set(cls, name, self._wrap(layer, fn, observe))
        for layer, targets in FUNCTIONS.items():
            for module, name in targets:
                fn = _lookup(module, name)
                if fn is None:
                    continue
                span = self._wrap(layer, fn)
                for mod_name, mod in list(sys.modules.items()):
                    if not mod_name.startswith("repro") or mod is None:
                        continue
                    for attr, val in list(vars(mod).items()):
                        if val is fn:
                            self._set(mod, attr, span)
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)
