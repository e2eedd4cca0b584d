"""Exception hierarchy for the MultiMap reproduction.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything coming out of this package with a single ``except`` clause.
The integer, count and shape checks the API boundaries share live here
too, below every layer that raises through them
(:mod:`repro.query.workload` re-exports the integer checks).
"""

from __future__ import annotations

import numpy as np


class ReproError(Exception):
    """Base class for every exception raised by :mod:`repro`."""


class GeometryError(ReproError):
    """Raised for invalid disk geometry parameters or out-of-range LBNs."""


class AdjacencyError(ReproError):
    """Raised when an adjacent block cannot be produced.

    Typical causes: the requested adjacency step exceeds ``D``, or the target
    track would fall outside the zone of the starting block (MultiMap never
    maps basic cubes across zone boundaries, so adjacency is intra-zone).
    """


class MappingError(ReproError):
    """Raised when a dataset cannot be mapped (constraint violations)."""


class AllocationError(ReproError):
    """Raised when a logical volume cannot satisfy an allocation request."""


class QueryError(ReproError):
    """Raised for malformed queries (out-of-bounds ranges, bad axes)."""


class DatasetError(ReproError):
    """Raised by dataset generators for invalid parameters."""


class RegistryError(ReproError):
    """Raised by the :mod:`repro.api` registries for unknown or duplicate
    layout/drive names."""


class CacheError(ReproError):
    """Raised by :mod:`repro.cache` for invalid buffer-pool configuration
    or policy misuse (e.g. evicting from an empty policy)."""


class ReplicaError(ReproError):
    """Raised by :mod:`repro.replica` for invalid replication configuration
    or unreadable data (every copy of a chunk on failed disks)."""


class BenchmarkError(ReproError):
    """Raised by :mod:`repro.bench` and :mod:`repro.perf` for invalid
    sweep parameters or a fast path that diverges from its reference."""


class IngestError(ReproError):
    """Raised by :mod:`repro.ingest` for invalid stream/loader
    configuration or an unserviceable flush (e.g. every copy of a
    chunk's write targets on failed disks)."""


class ObsError(ReproError):
    """Raised by :mod:`repro.obs` for invalid telemetry configuration
    (unknown exporter, mismatched histogram buckets, malformed spans)."""


class MonitorError(ReproError):
    """Raised by :mod:`repro.monitor` for invalid monitoring
    configuration (bad window size, unknown SLO rule, malformed run
    summaries handed to the differ)."""


class ExplainError(ReproError):
    """Raised by :mod:`repro.explain` for invalid diagnosis requests
    (unexplainable query types, mismatched stride arrays, malformed
    reports handed to the attributor)."""


def _check_int(name: str, value, error=QueryError) -> int:
    # bool is an int subclass, but True as a coordinate is a bug
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise error(f"{name} must be an integer, got {value!r}")
    return int(value)


def _check_count(name: str, value, error=QueryError, low: int = 1) -> int:
    """``value`` as a Python int of at least ``low``: an integer (numpy
    integers included, bools not), never truncated."""
    count = _check_int(name, value, error)
    if count < low:
        raise error(f"{name} must be >= {low}, got {count}")
    return count


def _check_ints(name: str, values) -> tuple[int, ...]:
    try:
        items = tuple(values)
    except TypeError:
        raise QueryError(
            f"{name} must be a sequence of integers, got {values!r}"
        ) from None
    for d, v in enumerate(items):
        if type(v) is not int:
            # numpy integers pass, anything else raises
            _check_int(f"{name}[{d}]", v)
    return tuple(map(int, items))


def _check_shape(shape, error=DatasetError) -> tuple[int, ...]:
    """A grid shape as Python ints: a non-empty sequence of integers
    (numpy integers included, bools not), each at least 1."""
    try:
        items = tuple(shape)
    except TypeError:
        raise error(
            f"shape must be a sequence of integers, got {shape!r}"
        ) from None
    if not items:
        raise error("shape must have at least one dimension")
    dims = tuple(_check_int(f"shape[{d}]", s, error)
                 for d, s in enumerate(items))
    for d, s in enumerate(dims):
        if s < 1:
            raise error(f"shape[{d}] must be >= 1, got {s}")
    return dims
