"""Exception hierarchy for the MultiMap reproduction.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything coming out of this package with a single ``except`` clause.
The integer, count, float, keyword, coordinate and shape checks the
API boundaries share live here too, below every layer that raises
through them (:mod:`repro.query.workload` re-exports the integer
checks).
"""

from __future__ import annotations

import inspect
import math
from functools import cache

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


class DiffError(ReproError):
    """Raised by :mod:`repro.bench.diff` for reports it cannot compare
    (an unreadable or non-JSON file, a malformed field, a negative or
    non-finite tolerance)."""


class ExplainError(ReproError):
    """Raised by :mod:`repro.explain` for invalid diagnosis requests
    (unexplainable query types, mismatched stride arrays, malformed
    reports handed to the attributor)."""


def _check_int(name: str, value, error=QueryError) -> int:
    """``value`` as a Python int: an integer, numpy integers included,
    bools not (bool is an int subclass, but True as a coordinate is a
    bug); a plain int is returned at once."""
    if type(value) is int:
        return value
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


def _check_float(name: str, value, error=QueryError) -> float:
    """``value`` as a finite Python float: a real number (numpy floats
    and integers included, bools not); NaN and infinities raise."""
    if isinstance(value, bool) or not isinstance(
        value, (int, float, np.integer, np.floating)
    ):
        raise error(f"{name} must be a number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise error(f"{name} must be finite, got {value!r}")
    return value


def _check_keywords(name: str, given, allowed, error=QueryError) -> None:
    """Raise ``error`` naming any key of ``given`` not in ``allowed``."""
    unknown = sorted(set(given) - set(allowed))
    if unknown:
        raise error(
            f"unknown {name} option(s) {', '.join(map(repr, unknown))} "
            f"(accepted: {', '.join(sorted(allowed)) or 'none'})"
        )


@cache
def _keywords(fn) -> frozenset:
    """The keywords ``fn`` accepts after its first two parameters (a
    loader's ``dataset, stream``); for a class, those ``cls(dims, ...)``
    accepts after ``dims``: each ``__init__``'s named parameters up the
    class chain, until one that passes no ``**opts`` on."""
    chain = ([klass.__dict__.get("__init__") for klass in fn.__mro__]
             if isinstance(fn, type) else [fn])
    names: set[str] = set()
    for init in chain:
        if init is None:
            continue
        params = list(inspect.signature(init).parameters.values())[2:]
        names.update(p.name for p in params
                     if p.kind in (p.POSITIONAL_OR_KEYWORD, p.KEYWORD_ONLY))
        if not any(p.kind is p.VAR_KEYWORD for p in params):
            break
    return frozenset(names)


def _check_rng(rng, error=QueryError) -> None:
    """Raise ``error`` unless ``rng`` is None or a
    :class:`numpy.random.Generator`."""
    if rng is not None and not isinstance(rng, np.random.Generator):
        raise error(f"rng must be a numpy.random.Generator, got {rng!r}")


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


def _check_coords(coords, dims, error=QueryError) -> np.ndarray:
    """Cell coordinates on the grid ``dims`` as an ``(n, len(dims))``
    int64 array (one cell may come as a flat row): integers, numpy
    integers included, bools not, each inside its axis; anything else,
    a ragged list included, raises ``error``.  Only a list is scanned
    for bools element by element: an integer ndarray holds none."""
    try:
        arr = np.asarray(coords)
    except ValueError:
        raise error("coords must be a rectangular array of integers") \
            from None
    if arr.dtype.kind not in "iu":
        # floats would truncate silently; bools would read as 0/1
        raise error(f"coords must be integers, got dtype {arr.dtype}")
    if not isinstance(coords, np.ndarray) and any(
        isinstance(v, (bool, np.bool_))
        for v in np.asarray(coords, dtype=object).flat
    ):
        # a list mixing bools and ints converts to an integer array
        raise error("coords must be integers, not bools")
    arr = arr.astype(np.int64, copy=False)
    if arr.ndim == 1:
        arr = arr[np.newaxis, :]
    if arr.ndim != 2 or arr.shape[1] != len(dims):
        raise error(
            f"coordinate rank does not match the dataset: coords must "
            f"be (n_cells, {len(dims)})"
        )
    # axis by axis: a comparison against all dims at once runs numpy
    # over rows of ndim values
    if arr.size and (arr.min() < 0 or any(
        arr[:, d].max() >= s for d, s in enumerate(dims)
    )):
        raise error("coordinate out of dataset bounds")
    return arr


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
