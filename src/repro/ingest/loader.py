"""Bulk-loading strategies: fixed vs adaptive cell/chunk sizing.

A loader inspects the dataset and the incoming stream *before* any
point is buffered and fixes the knobs the pipeline will load under: the
per-cell point capacity, the initial fill factor, and (on sharded
datasets) a suggested chunk shape.  The ``fixed`` loader keeps the
configured defaults; the ``adaptive`` loader follows the sampling idea
of "Fast and Adaptive Bulk Loading of Multidimensional Points": it
draws a seeded sample from the stream, estimates the per-cell density
at a high quantile to size cells so hot cells do not spill to overflow
chains, and picks the chunk split axis whose marginal distribution is
flattest across the member disks (least imbalanced slabs).

Loaders are registered in :data:`LOADERS` (``repro-bench
--list-loaders``) with the plain ``fn(dataset, stream, **opts) ->
IngestPlan`` shape, mirroring the declustering strategies' registry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.errors import IngestError, _check_count, _check_float
from repro.registry import Registry, first_doc_line

__all__ = [
    "LOADERS",
    "IngestPlan",
    "LoaderEntry",
    "loader_names",
    "register_loader",
    "resolve_loader",
]


@dataclass(frozen=True)
class IngestPlan:
    """The knobs a loader fixed for one ingest run."""

    points_per_cell: int
    fill_factor: float
    chunk_shape: tuple | None = None
    meta: dict = field(default_factory=dict)

    def describe(self) -> dict:
        return {
            "points_per_cell": int(self.points_per_cell),
            "fill_factor": float(self.fill_factor),
            "chunk_shape": (
                None if self.chunk_shape is None else list(self.chunk_shape)
            ),
            **{k: v for k, v in self.meta.items()},
        }


@dataclass(frozen=True)
class LoaderEntry:
    """A registered bulk-loading strategy.

    ``fn(dataset, stream, **opts)`` returns an :class:`IngestPlan`; it
    must not mutate either argument (sampling uses the stream's
    independent substream).  Its keyword parameters are the loader's
    options: an ingest run's ``loader_opts`` may name only those.
    """

    name: str
    fn: Callable
    description: str = ""


#: loader-name -> :class:`LoaderEntry`; builtins live in this module,
#: so importing it is the whole population step
LOADERS = Registry("loader")


def register_loader(name: str, *, description: str = ""):
    """Function decorator adding a loading strategy to
    :data:`LOADERS`."""

    def deco(fn):
        desc = description or first_doc_line(fn)
        LOADERS.add(name, LoaderEntry(name, fn, desc))
        return fn

    return deco


def loader_names() -> tuple[str, ...]:
    return LOADERS.names()


def resolve_loader(name) -> LoaderEntry:
    """The entry of the loader registered as ``name``; a name that is
    not a string raises :class:`IngestError`."""
    if not isinstance(name, str):
        raise IngestError(
            f"unknown loader spec {name!r} (registered: "
            f"{', '.join(loader_names())})"
        )
    return LOADERS.get(name)


def _linear_quantile(values, q: float) -> float:
    """``np.quantile(values, q)`` of a non-empty 1-D sample, numpy's
    default linear method, without the call: its first use imports
    ``numpy.ma``, ~14 ms that an ingest set-up would pay for one order
    statistic.  The same arithmetic: virtual index ``(n - 1) * q``, then
    a lerp from whichever neighbour lies nearer."""
    ordered = sorted(np.asarray(values).tolist())
    virtual = (len(ordered) - 1) * q
    if virtual >= len(ordered) - 1:
        return float(ordered[-1])
    lo = math.floor(virtual)
    a, b = ordered[lo], ordered[lo + 1]
    t = virtual - lo
    if t >= 0.5:
        return float(b - (b - a) * (1 - t))
    return float(a + (b - a) * t)


def _check_fraction(name: str, value) -> float:
    """A finite float in (0, 1]."""
    value = _check_float(name, value, IngestError)
    if not 0.0 < value <= 1.0:
        raise IngestError(f"{name} must be in (0, 1]")
    return value


@register_loader("fixed")
def _fixed(dataset, stream, *, points_per_cell: int = 16,
           fill_factor: float = 1.0) -> IngestPlan:
    """Keep the configured chunking and a fixed per-cell capacity."""
    return IngestPlan(
        points_per_cell=_check_count("points_per_cell", points_per_cell,
                                     IngestError),
        fill_factor=_check_fraction("fill_factor", fill_factor),
        chunk_shape=None,
        meta={"loader": "fixed"},
    )


@register_loader("adaptive")
def _adaptive(dataset, stream, *, points_per_cell: int = 16,
              fill_factor: float = 1.0, sample_points: int = 512,
              quantile: float = 0.98, headroom: float = 1.25) -> IngestPlan:
    """Sample the stream: size cells to the observed density, split
    chunks along the flattest marginal."""
    points_per_cell = _check_count("points_per_cell", points_per_cell,
                                   IngestError)
    fill_factor = _check_fraction("fill_factor", fill_factor)
    sample_points = _check_count("sample_points", sample_points,
                                 IngestError)
    quantile = _check_fraction("quantile", quantile)
    headroom = _check_float("headroom", headroom, IngestError)
    if headroom < 1.0:
        raise IngestError("headroom must be >= 1")
    sample = stream.sample(min(sample_points, stream.n_points))
    dims = tuple(int(s) for s in dataset.shape)

    # per-cell density estimate: quantile of the sampled occupancy,
    # scaled up to the full stream, with headroom against undersampling
    strides = np.cumprod((1,) + dims[:-1]).astype(np.int64)
    flat = sample @ strides
    _, cnt = np.unique(flat, return_counts=True)
    scale = stream.n_points / len(sample)
    est = _linear_quantile(cnt, quantile) * scale * headroom
    ppc = int(np.clip(np.ceil(est), points_per_cell, 4096))

    # chunk split axis: slab the axis whose marginal spreads the sample
    # most evenly over n_shards slabs (ties keep the last-axis default)
    chunk_shape = None
    split_axis = None
    n = int(getattr(dataset, "n_shards", 1))
    if n > 1:
        imbalance = []
        for d, s in enumerate(dims):
            hist, _ = np.histogram(sample[:, d],
                                   bins=np.linspace(0, s, n + 1))
            imbalance.append(hist.max() * n / len(sample))
        rev = imbalance[::-1]
        split_axis = len(dims) - 1 - int(np.argmin(rev))
        shape = list(dims)
        shape[split_axis] = -(-dims[split_axis] // n)
        chunk_shape = tuple(shape)

    return IngestPlan(
        points_per_cell=ppc,
        fill_factor=fill_factor,
        chunk_shape=chunk_shape,
        meta={
            "loader": "adaptive",
            "sampled_points": int(len(sample)),
            "estimated_cell_points": est,
            "split_axis": split_axis,
        },
    )
