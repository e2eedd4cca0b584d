"""Seeded record streams: the input side of the ingest pipeline.

A record stream produces batches of integer cell coordinates (one row
per point) for a dataset's grid.  Streams are **replayable**: every
call to :meth:`RecordStream.batches` restarts an identical seeded
sequence, so an ingest run can be reproduced exactly — and the adaptive
loader can :meth:`~RecordStream.sample` the stream from an independent
substream without disturbing the batches the pipeline will consume.

Builtin generators (registered in :data:`STREAMS`):

- ``uniform`` — points uniform over the whole grid,
- ``clustered`` — a fixed set of Gaussian hotspots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.errors import (
    IngestError,
    _check_count,
    _check_float,
    _check_keywords,
    _keywords,
)
from repro.registry import Registry, first_doc_line

__all__ = [
    "STREAMS",
    "WINDOW_POINTS",
    "ClusteredStream",
    "RecordStream",
    "StreamEntry",
    "UniformStream",
    "make_stream",
    "register_stream",
    "stream_names",
]


@dataclass(frozen=True)
class StreamEntry:
    """A registered record-stream generator.

    ``factory(dims, **opts)`` builds the stream; every factory accepts
    at least ``n_points``, ``batch_points`` and ``seed``.
    """

    name: str
    factory: Callable
    description: str = ""


#: stream-name -> :class:`StreamEntry`; builtins live in this module,
#: so importing it is the whole population step
STREAMS = Registry("stream")


#: :meth:`RecordStream.windows` draws at most this many points at a time
#: (whole batches, at least one), so an ingest run holds a bounded share
#: of its stream however long it is
WINDOW_POINTS = 1 << 16


def register_stream(name: str, *, description: str = ""):
    """Class decorator adding a stream generator to :data:`STREAMS`."""

    def deco(cls):
        desc = description or first_doc_line(cls)
        STREAMS.add(name, StreamEntry(name, cls, desc))
        return cls

    return deco


def stream_names() -> tuple[str, ...]:
    return STREAMS.names()


def check_count(name: str, value) -> int:
    """``value`` as an int >= 1.  A float or bool raises instead of being
    truncated: ``n_points=100.7`` is a caller's bug, not 100 points."""
    return _check_count(name, value, IngestError)


def check_spread(spread) -> float:
    """A hotspot's noise spread as a finite float > 0."""
    spread = _check_float("spread", spread, IngestError)
    if spread <= 0:
        raise IngestError("spread must be > 0")
    return spread


def make_stream(name, dims, **opts) -> "RecordStream":
    """Build the stream registered as ``name`` over ``dims``.  A name
    that is not a string, or a keyword the stream does not take, raises
    :class:`IngestError`."""
    if not isinstance(name, str):
        raise IngestError(
            f"unknown stream spec {name!r} (registered: "
            f"{', '.join(stream_names())})"
        )
    factory = STREAMS.get(name).factory
    _check_keywords(factory.__name__, opts, _keywords(factory), IngestError)
    return factory(dims, **opts)


class RecordStream:
    """Base class: a seeded, replayable stream of cell coordinates.

    The stream is cut into batches of ``batch_points`` points, and
    :meth:`windows` draws them a window of whole batches at a time: each
    batch makes its own generator calls (:meth:`_draw_batch`), in batch
    order, and the window's draws are then turned into coordinates by
    one :meth:`_place` and one clip onto the grid.  Subclasses implement
    those two: ``_draw_batch(rng, n)`` returns one batch's raw draws as
    a tuple of arrays, one row per point, and ``_place(raw)`` the
    ``(n, ndim)`` coordinates of the raw draws of consecutive batches,
    concatenated array by array.  Every step of ``_place`` is
    elementwise, so a window's coordinates are bit-identical to drawing
    and placing its batches one by one.  ``sample()`` gives loaders an
    independent look at the distribution (a separate seeded substream).
    """

    kind = "stream"

    def __init__(self, dims, *, n_points: int = 2048,
                 batch_points: int = 256, seed: int = 0):
        dims = tuple(int(s) for s in dims)
        if not dims or any(s < 1 for s in dims):
            raise IngestError(f"invalid stream dims {dims}")
        self.dims = dims
        self.n_points = check_count("n_points", n_points)
        self.batch_points = check_count("batch_points", batch_points)
        # numpy's generators take any int >= 0 as a seed
        self.seed = _check_count("seed", seed, IngestError, low=0)
        self._hi = np.asarray(dims, dtype=np.int64) - 1

    @property
    def n_batches(self) -> int:
        return -(-self.n_points // self.batch_points)

    def windows(self, max_points: int | None = None):
        """A fresh, replay-identical iterator of ``(coords, ends)``
        windows: ``coords`` holds consecutive batches, batch ``b`` of the
        window ending at row ``ends[b]``.  A window holds as many whole
        batches as fit in ``max_points`` points (default
        :data:`WINDOW_POINTS`), and at least one."""
        if max_points is None:
            max_points = WINDOW_POINTS
        per_window = max(1, max_points // self.batch_points)
        rng = np.random.default_rng(self.seed)
        done = 0
        while done < self.n_points:
            stop = min(done + per_window * self.batch_points, self.n_points)
            ends = list(range(self.batch_points, stop - done,
                              self.batch_points)) + [stop - done]
            raws = [self._draw_batch(rng, b - a)
                    for a, b in zip([0] + ends[:-1], ends)]
            raw = raws[0] if len(raws) == 1 else tuple(
                np.concatenate(parts) for parts in zip(*raws)
            )
            yield self._clip(self._place(raw)), ends
            done = stop

    def batches(self):
        """A fresh, replay-identical iterator of coordinate batches (the
        windows of one batch)."""
        for coords, _ in self.windows(self.batch_points):
            yield coords

    def sample(self, n: int) -> np.ndarray:
        """``n`` points (at most the stream's) from an independent
        substream; never disturbs :meth:`batches`."""
        n = min(int(n), self.n_points)
        if n < 1:
            raise IngestError("sample size must be >= 1")
        rng = np.random.default_rng((self.seed, 0x5A))
        return self._clip(self._place(self._draw_batch(rng, n)))

    def _clip(self, coords: np.ndarray) -> np.ndarray:
        """Clip freshly placed int64 coordinates onto the grid, in place,
        axis by axis (over whole rows numpy would loop over ndim values
        at a time)."""
        for d, hi in enumerate(self._hi.tolist()):
            col = coords[:, d]
            np.maximum(col, 0, out=col)
            np.minimum(col, hi, out=col)
        return coords

    def _draw_batch(self, rng: np.random.Generator, n: int):
        raise NotImplementedError

    def _place(self, raw) -> np.ndarray:
        raise NotImplementedError

    def describe(self) -> dict:
        return {
            "stream": self.kind,
            "dims": list(self.dims),
            "n_points": self.n_points,
            "batch_points": self.batch_points,
            "seed": self.seed,
        }


def _noise_scale(spread: float, dims) -> np.ndarray:
    """Per-axis standard deviation of a hotspot's Gaussian noise.

    Draws multiply ``rng.standard_normal`` by it: numpy computes
    ``rng.normal(0.0, scale, shape)`` as ``0.0 + scale * z`` over the
    same standard-normal stream, so the values are bit-identical."""
    return spread * np.asarray(dims, dtype=np.float64)


@register_stream("uniform")
class UniformStream(RecordStream):
    """Points uniform over every cell of the grid."""

    kind = "uniform"

    def _draw_batch(self, rng, n):
        return tuple(rng.integers(0, s, size=n) for s in self.dims)

    def _place(self, raw):
        return np.stack(raw, axis=1)


@register_stream("clustered")
class ClusteredStream(RecordStream):
    """Gaussian hotspots at fixed seeded centers (skewed occupancy)."""

    kind = "clustered"

    def __init__(self, dims, *, n_clusters: int = 4, spread: float = 0.05,
                 **opts):
        super().__init__(dims, **opts)
        self.n_clusters = check_count("n_clusters", n_clusters)
        self.spread = check_spread(spread)
        self._scale = _noise_scale(self.spread, self.dims)
        crng = np.random.default_rng((self.seed, 0xC))
        self.centers = np.stack(
            [crng.integers(0, s, size=self.n_clusters) for s in self.dims],
            axis=1,
        )

    def _draw_batch(self, rng, n):
        pick = rng.integers(0, self.n_clusters, size=n)
        return pick, rng.standard_normal((n, len(self.dims)))

    def _place(self, raw):
        pick, z = raw
        out = np.empty(z.shape, dtype=np.int64)
        for d, (center, scale) in enumerate(zip(self.centers.T,
                                                self._scale)):
            out[:, d] = np.rint(center[pick] + z[:, d] * scale)
        return out

    def describe(self) -> dict:
        out = super().describe()
        out["n_clusters"] = self.n_clusters
        out["spread"] = self.spread
        return out
