"""Seeded record streams: the input side of the ingest pipeline.

A record stream produces batches of integer cell coordinates (one row
per point) for a dataset's grid.  Streams are **replayable**: every
call to :meth:`RecordStream.batches` restarts an identical seeded
sequence, so an ingest run can be reproduced exactly — and the adaptive
loader can :meth:`~RecordStream.sample` the stream from an independent
substream without disturbing the batches the pipeline will consume.

Builtin generators (registered in :data:`STREAMS`):

- ``uniform`` — points uniform over the whole grid,
- ``clustered`` — a fixed set of Gaussian hotspots,
- ``drifting`` — one hotspot sweeping corner to corner over the run,
- ``replay`` — a caller-supplied coordinate array, batched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.errors import IngestError
from repro.registry import Registry, first_doc_line

__all__ = [
    "STREAMS",
    "ClusteredStream",
    "DriftingStream",
    "RecordStream",
    "ReplayStream",
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
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise IngestError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise IngestError(f"{name} must be >= 1")
    return int(value)


def make_stream(spec, dims, **opts) -> "RecordStream":
    """Resolve a stream spec — a registered name, a stream class, or an
    already-built instance — into a :class:`RecordStream`."""
    if isinstance(spec, RecordStream):
        return spec
    if isinstance(spec, str):
        factory = STREAMS.get(spec).factory
    elif isinstance(spec, type) and issubclass(spec, RecordStream):
        factory = spec
    else:
        raise IngestError(
            f"unknown stream spec {spec!r} (registered: "
            f"{', '.join(stream_names())})"
        )
    return factory(dims, **opts)


class RecordStream:
    """Base class: a seeded, replayable stream of cell coordinates.

    Subclasses implement :meth:`_draw`, mapping global point indices to
    an ``(n, ndim)`` int64 coordinate array with the given generator.
    ``batches()`` feeds the pipeline; ``sample()`` gives loaders an
    independent look at the distribution (separate seeded substream,
    indices spread over the whole run so drifting streams are sampled
    fairly).
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
        self.seed = int(seed)
        self._hi = np.asarray(dims, dtype=np.int64) - 1

    @property
    def n_batches(self) -> int:
        return -(-self.n_points // self.batch_points)

    def batches(self):
        """A fresh, replay-identical iterator of coordinate batches."""
        rng = np.random.default_rng(self.seed)
        done = 0
        while done < self.n_points:
            n = min(self.batch_points, self.n_points - done)
            idx = np.arange(done, done + n, dtype=np.int64)
            yield self._clip(self._draw(rng, idx))
            done += n

    def sample(self, n: int) -> np.ndarray:
        """``n`` points from an independent substream, indices spread
        over the whole run; never disturbs :meth:`batches`."""
        n = min(int(n), self.n_points)
        if n < 1:
            raise IngestError("sample size must be >= 1")
        rng = np.random.default_rng((self.seed, 0x5A))
        idx = np.linspace(0, self.n_points - 1, n).astype(np.int64)
        return self._clip(self._draw(rng, idx))

    def _clip(self, coords: np.ndarray) -> np.ndarray:
        return np.minimum(
            np.maximum(coords.astype(np.int64, copy=False), 0), self._hi
        )

    def _draw(self, rng: np.random.Generator,
              idx: np.ndarray) -> np.ndarray:
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

    def _draw(self, rng, idx):
        n = len(idx)
        return np.stack(
            [rng.integers(0, s, size=n) for s in self.dims], axis=1
        )


@register_stream("clustered")
class ClusteredStream(RecordStream):
    """Gaussian hotspots at fixed seeded centers (skewed occupancy)."""

    kind = "clustered"

    def __init__(self, dims, *, n_clusters: int = 4, spread: float = 0.05,
                 **opts):
        super().__init__(dims, **opts)
        if n_clusters < 1:
            raise IngestError("n_clusters must be >= 1")
        if spread <= 0:
            raise IngestError("spread must be > 0")
        self.n_clusters = int(n_clusters)
        self.spread = float(spread)
        self._scale = _noise_scale(self.spread, self.dims)
        crng = np.random.default_rng((self.seed, 0xC))
        self.centers = np.stack(
            [crng.integers(0, s, size=self.n_clusters) for s in self.dims],
            axis=1,
        )

    def _draw(self, rng, idx):
        n = len(idx)
        pick = rng.integers(0, self.n_clusters, size=n)
        noise = rng.standard_normal((n, len(self.dims))) * self._scale
        return np.rint(self.centers[pick] + noise).astype(np.int64)

    def describe(self) -> dict:
        out = super().describe()
        out["n_clusters"] = self.n_clusters
        out["spread"] = self.spread
        return out


@register_stream("drifting")
class DriftingStream(RecordStream):
    """One hotspot sweeping corner to corner as the stream progresses."""

    kind = "drifting"

    def __init__(self, dims, *, spread: float = 0.08, **opts):
        super().__init__(dims, **opts)
        if spread <= 0:
            raise IngestError("spread must be > 0")
        self.spread = float(spread)
        self._scale = _noise_scale(self.spread, self.dims)
        self._span = np.asarray(self.dims, dtype=np.float64) - 1

    def _draw(self, rng, idx):
        progress = idx / max(self.n_points - 1, 1)
        center = progress[:, None] * self._span[None, :]
        noise = rng.standard_normal((len(idx), len(self.dims))) * self._scale
        return np.rint(center + noise).astype(np.int64)

    def describe(self) -> dict:
        out = super().describe()
        out["spread"] = self.spread
        return out


@register_stream("replay")
class ReplayStream(RecordStream):
    """A caller-supplied coordinate array, batched; no randomness."""

    kind = "replay"

    def __init__(self, dims, *, coords, batch_points: int = 256, seed=0,
                 n_points=None):
        coords = np.asarray(coords)
        # bool is not a coordinate, and batches are never clipped onto
        # the grid for the caller: both are bugs to report
        if coords.dtype.kind not in "iu":
            raise IngestError(
                f"replay coords must be integers, got dtype {coords.dtype}"
            )
        coords = coords.astype(np.int64, copy=False)
        if coords.ndim != 2 or coords.shape[0] < 1:
            raise IngestError("replay coords must be a (n, ndim) array")
        if coords.shape[1] != len(tuple(dims)):
            raise IngestError("replay coords rank does not match dims")
        super().__init__(dims, n_points=coords.shape[0],
                         batch_points=batch_points, seed=seed)
        off = np.flatnonzero(((coords < 0) | (coords > self._hi)).any(axis=1))
        if off.size:
            raise IngestError(
                f"replay coords row {int(off[0])} "
                f"{coords[off[0]].tolist()} is off the {self.dims} grid"
            )
        self.coords = coords

    def _draw(self, rng, idx):
        return self.coords[idx]
