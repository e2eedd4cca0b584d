"""Traffic clients and the query mixes they draw from.

A :class:`QueryMix` turns a client's random stream into a sequence of
:mod:`repro.query.workload` queries.  Mixes are stateless: ``draw``
receives the dataset dims, the client's generator, and the per-client
query index, so one mix instance can serve any number of clients.

A single-part mix consumes *exactly* the draws of the underlying
workload generator (no mix-selection draw), which is what makes a lone
closed-loop client stream-identical to
:meth:`repro.api.Dataset.random_beams` — the parity the traffic tests
pin.  Multi-part mixes spend one uniform draw choosing the part.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.errors import QueryError
from repro.mappings.base import Mapper
from repro.query.workload import (
    BeamQuery,
    RangeQuery,
    random_beam,
    random_range_cube,
)
from repro.shard.executor import ShardedStorageManager
from repro.traffic.arrivals import ArrivalProcess, ClosedLoop

__all__ = ["BeamDraw", "RangeDraw", "QueryMix", "Replay", "TrafficClient"]


@dataclass(frozen=True)
class BeamDraw:
    """Full-length beam along ``axis`` at a random position."""

    axis: int
    weight: float = 1.0

    def draw(self, dims, rng: np.random.Generator):
        return random_beam(dims, self.axis, rng)

    def describe(self) -> str:
        return f"beam:{self.axis}"


@dataclass(frozen=True)
class RangeDraw:
    """~``selectivity_pct``-% cube at a random anchor (§5.1)."""

    selectivity_pct: float
    weight: float = 1.0

    def draw(self, dims, rng: np.random.Generator):
        return random_range_cube(dims, self.selectivity_pct, rng)

    def describe(self) -> str:
        return f"range:{self.selectivity_pct:g}"


class QueryMix:
    """A weighted mixture of query generators.

    With a single part no selection draw is made; with several, one
    uniform draw picks the part by normalised weight before the part's
    own draws run.
    """

    def __init__(self, parts: Sequence[BeamDraw | RangeDraw]):
        parts = tuple(parts)
        if not parts:
            raise QueryError("a mix needs at least one part")
        weights = np.asarray([p.weight for p in parts], dtype=np.float64)
        if (weights <= 0).any():
            raise QueryError("mix weights must be > 0")
        self.parts = parts
        self._cum = np.cumsum(weights / weights.sum())

    @classmethod
    def beams(cls, *axes: int) -> "QueryMix":
        """Equal-weight random beams along the given axes."""
        if not axes:
            raise QueryError("beams() needs at least one axis")
        return cls([BeamDraw(int(a)) for a in axes])

    @classmethod
    def ranges(cls, *pcts: float) -> "QueryMix":
        """Equal-weight random range cubes at the given selectivities."""
        if not pcts:
            raise QueryError("ranges() needs at least one selectivity")
        return cls([RangeDraw(float(p)) for p in pcts])

    def draw(self, dims, rng: np.random.Generator, index: int):
        if len(self.parts) == 1:
            return self.parts[0].draw(dims, rng)
        k = int(np.searchsorted(self._cum, rng.random(), side="right"))
        k = min(k, len(self.parts) - 1)
        return self.parts[k].draw(dims, rng)

    def describe(self) -> str:
        return "+".join(p.describe() for p in self.parts)


class Replay:
    """A fixed query sequence, cycled; consumes no randomness."""

    def __init__(self, queries: Sequence[BeamQuery | RangeQuery]):
        queries = tuple(queries)
        if not queries:
            raise QueryError("replay needs at least one query")
        for q in queries:
            if not isinstance(q, (BeamQuery, RangeQuery)):
                raise QueryError(f"unknown query type {type(q).__name__}")
        self.queries = queries

    def draw(self, dims, rng: np.random.Generator, index: int):
        return self.queries[index % len(self.queries)]

    def describe(self) -> str:
        return f"replay[{len(self.queries)}]"


@dataclass
class TrafficClient:
    """One traffic source: a query mix, an arrival process, and a stack.

    ``storage`` is the dataset's
    :class:`~repro.shard.executor.ShardedStorageManager` (the engine
    reads its sub-plans, copy routing and failure state); it plans every
    query on its own placement, so ``mapper`` only names the layout and
    gives the query draws their dims.  Several clients may share one
    manager (the common case) or use managers built on the same volume
    — contention happens at the drive either way.  ``rng`` is the
    client's private stream: it drives arrivals, query draws, and (in
    per-query head randomisation mode) the initial head position, all
    consumed in submission order.
    """

    name: str
    storage: ShardedStorageManager
    mapper: Mapper
    mix: QueryMix | Replay
    arrival: ArrivalProcess = field(default_factory=ClosedLoop)
    n_queries: int = 50
    rng: np.random.Generator = None

    def __post_init__(self) -> None:
        if self.n_queries < 1:
            raise QueryError("n_queries must be >= 1")
        if self.rng is None:
            self.rng = np.random.default_rng()

    def prepare(self, query):
        """Plan one drawn query against this client's stack.  Subclasses
        override to route submissions elsewhere (the ingest client plans
        write batches through its pipeline instead)."""
        return self.storage.prepare(self.mapper, query)

    def describe(self) -> dict:
        return {
            "name": self.name,
            "mapper": self.mapper.name,
            "mix": self.mix.describe(),
            "arrival": self.arrival.describe(),
            "n_queries": int(self.n_queries),
        }
