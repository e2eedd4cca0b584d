"""Seeded arrival processes for traffic clients.

Every process is a *stateless specification*: one instance can be shared
by many clients, and all randomness comes from the generator each client
hands in (there is no wall-clock anywhere — times are simulated
milliseconds).  Two families exist:

* **Closed-loop** (:class:`ClosedLoop`): the client keeps one query
  outstanding and submits the next one ``think_ms`` after the previous
  completion — the load model of interactive users and of the paper's
  own one-query-at-a-time methodology (zero think time saturates the
  drive with a single stream).
* **Open-loop** (:class:`PoissonArrivals`, :class:`BurstyArrivals`):
  submission times are independent of completions, so queues build up
  when the drive falls behind.  Poisson models a large population of
  independent requesters; the bursty process is a batch-Poisson
  (Poisson burst starts, geometrically sized bursts) that models flash
  crowds hitting the same dataset.

Determinism: given the same per-client generator, :meth:`arrivals`
yields the same times regardless of what the rest of the simulation
does; the engine pulls the iterator only at arrival events, which occur
in fixed per-client order.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Iterator

import numpy as np

from repro.errors import QueryError, _check_float

__all__ = ["ARRIVALS", "ArrivalProcess", "ClosedLoop", "PoissonArrivals",
           "BurstyArrivals", "arrival_named"]

#: the arrival models :func:`arrival_named` (and the CLI) select by name
ARRIVALS = ("closed", "poisson", "bursty")


class ArrivalProcess:
    """Base class; subclasses are either closed- or open-loop.  Every
    parameter is a finite real number, not a bool; anything else raises
    :class:`QueryError` when the process is built."""

    #: closed-loop processes schedule from completions, not a stream
    closed: bool = False

    def _check_finite(self) -> None:
        for f in fields(self):
            _check_float(f.name, getattr(self, f.name))

    def arrivals(self, rng: np.random.Generator) -> Iterator[float]:
        """Infinite iterator of absolute submission times (ms)."""
        raise NotImplementedError

    def describe(self) -> dict:
        """JSON-friendly parameters (recorded in report metadata)."""
        raise NotImplementedError


@dataclass(frozen=True)
class ClosedLoop(ArrivalProcess):
    """One query outstanding; resubmit ``think_ms`` after completion.

    ``initial_delay_ms`` staggers the first submission (all clients start
    at 0 by default, which is the worst-case stampede).
    """

    think_ms: float = 0.0
    initial_delay_ms: float = 0.0
    closed = True

    def __post_init__(self) -> None:
        self._check_finite()
        if self.think_ms < 0 or self.initial_delay_ms < 0:
            raise QueryError("think/initial delay must be >= 0")

    def first_arrival(self) -> float:
        return float(self.initial_delay_ms)

    def next_after_completion(self, completion_ms: float) -> float:
        return completion_ms + float(self.think_ms)

    def describe(self) -> dict:
        return {
            "model": "closed",
            "think_ms": float(self.think_ms),
            "initial_delay_ms": float(self.initial_delay_ms),
        }


@dataclass(frozen=True)
class PoissonArrivals(ArrivalProcess):
    """Open-loop Poisson stream: exponential interarrivals at
    ``rate_qps`` queries per (simulated) second, starting at
    ``start_ms``."""

    rate_qps: float
    start_ms: float = 0.0

    def __post_init__(self) -> None:
        self._check_finite()
        if self.rate_qps <= 0:
            raise QueryError("rate_qps must be > 0")

    def arrivals(self, rng: np.random.Generator) -> Iterator[float]:
        mean_ms = 1000.0 / float(self.rate_qps)
        t = float(self.start_ms)
        while True:
            t += float(rng.exponential(mean_ms))
            yield t

    def describe(self) -> dict:
        return {
            "model": "poisson",
            "rate_qps": float(self.rate_qps),
            "start_ms": float(self.start_ms),
        }


@dataclass(frozen=True)
class BurstyArrivals(ArrivalProcess):
    """Batch-Poisson flash-crowd stream.

    Burst *starts* form a Poisson process at ``burst_rate_per_s``; each
    burst contains ``Geometric(1/mean_burst)`` queries (mean
    ``mean_burst``) spaced ``intra_ms`` apart.  The effective query rate
    is ``burst_rate_per_s * mean_burst``.
    """

    burst_rate_per_s: float
    mean_burst: float = 4.0
    intra_ms: float = 0.5
    start_ms: float = 0.0

    def __post_init__(self) -> None:
        self._check_finite()
        if self.burst_rate_per_s <= 0:
            raise QueryError("burst_rate_per_s must be > 0")
        if self.mean_burst < 1:
            raise QueryError("mean_burst must be >= 1")
        if self.intra_ms < 0:
            raise QueryError("intra_ms must be >= 0")

    def arrivals(self, rng: np.random.Generator) -> Iterator[float]:
        mean_gap_ms = 1000.0 / float(self.burst_rate_per_s)
        t = float(self.start_ms)
        last = t
        while True:
            t += float(rng.exponential(mean_gap_ms))
            size = int(rng.geometric(1.0 / float(self.mean_burst)))
            for i in range(size):
                # a long burst can outlast the gap to the next burst
                # start; emission stays non-decreasing (the overlapping
                # crowd just piles onto the tail)
                last = max(last, t + i * float(self.intra_ms))
                yield last

    def describe(self) -> dict:
        return {
            "model": "bursty",
            "burst_rate_per_s": float(self.burst_rate_per_s),
            "mean_burst": float(self.mean_burst),
            "intra_ms": float(self.intra_ms),
            "start_ms": float(self.start_ms),
        }


def arrival_named(name: str, *, rate: float = 50.0,
                  think_ms: float = 0.0) -> ArrivalProcess:
    """The arrival model called ``name``: ``closed`` with ``think_ms``
    think time, ``poisson`` at ``rate`` queries/s, or ``bursty`` at
    ``rate`` bursts/s."""
    if name == "closed":
        return ClosedLoop(think_ms=think_ms)
    if name == "poisson":
        return PoissonArrivals(rate_qps=rate)
    if name == "bursty":
        return BurstyArrivals(burst_rate_per_s=rate)
    raise QueryError(
        f"arrival must be closed, poisson, or bursty; got {name!r}"
    )
