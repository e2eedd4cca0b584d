"""Fluent traffic runs bound to a :class:`~repro.api.dataset.Dataset`.

:class:`TrafficRun` is to :class:`~repro.traffic.engine.TrafficSim` what
:class:`~repro.api.dataset.QueryBatch` is to the storage manager: a
chainable builder that owns seeding and wiring::

    report = (
        ds.traffic()
        .clients(4, mix=QueryMix.beams(1), queries=25)
        .clients(2, arrival=PoissonArrivals(rate_qps=40), queries=50)
        .slice_runs(64)
        .run()
    )

Each setting has one form: clients come from :meth:`TrafficRun
.clients` (the arrival model is a :class:`~repro.traffic.arrivals
.ClosedLoop` or a :class:`~repro.traffic.arrivals.PoissonArrivals`),
and a disk failure from :meth:`TrafficRun.kill`.  Every query starts
from a random head position drawn from its client's stream.  A storm
only reads: writes go through :meth:`Dataset.ingest
<repro.api.Dataset.ingest>` runs between storms.

Seeding: each client receives the next child generator of the dataset's
seed sequence (:meth:`Dataset.rng`), in the order the clients were
added.  A fresh same-seed dataset therefore replays identical per-client
streams, and a *single* closed-loop client consumes the very stream a
:meth:`QueryBatch.run` on that fresh dataset would — the parity the
traffic regression tests pin.
"""

from __future__ import annotations

import numpy as np

from repro.errors import QueryError, _check_count, _check_rng
from repro.traffic.arrivals import ArrivalProcess, ClosedLoop
from repro.traffic.clients import QueryMix, Replay, TrafficClient
from repro.traffic.engine import TrafficConfig, TrafficSim
from repro.traffic.stats import TrafficReport

__all__ = ["TrafficRun"]


class TrafficRun:
    """A fluent, appendable set of traffic clients bound to one dataset."""

    def __init__(self, dataset):
        self._dataset = dataset
        self._specs: list[tuple] = []  # (name, mix, arrival, n_queries)
        self._slice_runs: int | None = 256
        self._failure_events: list = []

    # ------------------------------------------------------------------
    # client builders (each returns self for chaining)
    # ------------------------------------------------------------------

    def clients(self, n: int = 1, *, mix: QueryMix | Replay | None = None,
                arrival: ArrivalProcess | None = None,
                queries: int = 50, name: str | None = None) -> "TrafficRun":
        """Append ``n`` identical clients.

        Defaults: an equal-weight beam mix over every non-streaming axis
        (axes ``1..ndim-1``; dim 0 is the layouts' streaming direction)
        and a zero-think closed loop.  Clients are named ``c<i>`` in
        creation order unless ``name`` (used as a prefix for ``n > 1``)
        says otherwise.
        """
        n = _check_count("n", n)
        queries = _check_count("queries", queries)
        ndim = len(self._dataset.shape)
        mix = mix or QueryMix.beams(*range(1, ndim) if ndim > 1 else (0,))
        arrival = arrival or ClosedLoop()
        for i in range(n):
            idx = len(self._specs)
            if name is None:
                cname = f"c{idx}"
            else:
                cname = name if n == 1 else f"{name}{i}"
            self._specs.append((cname, mix, arrival, queries))
        return self

    # ------------------------------------------------------------------
    # engine knobs
    # ------------------------------------------------------------------

    def slice_runs(self, n: int | None) -> "TrafficRun":
        """Max runs the drive services before other requests may cut in
        (``None`` = whole query in one batch, the one-shot behaviour).
        An integer >= 1 or None; anything else makes :meth:`run` raise
        :class:`QueryError` before any client is built."""
        self._slice_runs = n
        return self

    # ------------------------------------------------------------------
    # failure injection
    # ------------------------------------------------------------------

    def kill(self, at_ms: float, disk: int,
             revive_at_ms: float | None = None) -> "TrafficRun":
        """Kill member ``disk`` at ``at_ms`` simulated ms (chainable);
        an optional ``revive_at_ms``, after ``at_ms``, brings it back.
        Queries in flight on a killed disk re-dispatch onto surviving
        replicas; the dataset must be replicated
        (``with_replication(k >= 2)``) for every query to stay
        serviceable.  The values are checked as
        :class:`~repro.replica.FailureEvent` checks them (a finite time
        of at least 0, an integer disk of at least 0); a bad one raises
        :class:`~repro.errors.ReplicaError` with nothing scheduled."""
        from repro.replica.failures import kill_events

        self._failure_events += kill_events(at_ms, disk, revive_at_ms)
        return self

    def __len__(self) -> int:
        return len(self._specs)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def run(self, *, rng: np.random.Generator | None = None
            ) -> TrafficReport:
        """Simulate to completion and return a :class:`TrafficReport`.

        Without ``rng``, client *i* gets the dataset's next spawned child
        generator.  With an explicit ``rng``, a single client uses it
        directly (mirroring ``QueryBatch.run(rng=...)``); several clients
        get independent generators seeded from its draws.  An ``rng``
        that is not a :class:`numpy.random.Generator` raises
        :class:`~repro.errors.QueryError`.
        """
        if not self._specs:
            raise QueryError("add at least one client before run()")
        _check_rng(rng)
        # checked before any client draws from the dataset's generators
        config = TrafficConfig(slice_runs=self._slice_runs)
        ds = self._dataset
        n_clients = len(self._specs)
        if rng is None:
            rngs = [ds.rng() for _ in range(n_clients)]
        elif n_clients == 1:
            rngs = [rng]
        else:
            seeds = rng.integers(2**63, size=n_clients)
            rngs = [np.random.default_rng(int(s)) for s in seeds]
        clients = [
            TrafficClient(
                name=name,
                storage=ds.storage,
                mapper=ds.mapper,
                mix=mix,
                arrival=arrival,
                n_queries=queries,
                rng=crng,
            )
            for (name, mix, arrival, queries), crng
            in zip(self._specs, rngs)
        ]
        failures = None
        if self._failure_events:
            from repro.replica.failures import FailureSchedule

            failures = FailureSchedule(tuple(self._failure_events))
        meta = {"dataset": ds.describe(), "seed": ds.seed}
        return TrafficSim(
            clients, config, meta=meta, failures=failures
        ).run()
