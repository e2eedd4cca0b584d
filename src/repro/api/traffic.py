"""Fluent traffic runs bound to a :class:`~repro.api.dataset.Dataset`.

:class:`TrafficRun` is to :class:`~repro.traffic.engine.TrafficSim` what
:class:`~repro.api.dataset.QueryBatch` is to the storage manager: a
chainable builder that owns seeding and wiring::

    report = (
        ds.traffic()
        .clients(4, mix=QueryMix.beams(1), queries=25)
        .poisson(2, rate_qps=40, queries=50)
        .slice_runs(64)
        .run()
    )

Seeding: each client receives the next child generator of the dataset's
seed sequence (:meth:`Dataset.rng`), in the order the clients were
added.  A fresh same-seed dataset therefore replays identical per-client
streams, and a *single* closed-loop client consumes the very stream a
:meth:`QueryBatch.run` on that fresh dataset would — the parity the
traffic regression tests pin.
"""

from __future__ import annotations

import numpy as np

from repro.errors import QueryError, _check_count
from repro.traffic.arrivals import (
    ArrivalProcess,
    BurstyArrivals,
    ClosedLoop,
    PoissonArrivals,
)
from repro.traffic.clients import QueryMix, Replay, TrafficClient
from repro.traffic.engine import TrafficConfig, TrafficSim
from repro.traffic.stats import TrafficReport

__all__ = ["TrafficRun"]


class TrafficRun:
    """A fluent, appendable set of traffic clients bound to one dataset."""

    def __init__(self, dataset):
        self._dataset = dataset
        self._specs: list[tuple] = []  # (name, mix, arrival, n_queries)
        self._ingest_specs: list[tuple] = []  # (name, arrival, overrides)
        self._slice_runs: int | None = 256
        self._head = "random"
        self._horizon_ms: float | None = None
        self._collect_traces = True
        self._failures = None
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

    def closed(self, n: int = 1, *, think_ms: float = 0.0,
               queries: int = 50, mix=None,
               name: str | None = None) -> "TrafficRun":
        """``n`` closed-loop clients with the given think time."""
        return self.clients(
            n, mix=mix, arrival=ClosedLoop(think_ms=think_ms),
            queries=queries, name=name,
        )

    def poisson(self, n: int = 1, *, rate_qps: float,
                queries: int = 50, mix=None,
                name: str | None = None) -> "TrafficRun":
        """``n`` open-loop Poisson clients at ``rate_qps`` each."""
        return self.clients(
            n, mix=mix, arrival=PoissonArrivals(rate_qps=rate_qps),
            queries=queries, name=name,
        )

    def bursty(self, n: int = 1, *, burst_rate_per_s: float,
               mean_burst: float = 4.0, intra_ms: float = 0.5,
               queries: int = 50, mix=None,
               name: str | None = None) -> "TrafficRun":
        """``n`` open-loop flash-crowd clients (batch-Poisson)."""
        return self.clients(
            n,
            mix=mix,
            arrival=BurstyArrivals(
                burst_rate_per_s=burst_rate_per_s,
                mean_burst=mean_burst,
                intra_ms=intra_ms,
            ),
            queries=queries,
            name=name,
        )

    def ingest(self, *, arrival: ArrivalProcess | None = None,
               name: str | None = None, **overrides) -> "TrafficRun":
        """Append an ingest client streaming writes into the dataset.

        Options layer on any :meth:`Dataset.with_ingest` spec exactly
        like :meth:`Dataset.ingest` runs (``stream``, ``loader``,
        ``n_points``, ``batch_points``, ``flush_points``, ``seed``,
        stream options).  The client submits one batch per arrival and
        flushes ride the event heap as write sub-plans, contending with
        read queries at the drives.  Ingest clients are wired **after**
        every read client regardless of call order, so a storm's read
        streams are seeded identically with the ingest client attached
        or not — the mixed-storm parity condition.
        """
        idx = len(self._ingest_specs)
        cname = name if name is not None else f"ingest{idx}"
        self._ingest_specs.append(
            (cname, arrival or ClosedLoop(), dict(overrides))
        )
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

    def head(self, mode: str) -> "TrafficRun":
        """``"random"`` (per-query random start, paper methodology) or
        ``"carry"`` (position carries over; idle time spins the platter)."""
        self._head = mode
        return self

    def horizon(self, ms: float | None) -> "TrafficRun":
        """Stop open-loop submissions after ``ms`` simulated ms."""
        self._horizon_ms = ms
        return self

    def traces(self, collect: bool) -> "TrafficRun":
        """Toggle per-query trace collection (on by default).

        Latency statistics derive from traces, so with collection off
        the report keeps only drive-level totals (served blocks/slices,
        busy time) and renders latency columns as ``-``.
        """
        self._collect_traces = bool(collect)
        return self

    # ------------------------------------------------------------------
    # failure injection
    # ------------------------------------------------------------------

    def failures(self, schedule) -> "TrafficRun":
        """Attach a failure schedule (a
        :class:`~repro.replica.FailureSchedule`, a
        :class:`~repro.replica.FailureInjector`, or an iterable of
        ``(t_ms, action, disk)`` events).  Queries in flight on a killed
        disk re-dispatch onto surviving replicas; the dataset must be
        replicated (``with_replication(k >= 2)``) for every query to
        stay serviceable."""
        from repro.replica.failures import FailureSchedule

        self._failures = FailureSchedule.coerce(schedule)
        return self

    def kill(self, at_ms: float, disk: int,
             revive_at_ms: float | None = None) -> "TrafficRun":
        """Kill member ``disk`` at ``at_ms`` simulated ms (chainable);
        an optional ``revive_at_ms`` brings it back."""
        from repro.replica.failures import FailureEvent

        self._failure_events.append(
            FailureEvent(float(at_ms), "kill", int(disk))
        )
        if revive_at_ms is not None:
            self._failure_events.append(
                FailureEvent(float(revive_at_ms), "revive", int(disk))
            )
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
        get independent generators seeded from its draws.
        """
        if not self._specs and not self._ingest_specs:
            raise QueryError("add at least one client before run()")
        # checked before any client draws from the dataset's generators
        config = TrafficConfig(
            slice_runs=self._slice_runs,
            head=self._head,
            horizon_ms=self._horizon_ms,
            collect_traces=self._collect_traces,
        )
        ds = self._dataset
        n_clients = len(self._specs) + len(self._ingest_specs)
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
        for (name, arrival, overrides), crng in zip(
            self._ingest_specs, rngs[len(self._specs):]
        ):
            # reuse the IngestRun option resolution (with_ingest spec +
            # overrides), then wire a client whose query count is the
            # stream's batch count — the final batch drains every buffer
            from repro.api.ingest import IngestRun
            from repro.ingest.pipeline import IngestPipeline
            from repro.ingest.traffic import IngestClient, WriteMix

            opts = IngestRun(ds, overrides)
            stream = opts.build_stream()
            pipeline = IngestPipeline(
                ds, stream, opts.loader_spec,
                flush_points=opts.flush_points,
                loader_opts=opts.loader_opts,
            )
            clients.append(
                IngestClient(
                    name=name,
                    storage=ds.storage,
                    mapper=ds.mapper,
                    mix=WriteMix(stream),
                    arrival=arrival,
                    n_queries=stream.n_batches,
                    rng=crng,
                    pipeline=pipeline,
                )
            )
        failures = self._failures
        if self._failure_events:
            from repro.replica.failures import FailureSchedule

            events = tuple(failures.events if failures else ()) + tuple(
                self._failure_events
            )
            failures = FailureSchedule(events)
        meta = {"dataset": ds.describe(), "seed": ds.seed}
        return TrafficSim(
            clients, config, meta=meta, failures=failures
        ).run()
