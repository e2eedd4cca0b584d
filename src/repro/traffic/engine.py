"""Discrete-event engine servicing many clients on one dataset's drives.

A :class:`TrafficSim` drives one dataset's storage manager
(:class:`~repro.shard.executor.ShardedStorageManager`); every client is
a query mix, an arrival process and a random stream.  The simulation
advances through a single event heap keyed on simulated milliseconds.
Clients submit queries according to their arrival process; each query
is prepared once by the manager (coalescing + effective policy, exactly
the batch path) as a :class:`~repro.query.scatter.ShardedPrepared` of
per-disk sub-plans, and every sub-plan is split into *service slices*
(:func:`repro.query.scheduler.slice_plan`).  Every drive services one
slice at a time from a FIFO queue, and a multi-slice sub-plan re-enters
the queue behind whatever arrived meanwhile — so requests from different
clients interleave at the drive rather than running whole queries
back-to-back, and a query's later slices resume from wherever the
contending traffic left the head.  Every submission is a read: writes
go through :class:`~repro.api.ingest.IngestRun` between storms, never
onto the event heap.

A query fanned out over several member disks occupies several drive
queues at once: every sub-plan's slices queue on the drive that holds
the copy it reads, drives drain concurrently, and the query completes
when its **last** disk's portion finishes (each disk's last slice plus
that disk's share of cache memory time) — the traffic analogue of the
batch executor's per-disk busy + makespan accounting.

Head position: a run first parks every member drive as a fresh volume
holds it (track 0, clock 0), so nothing an earlier run left on the
drives reaches this one.  Every query then starts from a uniformly
random head position *pre-drawn from the submitting client's stream at
submission time* (one draw per involved disk, in sub-plan order) and
applied when its first slice on that drive is dispatched (:data:`HEAD`,
the paper's methodology).  Pre-drawing keeps each client's random
stream a pure function of its own submission order, so per-drive
served-block totals are invariant under re-interleavings, while a lone
zero-think closed-loop client consumes draws in exactly the order of
:meth:`repro.api.QueryBatch.run` (query, head, query, head, ...) — the
parity the regression tests pin.

Caching: when the manager carries a :class:`repro.cache.BufferPool`,
queries are cache-filtered at *submission* (inside
:meth:`ShardedStorageManager.prepare`, which runs
:meth:`~repro.query.executor.StorageManager.prepare_plan` per
sub-plan) and the missed
blocks are admitted — with their prefetched neighbors — when the last
slice completes, so concurrent clients sharing the pool interact the
way shared caches do: one client's miss work becomes another's hits,
and one client's scan can pollute everyone's working set.  Memory-served
blocks add their (bus-speed) service time to the query's completion
without occupying the drive.  Without a pool the engine is bit-identical
to the pre-cache behaviour.

Failures: a :class:`~repro.replica.failures.FailureSchedule` passed as
``TrafficSim(..., failures=...)`` (a schedule or None; what
:meth:`TrafficRun.kill <repro.api.traffic.TrafficRun.kill>` builds)
kills and revives member disks at fixed simulated times.  A killed disk
stops servicing immediately: its
queued jobs — and the job whose slice was in flight, whose partial work
is lost — re-dispatch through the manager
(:meth:`~repro.shard.executor.ShardedStorageManager.failover_sub`),
restarting the whole sub-plan on a surviving copy's disk, from wherever
that drive's head is (it draws no head position); queries submitted
afterwards avoid dead disks at prepare time.  A chunk left
with no live copy raises :class:`~repro.errors.ReplicaError` — the
engine never silently drops queries.  The report's meta gains gated
``"failures"`` (the schedule plus re-dispatch totals) and
``"replicas"`` (the manager's placement, failed disks and this run's
routing totals, for k > 1) entries; without a schedule and without
replication both keys are absent.

Determinism: no wall-clock, no hash-order iteration; ties in the event
heap break by submission sequence number.  Same dataset configuration +
same client seeds ⇒ bit-identical :class:`TrafficReport`, whatever ran
on the dataset before (an attached pool and telemetry aside: both
accumulate by design).
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass

from repro.disk.drive import BatchResult, DiskDrive
from repro.errors import QueryError
from repro.obs.span import record_traffic_query
from repro.query.scheduler import slice_plan
from repro.query.workload import _check_int
from repro.replica.executor import ReplicaStats
from repro.replica.failures import FailureSchedule
from repro.shard.executor import ShardedStorageManager
from repro.traffic.clients import TrafficClient
from repro.traffic.stats import (
    DriveStats,
    QueryTrace,
    TrafficReport,
    describe_query,
)

__all__ = ["HEAD", "TrafficConfig", "TrafficSim", "check_failures"]

#: where a query's service starts, as :meth:`TrafficConfig.describe`
#: reports it: a random head position per query and involved disk
HEAD = "random"


@dataclass(frozen=True)
class TrafficConfig:
    """Knobs of the traffic engine.

    ``slice_runs`` (an integer >= 1, not a bool) bounds how many runs of
    one query the drive services before other queued requests may cut
    in; ``None`` services each query as one batch (the batch executor's
    behaviour, required for exact parity with :meth:`Dataset.run
    <repro.api.Dataset.run>` timings).  Every client submits all of its
    queries; :meth:`describe` keeps a ``horizon_ms`` key, always None.
    """

    slice_runs: int | None = 256

    def __post_init__(self) -> None:
        if self.slice_runs is not None:
            n = _check_int("slice_runs", self.slice_runs)
            if n < 1:
                raise QueryError(f"slice_runs must be >= 1 or None, got {n}")
            object.__setattr__(self, "slice_runs", n)

    def describe(self) -> dict:
        return {
            "slice_runs": self.slice_runs,
            "head": HEAD,
            "horizon_ms": None,
        }


def check_failures(volume, failures) -> None:
    """Refuse failure events naming a disk ``volume`` lacks, with
    :class:`QueryError`: a typo'd disk must neither measure the healthy
    path while the meta reports a failure nor serve queries before the
    kill fires."""
    for ev in failures or ():
        if ev.disk >= volume.n_disks:
            raise QueryError(
                f"failure schedule names disk {ev.disk}, but the volume "
                f"has {volume.n_disks} member disks"
            )


class _Query:
    """One submitted query, possibly fanned out over several drives.

    ``disk_cache`` holds each involved disk's share of the memory
    service time (the cache hits its sub-plans carried); a disk's
    portion of the query completes ``disk_cache[disk]`` after its last
    slice, and the query completes at the max over disks (``done_ms``)
    — the traffic analogue of the batch executor's per-disk busy +
    makespan accounting, coinciding with it exactly at one sub-plan.
    """

    __slots__ = ("cs", "query", "prepared", "remaining", "arrival_ms",
                 "start_ms", "started", "acc", "index", "disk",
                 "cache_ms", "cache_hits", "cache_runs", "n_slices",
                 "disk_cache", "disk_remaining", "done_ms",
                 "failover_subs", "abandoned", "obs")

    def __init__(self, cs, query, prepared, arrival_ms, index):
        self.cs = cs
        self.query = query
        self.prepared = prepared
        self.remaining = 0
        self.arrival_ms = arrival_ms
        self.start_ms = arrival_ms
        self.started = False
        self.acc: BatchResult = BatchResult.empty()
        self.index = index
        # aggregates over the sub-plans
        self.disk = prepared.disk_index
        self.cache_ms = prepared.cache_ms
        self.cache_hits = prepared.cache_hits
        self.cache_runs = prepared.cache_runs
        self.n_slices = 0
        self.disk_cache: dict[int, float] = {}
        self.disk_remaining: dict[int, int] = {}
        self.done_ms = arrival_ms
        # sub-plans re-dispatched onto replicas after a disk failure
        # (admitted to the cache at completion alongside the original),
        # and the dead-disk sub-plans they replaced (whose blocks were
        # never fully serviced, so they must NOT be admitted — even if
        # the disk is revived before the query completes)
        self.failover_subs: list = []
        self.abandoned: list = []
        # telemetry scratchpad (None when the manager carries no
        # Telemetry): the cache shares as captured at submission
        # (before billing zeroes them), serviced slices, and failover
        # events — distilled into one span tree at completion
        self.obs: dict | None = None

    def bill_cache(self, disk: int, t: float) -> None:
        """End ``disk``'s portion at ``t`` plus its unbilled memory time.

        ``disk_cache`` holds UNBILLED time: billing zeroes it, so a
        failover that re-opens the disk later never bills it twice.
        """
        self.done_ms = max(self.done_ms, t + self.disk_cache.get(disk, 0.0))
        self.disk_cache[disk] = 0.0

    def release(self, disk: int, t: float) -> bool:
        """One sub-plan on ``disk`` finished (or left it) at ``t``;
        returns whether the query has no disk left.

        The disk's last sub-plan bills its memory time and DELETES its
        key, not leaving it at zero: ``disk_remaining`` must hold only
        disks with pending subs, or a later failover onto this disk
        would skip its ``remaining`` increment and the query would
        never complete.
        """
        self.disk_remaining[disk] -= 1
        if self.disk_remaining[disk] == 0:
            del self.disk_remaining[disk]
            self.bill_cache(disk, t)
            self.remaining -= 1
        return self.remaining == 0


class _Job:
    """One sub-plan of a query moving through one drive's queue.

    ``disk`` is the member disk the sub-plan reads — the key of the
    query's ``disk_cache``/``disk_remaining`` maps.
    """

    __slots__ = ("qs", "slices", "next_slice", "head_pos", "policy",
                 "disk", "source", "sub")

    def __init__(self, qs: _Query, slices, head_pos, policy: str,
                 disk: int, source, sub):
        self.qs = qs
        self.slices = slices
        self.next_slice = 0
        self.head_pos = head_pos
        self.policy = policy
        self.disk = disk
        # the SubSource failover re-dispatch re-plans from, and the
        # PreparedQuery itself, marked abandoned on re-dispatch
        self.source = source
        self.sub = sub


class _DriveState:
    """Per-drive FIFO queue plus servicing bookkeeping."""

    __slots__ = ("drive", "disk", "queue", "busy", "busy_ms",
                 "served_slices", "served_blocks", "failed", "current",
                 "epoch")

    def __init__(self, drive: DiskDrive, disk: int):
        self.drive = drive
        self.disk = disk
        self.queue: deque[_Job] = deque()
        self.busy = False
        self.busy_ms = 0.0
        self.served_slices = 0
        self.served_blocks = 0
        self.failed = False
        self.current: _Job | None = None
        # bumped on failure so in-flight slice_done events of the dead
        # drive are recognised as stale and ignored
        self.epoch = 0


class _ClientState:
    """Mutable per-run bookkeeping for one client."""

    __slots__ = ("client", "issued", "completed", "stream")

    def __init__(self, client: TrafficClient):
        self.client = client
        self.issued = 0
        self.completed = 0
        self.stream = None  # open-loop arrival iterator


class TrafficSim:
    """Run a set of :class:`TrafficClient` s on one dataset to completion.

    ``storage`` is the dataset's
    :class:`~repro.shard.executor.ShardedStorageManager`: every client's
    queries are planned on its placement and serviced on its volume's
    drives, one queue per member disk a run touches (listed in
    ``report.drives`` in first-use order).  A schedule naming a disk the
    volume lacks is refused here (:func:`check_failures`).
    """

    def __init__(self, storage, clients, config: TrafficConfig | None = None,
                 *, meta: dict | None = None, failures=None):
        if not isinstance(storage, ShardedStorageManager):
            raise QueryError(
                f"traffic needs a dataset's ShardedStorageManager, got "
                f"{type(storage).__name__}"
            )
        self.storage = storage
        self.clients = list(clients)
        if not self.clients:
            raise QueryError("traffic needs at least one client")
        names = [c.name for c in self.clients]
        if len(set(names)) != len(names):
            raise QueryError("client names must be unique")
        self.config = config or TrafficConfig()
        self.meta = dict(meta or {})
        if failures is not None and not isinstance(failures,
                                                   FailureSchedule):
            raise QueryError(
                f"failures must be a FailureSchedule or None, got "
                f"{type(failures).__name__}"
            )
        check_failures(storage.volume, failures)
        self.failures = failures

    # ------------------------------------------------------------------
    # event loop
    # ------------------------------------------------------------------

    def run(self) -> TrafficReport:
        cfg = self.config
        storage = self.storage
        volume = storage.volume
        window = storage.window
        tele = storage.obs
        dims = storage.mapper.dims
        heap: list[tuple] = []
        seq = 0
        drives: dict[int, _DriveState] = {}  # by disk, in first-use order
        traces: list[QueryTrace] = []
        states = [_ClientState(c) for c in self.clients]
        replicas = ReplicaStats(volume.n_disks)
        n_redispatched = 0

        # a fresh volume's heads: a failed-over sub-plan draws no head,
        # so on an idle survivor it starts exactly as on a fresh dataset
        for disk in range(volume.n_disks):
            volume.drive(disk).reset()

        def drive_state(disk: int) -> _DriveState:
            ds = drives.get(disk)
            if ds is None:
                ds = drives[disk] = _DriveState(volume.drive(disk), disk)
            return ds

        def push(t: float, kind: str, payload) -> None:
            nonlocal seq
            heapq.heappush(heap, (t, seq, kind, payload))
            seq += 1

        def submit(cs: _ClientState, t: float) -> None:
            """Draw, prepare, and enqueue one query of ``cs`` at ``t``."""
            c = cs.client
            query = c.mix.draw(dims, c.rng, cs.issued)
            prepared = storage.prepare(query)
            replicas.record_query(prepared)
            subs = prepared.subs
            # one head draw per involved disk, in sub-plan order — drawn
            # at submission even for all-hit queries, keeping the
            # client's stream draw-for-draw with the batch path
            heads: dict[int, tuple] = {}
            disk_states: dict[int, _DriveState] = {}
            for sub in subs:
                disk = sub.disk_index
                if disk not in disk_states:
                    ds = drive_state(disk)
                    disk_states[disk] = ds
                    heads[disk] = ds.drive.draw_position(c.rng)
            qs = _Query(cs, query, prepared, t, cs.issued)
            cs.issued += 1
            real = []
            for sub, source in zip(subs, prepared.sources):
                disk = sub.disk_index
                qs.disk_cache[disk] = (
                    qs.disk_cache.get(disk, 0.0) + sub.cache_ms
                )
                if sub.plan.n_runs > 0:
                    qs.disk_remaining[disk] = (
                        qs.disk_remaining.get(disk, 0) + 1
                    )
                    real.append((sub, source))
            if tele is not None:
                # snapshot the cache shares BEFORE billing zeroes them
                # (plus the per-disk hit/run counts behind them, which
                # the cache spans carry)
                hits: dict[int, int] = {}
                hit_runs: dict[int, int] = {}
                for sub in subs:
                    disk = sub.disk_index
                    hits[disk] = hits.get(disk, 0) + sub.cache_hits
                    hit_runs[disk] = (
                        hit_runs.get(disk, 0) + sub.cache_runs
                    )
                qs.obs = {"cache": dict(qs.disk_cache),
                          "hits": hits, "runs": hit_runs,
                          "slices": [], "events": []}
            # a disk whose sub-plans all hit the cache is done after its
            # memory service alone (it never occupies the drive queue)
            for disk in qs.disk_cache:
                if disk not in qs.disk_remaining:
                    qs.bill_cache(disk, t)
            if not real:
                # every block of every sub-plan hit the cache at prepare
                # time: the query completes at its slowest disk's memory
                # service (the batch path's makespan)
                push(qs.done_ms, "cache_done", qs)
                return
            qs.remaining = len(qs.disk_remaining)
            claimed: set[int] = set()
            for sub, source in real:
                disk = sub.disk_index
                ds = disk_states[disk]
                # the first sub-plan per drive applies the head draw;
                # later sub-plans of the same query on that drive resume
                # from wherever it ends up (the batch path's sequence)
                head = heads[disk] if disk not in claimed else None
                claimed.add(disk)
                job = _Job(qs, slice_plan(sub.plan, cfg.slice_runs),
                           head, sub.policy, disk, source=source,
                           sub=sub)
                qs.n_slices += len(job.slices)
                ds.queue.append(job)
                maybe_start(ds, t)

        def schedule_next_open(cs: _ClientState) -> None:
            if cs.issued < cs.client.n_queries:
                push(next(cs.stream), "arrive", cs)

        def maybe_start(ds: _DriveState, t: float) -> None:
            if ds.failed or ds.busy or not ds.queue:
                return
            job = ds.queue.popleft()
            ds.busy = True
            ds.current = job
            drive = ds.drive
            qs = job.qs
            if job.next_slice == 0:
                if not qs.started:
                    # events pop in time order, so the first dispatch of
                    # any sub-plan is the query's earliest service start
                    qs.started = True
                    qs.start_ms = t
                if job.head_pos is not None:
                    drive.reset(*job.head_pos)
            sl = job.slices[job.next_slice]
            job.next_slice += 1
            res = drive.service_runs(
                sl.starts, sl.lengths, policy=job.policy, window=window,
            )
            # the result is counted at slice_done, not here: a slice
            # interrupted by a disk failure is LOST work and must not
            # inflate the dead drive's served totals or the query's
            # accumulated service (its stale slice_done is discarded)
            push(t + res.total_ms, "slice_done",
                 (ds, job, ds.epoch, res))

        def complete(qs: _Query, t_done: float) -> None:
            """Shared end-of-query bookkeeping (drive or cache path)."""
            nonlocal makespan
            cs = qs.cs
            # admit the serviced blocks (plus prefetch) into the shared
            # pool; a no-op for cache-only jobs and uncached managers.
            # Sub-plans abandoned by failover were never fully serviced
            # (their frames were dropped with the disk), so they are
            # skipped even if their disk has since been revived.
            for sub in (*qs.prepared.subs, *qs.failover_subs):
                if not any(sub is a for a in qs.abandoned):
                    storage.admit_prepared(sub)
            cs.completed += 1
            makespan = max(makespan, t_done)
            traces.append(self._trace(qs, t_done))
            if qs.obs is not None:
                record_traffic_query(
                    tele,
                    client=cs.client.name,
                    label=describe_query(qs.query),
                    index=qs.index,
                    n_cells=qs.prepared.n_cells,
                    policy=qs.prepared.policy,
                    arrival_ms=qs.arrival_ms,
                    start_ms=qs.start_ms,
                    done_ms=t_done,
                    prepared=qs.prepared,
                    cache=qs.obs["cache"],
                    slices=qs.obs["slices"],
                    events=qs.obs["events"],
                    hits=qs.obs["hits"],
                    runs=qs.obs["runs"],
                )
            arrival = cs.client.arrival
            if arrival.closed and cs.issued < cs.client.n_queries:
                push(arrival.next_after_completion(t_done), "arrive", cs)

        def redispatch(job: _Job, t: float) -> None:
            """Restart one dead disk's sub-plan on a surviving copy."""
            nonlocal n_redispatched
            qs = job.qs
            # a chunk with no other live copy raises ReplicaError here
            source, sub = storage.failover_sub(job.source)
            replicas.record_failover(sub, source)
            n_redispatched += 1
            if qs.obs is not None:
                qs.obs["events"].append((t, job.disk, sub.disk_index))
                qs.obs["cache"][sub.disk_index] = (
                    qs.obs["cache"].get(sub.disk_index, 0.0)
                    + sub.cache_ms
                )
                qs.obs["hits"][sub.disk_index] = (
                    qs.obs["hits"].get(sub.disk_index, 0)
                    + sub.cache_hits
                )
                qs.obs["runs"][sub.disk_index] = (
                    qs.obs["runs"].get(sub.disk_index, 0)
                    + sub.cache_runs
                )
            qs.abandoned.append(job.sub)
            # the dead disk's sub-plan is over; its replacement below
            # re-opens a slot unless it hit the cache whole
            qs.release(job.disk, t)
            new = sub.disk_index
            qs.disk_cache[new] = (
                qs.disk_cache.get(new, 0.0) + sub.cache_ms
            )
            qs.failover_subs.append(sub)
            if sub.plan.n_runs > 0:
                if new not in qs.disk_remaining:
                    qs.disk_remaining[new] = 0
                    qs.remaining += 1
                qs.disk_remaining[new] += 1
                # no head draw: the replica drive resumes from wherever
                # this run left it (a drawn head would also perturb the
                # client's pre-kill stream)
                nj = _Job(qs, slice_plan(sub.plan, cfg.slice_runs),
                          None, sub.policy, new, source=source,
                          sub=sub)
                qs.n_slices += len(nj.slices)
                target = drive_state(new)
                target.queue.append(nj)
                maybe_start(target, t)
            else:
                # the whole failover sub hit the cache at re-prepare
                if new not in qs.disk_remaining:
                    qs.bill_cache(new, t)
                if qs.remaining == 0:
                    push(qs.done_ms, "cache_done", qs)

        def kill_member(disk: int, t: float) -> None:
            # mark the manager first, so failover re-prepares avoid the
            # dead disk (and the pool drops its frames)
            storage.fail_disk(disk)
            ds = drives.get(disk)
            if ds is None or ds.failed:
                return
            ds.failed = True
            ds.epoch += 1  # in-flight slice_done becomes stale
            ds.busy = False
            jobs = list(ds.queue)
            if ds.current is not None:
                # the in-flight slice's partial work is lost; the whole
                # sub-plan restarts on a replica
                jobs.insert(0, ds.current)
            ds.queue.clear()
            ds.current = None
            for job in jobs:
                redispatch(job, t)

        def revive_member(disk: int, t: float) -> None:
            storage.revive_disk(disk)
            ds = drives.get(disk)
            if ds is not None:
                ds.failed = False
                maybe_start(ds, t)

        # -- schedule failures (before arrivals: a kill at t applies
        #    ahead of any same-t submission) --------------------------
        if self.failures is not None:
            for ev in self.failures:
                push(ev.t_ms, "failure", ev)

        # -- seed initial arrivals (client list order) ------------------
        for cs in states:
            arrival = cs.client.arrival
            if arrival.closed:
                push(arrival.first_arrival(), "arrive", cs)
            else:
                cs.stream = arrival.arrivals(cs.client.rng)
                schedule_next_open(cs)

        makespan = 0.0
        while heap:
            t, _, kind, payload = heapq.heappop(heap)
            if kind == "arrive":
                cs = payload
                if cs.issued >= cs.client.n_queries:
                    continue
                # open-loop: keep the stream flowing independently
                if not cs.client.arrival.closed:
                    submit(cs, t)
                    schedule_next_open(cs)
                else:
                    submit(cs, t)
            elif kind == "cache_done":
                complete(payload, t)
            elif kind == "failure":
                if payload.action == "kill":
                    kill_member(payload.disk, t)
                else:
                    revive_member(payload.disk, t)
            else:  # slice_done
                ds, job, epoch, res = payload
                if epoch != ds.epoch:
                    # the drive died while this slice was in flight;
                    # the job was already re-dispatched at kill time
                    # and the slice's work is lost, never counted
                    continue
                jq = job.qs
                jq.acc += res
                if jq.obs is not None:
                    # the slice was dispatched at t - res.total_ms
                    jq.obs["slices"].append(
                        (job.disk, t - res.total_ms, res)
                    )
                ds.busy_ms += res.total_ms
                ds.served_slices += 1
                ds.served_blocks += res.n_blocks
                ds.busy = False
                ds.current = None
                if job.next_slice < len(job.slices):
                    ds.queue.append(job)
                elif jq.release(job.disk, t):
                    # the query completes when its LAST disk's last
                    # slice (plus that disk's cache time) finishes —
                    # the batch makespan rule
                    complete(jq, jq.done_ms)
                maybe_start(ds, t)

        drive_stats = tuple(
            DriveStats(
                disk=ds.disk,
                busy_ms=ds.busy_ms,
                served_slices=ds.served_slices,
                served_blocks=ds.served_blocks,
            )
            for ds in drives.values()
        )
        meta = dict(self.meta)
        meta.setdefault("config", cfg.describe())
        meta.setdefault(
            "clients",
            [c.describe(storage.mapper.name) for c in self.clients],
        )
        if storage.cache is not None:
            # only present when a pool is attached, so uncached runs
            # keep their pre-cache JSON layout bit-for-bit
            meta.setdefault("cache", storage.cache.describe())
        if self.failures is not None:
            # gated on a schedule being passed, so failure-free runs
            # keep their JSON layout bit-for-bit
            meta.setdefault("failures", {
                "schedule": self.failures.describe()["events"],
                "redispatched_subs": n_redispatched,
            })
        if storage.replica_map.k > 1:
            # gated on k > 1, so single-copy runs keep their JSON layout
            meta.setdefault("replicas", storage.describe_replicas(replicas))
        if tele is not None:
            # gated on a Telemetry being attached, so detached runs
            # keep their JSON layout bit-for-bit
            meta.setdefault("obs", tele.describe())
        return TrafficReport(
            traces=tuple(traces),
            drives=drive_stats,
            makespan_ms=makespan,
            meta=meta,
        )

    @staticmethod
    def _trace(qs: _Query, completion_ms: float) -> QueryTrace:
        acc = qs.acc
        return QueryTrace.from_fields(
            client=qs.cs.client.name,
            label=describe_query(qs.query),
            index=qs.index,
            disk=qs.disk,
            arrival_ms=qs.arrival_ms,
            start_ms=qs.start_ms,
            completion_ms=completion_ms,
            service_ms=acc.total_ms + qs.cache_ms,
            n_slices=qs.n_slices,
            n_runs=acc.n_requests + qs.cache_runs,
            n_blocks=acc.n_blocks + qs.cache_hits,
            n_cells=qs.prepared.n_cells,
            seek_ms=acc.seek_ms,
            rotation_ms=acc.rotation_ms,
            transfer_ms=acc.transfer_ms,
            switch_ms=acc.switch_ms,
        )
