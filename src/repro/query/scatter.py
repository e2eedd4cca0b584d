"""Scatter-gather execution of queries over their per-disk sub-plans.

Every :class:`~repro.api.Dataset` query is prepared by the one storage
manager (:class:`~repro.shard.executor.ShardedStorageManager`) as a
:class:`ShardedPrepared`: one :class:`~repro.query.executor.PreparedQuery`
sub-plan per intersected chunk, each bound — via its ``disk_index`` —
to the member disk holding the copy it reads, plus the ``sources`` a
failover re-plans from.  An unsharded dataset is the one-chunk case: a
single sub-plan on disk 0.  :func:`scatter_batch` services a batch of
queries with the paper's multi-disk semantics — drives work in
parallel, each preserving its own seek/rotation state, and a query
completes when its slowest drive finishes (makespan = max over drives),
exactly how the §5.3 chunked evaluation overlaps per-disk fetches;
:func:`scatter_execute` is its batch of one.

The paper times every query from a random head on an idle disk (§5.1),
so once its head positions are drawn a query's service depends on no
other query's, except through the buffer pool, whose admission reads
only the plan and the volume.  :func:`scatter_batch` therefore serves a
batch in two phases: entry by entry it draws each query's heads and
admits its sub-plans, in the order serving them one at a time would;
then per disk it prepares every pending sub-plan in one drive
preparation (:meth:`~repro.disk.drive.DiskDrive.prepare_batches`), and
services each through :meth:`~repro.disk.drive.DiskDrive.service_runs`,
which stays the call every serviced batch goes through.  Results and
telemetry are then gathered query by query, in order, each with its
per-disk totals (which :meth:`QueryBatch.run <repro.api.QueryBatch.run>`
sums into its run's shard stats).  The pending sub-plans are serviced
whenever they reach :data:`GROUP_RUNS` runs, so a long batch never
holds more than one group of plans.  ``tests/api/test_batch_oracle.py``
pins a batch to the one-at-a-time loop: results, reports, drive, pool,
placement and telemetry state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import QueryError
from repro.query.executor import PreparedQuery, QueryResult

__all__ = ["GROUP_RUNS", "ShardedPrepared", "scatter_batch",
           "scatter_execute"]

#: :func:`scatter_batch` services its pending sub-plans once they hold
#: this many runs, so a long batch holds at most one group of plans
GROUP_RUNS = 4096


@dataclass(frozen=True)
class ShardedPrepared:
    """One logical query prepared as per-chunk, per-disk sub-plans.

    ``subs`` holds one fully prepared :class:`PreparedQuery` per
    intersected chunk, in chunk-enumeration order; sub-plans of the same
    disk are serviced sequentially in that order, different disks in
    parallel.  ``sources[i]`` describes ``subs[i]``: a
    :class:`~repro.replica.executor.SubSource` for a read piece (the box
    a failover re-plans), a :class:`~repro.ingest.pipeline.WriteSource`
    for an ingest flush's write, or ``None`` for an explicit plan on one
    disk (a cell-list read; no box to re-plan).  Aggregate counters
    below sum over the sub-plans.
    """

    mapper_name: str
    subs: tuple[PreparedQuery, ...]
    n_cells: int
    sources: tuple

    def __post_init__(self) -> None:
        if not self.subs:
            raise QueryError("a sharded query needs at least one sub-plan")
        if len(self.sources) != len(self.subs):
            raise QueryError("every sub-plan needs its source")

    @property
    def disks(self) -> tuple[int, ...]:
        """Involved disks, in first-appearance (chunk) order."""
        seen: dict[int, None] = {}
        for sub in self.subs:
            seen.setdefault(sub.disk_index, None)
        return tuple(seen)

    @property
    def disk_index(self) -> int:
        """The first involved disk (the query's reporting home)."""
        return self.subs[0].disk_index

    @property
    def policy(self) -> str:
        """The effective policy — the shared one, or ``"mixed"`` when
        the per-sub-plan SPTF clamp resolved differently across chunks."""
        first = self.subs[0].policy
        for sub in self.subs:
            if sub.policy != first:
                return "mixed"
        return first

    @property
    def n_runs(self) -> int:
        return sum(sub.n_runs for sub in self.subs)

    @property
    def n_blocks(self) -> int:
        return sum(sub.n_blocks for sub in self.subs)

    @property
    def cache_hits(self) -> int:
        return sum(sub.cache_hits for sub in self.subs)

    @property
    def cache_runs(self) -> int:
        return sum(sub.cache_runs for sub in self.subs)

    @property
    def cache_ms(self) -> float:
        return sum(sub.cache_ms for sub in self.subs)


def scatter_batch(storage, entries, gather, *, rng=None) -> None:
    """Service prepared queries scatter-gather, a group at a time.

    ``entries`` yields :class:`ShardedPrepared` queries in order; it may
    prepare each one lazily, when the previous one has been taken in.
    Every query is served as if alone, in two phases:

    1. Entry by entry, in order: one head position is drawn from ``rng``
       per involved disk, in first-appearance order (the draws
       :meth:`~repro.disk.drive.DiskDrive.randomize_position` makes),
       and each sub-plan is admitted to the pool in its service order.
       Admission reads only the plan and the volume, so the next entry's
       cache filter sees what it would see had this one been serviced.
    2. Once the pending sub-plans hold :data:`GROUP_RUNS` runs, or the
       entries run out, per disk: one
       :meth:`~repro.disk.drive.DiskDrive.prepare_batches` over every
       pending sub-plan of the disk, then, query by query, the head is
       placed and each sub-plan serviced by
       :meth:`~repro.disk.drive.DiskDrive.service_runs` from its slice.
       Then per query, in order, the gather: drives run concurrently, so
       the query's ``total_ms`` is the *makespan*, the largest per-disk
       busy time (mechanical service plus memory-served cache time); the
       mechanical component fields (seek/rotation/transfer/switch) sum
       the work done across all drives.  Telemetry spans are recorded,
       and ``gather(result, per_disk)`` is called, where ``per_disk``
       maps each involved disk to its ``{"busy_ms", "blocks", "runs"}``
       contribution.

    Without ``rng`` every drive serves from wherever its head is.  An
    entry that raises while it is drawn or prepared ends the batch: the
    entries before it are serviced and gathered, then the error
    propagates.
    """
    volume = storage.volume
    pending: list[tuple] = []
    runs = 0
    try:
        for prepared in entries:
            by_disk: dict[int, list[PreparedQuery]] = {}
            for sub in prepared.subs:
                by_disk.setdefault(sub.disk_index, []).append(sub)
            heads = None
            if rng is not None:
                heads = {disk: volume.drive(disk).draw_position(rng)
                         for disk in by_disk}
            for disk_subs in by_disk.values():
                for sub in disk_subs:
                    storage.admit_prepared(sub)
            pending.append((prepared, by_disk, heads))
            runs += prepared.n_runs
            if runs >= GROUP_RUNS:
                group, pending, runs = pending, [], 0
                _service_group(storage, group, gather)
    finally:
        if pending:
            _service_group(storage, pending, gather)


def _service_group(storage, group: list[tuple], gather) -> None:
    """Phase 2 of :func:`scatter_batch` for ``(prepared, by_disk,
    heads)`` entries."""
    volume, window, tele = storage.volume, storage.window, storage.obs
    served = [{} for _ in group]
    by_disk: dict[int, list[int]] = {}
    for e, (_, entry_subs, _) in enumerate(group):
        for disk in entry_subs:
            by_disk.setdefault(disk, []).append(e)
    for disk, entries in by_disk.items():
        drive = volume.drive(disk)
        subs = [sub for e in entries for sub in group[e][1][disk]]
        batches = iter(drive.prepare_batches(
            [(sub.plan.starts, sub.plan.lengths, sub.policy) for sub in subs]
        ))
        for e in entries:
            heads = group[e][2]
            if heads is not None:
                drive.reset(*heads[disk])
            served[e][disk] = [
                drive.service_runs(
                    sub.plan.starts, sub.plan.lengths, policy=sub.policy,
                    window=window, prepared=next(batches),
                )
                for sub in group[e][1][disk]
            ]

    for (prepared, entry_subs, _), results in zip(group, served):
        parts: list[tuple] = []
        per_disk: dict[int, dict] = {}
        seek = rotation = transfer = switch = 0.0
        blocks = runs = 0
        makespan = 0.0
        for disk, disk_subs in entry_subs.items():
            busy = 0.0
            d_blocks = d_runs = 0
            for sub, res in zip(disk_subs, results[disk]):
                if tele is not None:
                    parts.append((sub, res))
                busy += res.total_ms + sub.cache_ms
                d_blocks += res.n_blocks + sub.cache_hits
                d_runs += res.n_requests + sub.cache_runs
                seek += res.seek_ms
                rotation += res.rotation_ms
                transfer += res.transfer_ms
                switch += res.switch_ms
            blocks += d_blocks
            runs += d_runs
            makespan = max(makespan, busy)
            per_disk[disk] = {
                "busy_ms": busy, "blocks": d_blocks, "runs": d_runs,
            }
        result = QueryResult(
            mapper=prepared.mapper_name,
            total_ms=makespan,
            n_cells=prepared.n_cells,
            n_blocks=blocks,
            n_runs=runs,
            seek_ms=seek,
            rotation_ms=rotation,
            transfer_ms=transfer,
            switch_ms=switch,
            policy=prepared.policy,
        )
        if tele is not None:
            from repro.obs.span import record_scatter

            record_scatter(tele, prepared, parts, result)
        gather(result, per_disk)


def scatter_execute(
    storage,
    prepared: ShardedPrepared,
    *,
    rng: np.random.Generator | None = None,
) -> tuple[QueryResult, dict[int, dict]]:
    """Service one query scatter-gather: a :func:`scatter_batch` of one.

    Returns ``(result, per_disk)`` where ``per_disk`` maps each involved
    disk to its ``{"busy_ms", "blocks", "runs"}`` contribution.
    """
    out: list[tuple] = []
    scatter_batch(storage, (prepared,), lambda *gathered: out.append(gathered),
                  rng=rng)
    return out[0]
