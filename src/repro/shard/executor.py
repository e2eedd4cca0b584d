"""The storage manager of every dataset: n member disks × k copies.

:class:`ShardedStorageManager` extends the §5.2 preparation stage of
:class:`~repro.query.executor.StorageManager` with the multi-disk
pipeline of §4.4/§5.1: a :class:`~repro.shard.map.ShardMap` declusters
the dataset's chunks across the volume's member disks, a
:class:`~repro.replica.map.ReplicaMap` places k copies of every chunk
on distinct disks (k = 1 by default), one mapper per chunk copy places
its cells (same registry wiring as the façade, so a chunk is laid out
exactly as a standalone dataset of the chunk's shape would be), and
queries split into per-chunk sub-plans — each routed to the lowest
live copy of its chunk — serviced scatter-gather, a batch at a time
(:func:`repro.query.scatter.scatter_batch`): drives in parallel,
per-drive head state preserved, query time = makespan over drives.
Killed disks (:meth:`fail_disk`) divert reads to surviving copies, and
a sub-plan caught on a dying disk re-plans on another copy
(:meth:`failover_sub`).

A plain :meth:`Dataset.create <repro.api.Dataset.create>` is the
1 disk × 1 copy case: one chunk spanning the dataset on disk 0, whose
mapper is exactly the paper's single-disk placement, so every query
reaches the drive through the same calls the §5.2 engine makes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.api.registry import LayoutEntry, build_mapper
from repro.errors import (
    AllocationError,
    QueryError,
    ReplicaError,
    _check_count,
)
from repro.lvm.volume import LogicalVolume
from repro.query.executor import (
    PreparedQuery,
    QueryResult,
    StorageManager,
    check_setting,
)
from repro.query.scatter import ShardedPrepared, scatter_batch
from repro.query.scheduler import DEFAULT_WINDOW
from repro.query.workload import BeamQuery, RangeQuery
from repro.replica.executor import READ_POLICY, ReplicaStats, SubSource
from repro.replica.map import ReplicaMap
from repro.shard.map import ShardMap

__all__ = ["ShardStats", "ShardedMapper", "ShardedStorageManager"]


class ShardedMapper:
    """The mapper-shaped face of a sharded placement.

    Exposes the attributes the façade, reports, and traffic clients read
    from a :class:`~repro.mappings.base.Mapper` (``name``, ``dims``,
    ``n_cells``, ``cell_blocks``, ``disk_index``) while the per-chunk
    mappers underneath do the actual cell-to-LBN work.  Plans are always
    produced per chunk, so the cross-disk ``lbns``/``*_plan`` interface
    is deliberately absent.
    """

    def __init__(self, name: str, shard_map: ShardMap, chunk_mappers):
        self.name = str(name)
        self.shard_map = shard_map
        self.chunk_mappers = tuple(chunk_mappers)
        self.dims = shard_map.dims
        self.cell_blocks = self.chunk_mappers[0].cell_blocks
        self.disk_index = self.chunk_mappers[0].disk_index

    @property
    def n_dims(self) -> int:
        return len(self.dims)

    @property
    def n_cells(self) -> int:
        return int(np.prod(self.dims, dtype=np.int64))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardedMapper({self.name!r}, dims={self.dims}, "
            f"shards={self.shard_map.n_disks})"
        )


@dataclass
class ShardStats:
    """Cumulative per-disk gather totals over a manager's lifetime.

    ``busy_ms`` is each drive's mechanical + memory service time;
    ``parallel_efficiency`` compares the work actually overlapped
    against perfect speedup (sum of busy time over ``n_disks`` × the
    accumulated makespan; 1.0 = every drive always busy).
    """

    n_disks: int
    busy_ms: list = field(init=False)
    served_blocks: list = field(init=False)
    served_runs: list = field(init=False)
    queries: list = field(init=False)
    n_queries: int = 0
    makespan_ms: float = 0.0

    def __post_init__(self) -> None:
        self.busy_ms = [0.0] * self.n_disks
        self.served_blocks = [0] * self.n_disks
        self.served_runs = [0] * self.n_disks
        self.queries = [0] * self.n_disks

    def record(self, per_disk: dict, makespan_ms: float) -> None:
        self.n_queries += 1
        self.makespan_ms += makespan_ms
        busy, blocks = self.busy_ms, self.served_blocks
        runs, queries = self.served_runs, self.queries
        for disk, d in per_disk.items():
            busy[disk] += d["busy_ms"]
            blocks[disk] += d["blocks"]
            runs[disk] += d["runs"]
            queries[disk] += 1

    @property
    def parallel_efficiency(self) -> float:
        denom = self.makespan_ms * self.n_disks
        return sum(self.busy_ms) / denom if denom > 0 else 0.0

    def to_dict(self) -> dict:
        return {
            "n_queries": self.n_queries,
            "makespan_ms": self.makespan_ms,
            "parallel_efficiency": self.parallel_efficiency,
            "per_disk": [
                {
                    "disk": i,
                    "busy_ms": self.busy_ms[i],
                    "served_blocks": self.served_blocks[i],
                    "served_runs": self.served_runs[i],
                    "queries": self.queries[i],
                }
                for i in range(self.n_disks)
            ],
        }


class ShardedStorageManager(StorageManager):
    """Scatter-gather execution over k copies of a sharded placement.

    Parameters mirror :class:`StorageManager` plus the placement: the
    manager builds one mapper per chunk copy from the registered
    ``layout`` — every chunk's copy 0 first, on the disk the shard map
    assigns it (chunk order, so placement is deterministic), then copies
    1..k-1 on the disks the :class:`~repro.replica.ReplicaMap` picks, so
    adding copies never moves a primary.  Every sub-plan reads the
    lowest copy of its chunk on a live disk: the primary while its disk
    is healthy.  The volume must have exactly the map's disk count — a
    mismatch raises instead of silently truncating the placement.
    """

    def __init__(
        self,
        volume: LogicalVolume,
        shard_map: ShardMap,
        layout,
        *,
        k: int = 1,
        cell_blocks: int = 1,
        window: int = DEFAULT_WINDOW,
        cache=None,
        layout_opts: dict | None = None,
    ):
        super().__init__(volume, window=window, cache=cache)
        if shard_map.n_disks != volume.n_disks:
            raise AllocationError(
                f"shard map expects {shard_map.n_disks} disks, volume "
                f"has {volume.n_disks}"
            )
        self.shard_map = shard_map
        self.replica_map = ReplicaMap.build(shard_map, k)
        self.cell_blocks = check_setting("cell_blocks", cell_blocks)
        self.layout_opts = dict(layout_opts or {})
        copies = [[self._build_copy(layout, chunk, chunk.disk)]
                  for chunk in shard_map.chunks]
        disks = self.replica_map.disks
        for i, chunk in enumerate(shard_map.chunks):
            for r in range(1, self.replica_map.k):
                copies[i].append(
                    self._build_copy(layout, chunk, int(disks[i, r]))
                )
        self.copy_mappers = tuple(tuple(ms) for ms in copies)
        name = (layout.name if isinstance(layout, LayoutEntry)
                else str(layout))
        self.mapper = ShardedMapper(name, shard_map,
                                    [ms[0] for ms in copies])
        self._primary_disks = tuple(c.disk for c in shard_map.chunks)
        self.failed: set[int] = set()
        self._refresh_live()
        self.shard_stats = ShardStats(shard_map.n_disks)
        self.replica_stats = ReplicaStats(shard_map.n_disks)

    def _build_copy(self, layout, chunk, disk: int):
        return build_mapper(
            layout, chunk.shape, self.volume, disk,
            cell_blocks=self.cell_blocks, **self.layout_opts,
        )

    # ------------------------------------------------------------------
    # failure state
    # ------------------------------------------------------------------

    def _refresh_live(self) -> None:
        """Cache every chunk's live copies (recomputed only when the
        failed set changes, never per query)."""
        self._live = tuple(
            self.replica_map.live_copies(i, self.failed)
            for i in range(self.shard_map.n_chunks)
        )

    def _check_disk(self, disk) -> int:
        """``disk`` as a member-disk index: an integer (not a bool) of at
        least 0, as :class:`~repro.replica.FailureEvent` checks it, below
        the disk count; else :class:`ReplicaError`."""
        d = _check_count("disk", disk, ReplicaError, 0)
        if d >= self.shard_map.n_disks:
            raise ReplicaError(
                f"disk {d} out of range for {self.shard_map.n_disks} "
                f"member disks"
            )
        return d

    def fail_disk(self, disk: int) -> None:
        """Mark a member disk dead: reads divert to surviving copies and
        any cached frames of the disk are dropped (a revived or rebuilt
        disk must not serve stale frames).  A bad ``disk`` raises
        :class:`ReplicaError` with nothing changed (:meth:`_check_disk`)."""
        d = self._check_disk(disk)
        self.failed.add(d)
        self._refresh_live()
        if self.cache is not None:
            self.cache.drop_disk(d)

    def revive_disk(self, disk: int) -> None:
        """Bring a failed member disk back into rotation; ``disk`` is
        checked as :meth:`fail_disk` checks it."""
        self.failed.discard(self._check_disk(disk))
        self._refresh_live()

    # ------------------------------------------------------------------
    # scatter: one query -> per-chunk prepared sub-plans
    # ------------------------------------------------------------------

    def _query_box(self, query):
        """The global half-open box ``query`` reads, as ``(lo, hi,
        axis)``: ``axis`` is the beam axis, or ``None`` for ranges — with
        a chunk-local box, enough to (re-)plan the piece on any copy of
        its chunk, which is what failover builds on.  The box's bounds
        are checked where it is cut, in
        :meth:`~repro.shard.map.ShardMap.intersections`."""
        if isinstance(query, BeamQuery):
            dims = self.shard_map.dims
            axis = query.axis
            if not 0 <= axis < len(dims):
                raise QueryError(f"axis {axis} out of range")
            lo = list(query.fixed)
            if len(lo) != len(dims):
                raise QueryError("fixed must have one entry per dimension")
            hi = [v + 1 for v in lo]
            lo[axis] = query.lo
            hi[axis] = dims[axis] if query.hi is None else query.hi
            return lo, hi, axis
        if isinstance(query, RangeQuery):
            return query.lo, query.hi, None
        raise QueryError(f"unknown query type {type(query).__name__}")

    def _select_copy(self, chunk_index: int, exclude_copy=None) -> int:
        """The lowest live copy of a chunk, other than ``exclude_copy``
        (the one a failing-over sub-plan leaves)."""
        live = self._live[chunk_index]
        if exclude_copy is not None:
            live = tuple(r for r in live if r != exclude_copy)
        if not live:
            raise ReplicaError(
                f"chunk {chunk_index} is unreadable: all "
                f"{self.replica_map.k} copies are on failed disks "
                f"{sorted(self.failed)}"
            )
        return live[0]

    def _prepare_source(self, source: SubSource) -> PreparedQuery:
        """Plan + prepare one chunk piece on its source's chosen copy."""
        mapper = self.copy_mappers[source.chunk][source.copy]
        llo, lhi, axis = source.llo, source.lhi, source.axis
        if axis is None:
            plan = mapper.range_plan(llo, lhi)
        else:
            plan = mapper.beam_plan(axis, llo, llo[axis], lhi[axis])
        sub = self.prepare_plan(mapper, plan, source.n_cells)
        self.replica_stats.record_sub(
            sub.disk_index, source.copy, sub.n_blocks + sub.cache_hits
        )
        return sub

    def prepare(self, query) -> ShardedPrepared:
        """Split a query across the chunks it touches and prepare each
        piece (coalescing, cache filter, policy clamp) on its chunk's
        lowest live copy."""
        lo, hi, axis = self._query_box(query)
        subs, sources = [], []
        total_cells = 0
        for chunk, llo, lhi in self.shard_map.intersections(lo, hi):
            if axis is None:
                n_cells = 1
                for a, b in zip(llo, lhi):
                    n_cells *= b - a
            else:
                n_cells = lhi[axis] - llo[axis]
            i = chunk.index
            source = SubSource(i, self._select_copy(i), axis, llo, lhi,
                               n_cells)
            subs.append(self._prepare_source(source))
            sources.append(source)
            total_cells += n_cells
        failed = self.failed
        if failed and any(self._primary_disks[source.chunk] in failed
                          for source in sources):
            self.replica_stats.degraded_queries += 1
        return ShardedPrepared(
            self.mapper.name, tuple(subs), total_cells, tuple(sources)
        )

    def failover_sub(
        self, source: SubSource
    ) -> tuple[SubSource, PreparedQuery]:
        """Re-dispatch one sub-plan onto a surviving copy.

        Called when the disk servicing ``source`` fails mid-run: the
        whole piece restarts on another live copy (already-serviced
        slices are lost work — the blocks must be re-read).  Returns the
        updated source and the freshly prepared sub-plan; a chunk with
        no other live copy raises :class:`~repro.errors.ReplicaError`.
        """
        copy = self._select_copy(source.chunk, exclude_copy=source.copy)
        moved = source._replace(copy=copy)
        sub = self._prepare_source(moved)
        self.replica_stats.failovers += 1
        return moved, sub

    def write_copies(self, chunk_index: int):
        """Every live ``(copy, mapper)`` an ingest flush must write.

        Replica-consistent ingest applies a flush to the primary *and*
        all k-1 copies, skipping dead disks (their copies rebuild from a
        survivor later); a chunk whose copies are all dead cannot accept
        writes at all — raising keeps the data-loss loud."""
        i = int(chunk_index)
        live = self._live[i]
        if not live:
            raise ReplicaError(
                f"chunk {i} is unwritable: all {self.replica_map.k} "
                f"copies are on failed disks {sorted(self.failed)}"
            )
        return tuple((r, self.copy_mappers[i][r]) for r in live)

    # ------------------------------------------------------------------
    # gather: concurrent service, makespan timing
    # ------------------------------------------------------------------

    def execute_batch(self, entries, *, rng=None) -> list[QueryResult]:
        """Service queries from :meth:`prepare` scatter-gather, in two
        phases per group (:func:`~repro.query.scatter.scatter_batch`),
        and return their results in order.  ``entries`` may prepare each
        query lazily.  Each query's gather totals are recorded in
        :attr:`shard_stats` in order, those of the queries before an
        entry that raises included."""
        results: list[QueryResult] = []

        def gather(result: QueryResult, per_disk: dict) -> None:
            self.shard_stats.record(per_disk, result.total_ms)
            results.append(result)

        scatter_batch(self, entries, gather, rng=rng)
        return results

    def execute_prepared(self, prepared: ShardedPrepared, *,
                         rng=None) -> QueryResult:
        """Service one query from :meth:`prepare` (a batch of one; an
        explicit plan on one disk goes through :meth:`execute_plan`)."""
        return self.execute_batch((prepared,), rng=rng)[0]

    def admit_prepared(self, prepared: PreparedQuery) -> None:
        """Admit one serviced sub-plan, skipping copies on failed disks
        (their frames were dropped at :meth:`fail_disk` and must not be
        repopulated for a disk that cannot serve them)."""
        if prepared.disk_index not in self.failed:
            super().admit_prepared(prepared)

    def execute_plan(self, mapper, plan, n_cells: int, *,
                     rng=None) -> QueryResult:
        """Service an explicit plan on one chunk mapper's disk (a cell
        list read; there is no box to re-plan, so no source)."""
        sub = self.prepare_plan(mapper, plan, n_cells)
        return self.execute_prepared(
            ShardedPrepared(mapper.name, (sub,), sub.n_cells, (None,)),
            rng=rng,
        )

    def run_query(self, query, *, rng=None) -> QueryResult:
        """Prepare and service one :class:`BeamQuery` /
        :class:`RangeQuery`."""
        return self.execute_prepared(self.prepare(query), rng=rng)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def reset_shard_stats(self) -> None:
        self.shard_stats = ShardStats(self.shard_map.n_disks)

    def describe_shards(self) -> dict:
        """Placement summary plus lifetime gather stats (cumulative, like
        the cache snapshot; ``reset_shard_stats`` scopes it)."""
        out = self.shard_map.describe()
        out["stats"] = self.shard_stats.to_dict()
        return out

    def reset_replica_stats(self) -> None:
        self.replica_stats = ReplicaStats(self.shard_map.n_disks)

    def describe_replicas(self) -> dict:
        """Placement summary plus lifetime routing stats (cumulative,
        like the shard snapshot; ``reset_replica_stats`` scopes it)."""
        out = self.replica_map.describe()
        out["read_policy"] = READ_POLICY
        out["failed"] = sorted(self.failed)
        out["stats"] = self.replica_stats.to_dict()
        return out
