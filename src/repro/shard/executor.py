"""The sharded storage manager: one dataset, many member disks.

:class:`ShardedStorageManager` extends the single-disk
:class:`~repro.query.executor.StorageManager` with the multi-disk
pipeline of §4.4/§5.1: a :class:`~repro.shard.map.ShardMap` declusters
the dataset's chunks across the volume's member disks, one mapper per
chunk places its cells (same registry wiring as the façade, so a chunk
is laid out exactly as a standalone dataset of the chunk's shape would
be), and queries split into per-chunk sub-plans serviced scatter-gather
(:func:`repro.query.scatter.scatter_execute`): drives in parallel,
per-drive head state preserved, query time = makespan over drives.

With one shard the map holds a single chunk covering the whole dataset
on disk 0, the chunk mapper *is* the unsharded mapper, and every code
path below reduces to the one-shot executor call for call — the parity
``tests/shard/test_parity.py`` pins bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.api.registry import LayoutEntry, build_mapper
from repro.errors import AllocationError, QueryError
from repro.lvm.volume import LogicalVolume
from repro.query.executor import QueryResult, StorageManager
from repro.query.scatter import ShardedPrepared, scatter_execute
from repro.query.scheduler import SPTF_RUN_LIMIT
from repro.query.workload import BeamQuery, RangeQuery
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
        self.makespan_ms += float(makespan_ms)
        for disk, d in per_disk.items():
            self.busy_ms[disk] += d["busy_ms"]
            self.served_blocks[disk] += d["blocks"]
            self.served_runs[disk] += d["runs"]
            self.queries[disk] += 1

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
    """Executes queries scatter-gather across a sharded placement.

    Parameters mirror :class:`StorageManager`; additionally the manager
    owns the chunk mappers it builds (in chunk order, so placement is
    deterministic) from the registered ``layout`` on the assigned disk
    of each chunk.  The volume must have exactly the map's disk count —
    a mismatch raises instead of silently truncating the placement.
    """

    def __init__(
        self,
        volume: LogicalVolume,
        shard_map: ShardMap,
        layout,
        *,
        cell_blocks: int = 1,
        window: int = 128,
        sptf_run_limit: int = SPTF_RUN_LIMIT,
        coalesce_gap_blocks: int = 24,
        cache=None,
        layout_opts: dict | None = None,
    ):
        super().__init__(
            volume,
            window=window,
            sptf_run_limit=sptf_run_limit,
            coalesce_gap_blocks=coalesce_gap_blocks,
            cache=cache,
        )
        if shard_map.n_disks != volume.n_disks:
            raise AllocationError(
                f"shard map expects {shard_map.n_disks} disks, volume "
                f"has {volume.n_disks}"
            )
        self.shard_map = shard_map
        self.layout_opts = dict(layout_opts or {})
        chunk_mappers = [
            build_mapper(
                layout, chunk.shape, volume, chunk.disk,
                cell_blocks=cell_blocks, **self.layout_opts,
            )
            for chunk in shard_map.chunks
        ]
        name = (layout.name if isinstance(layout, LayoutEntry)
                else str(layout))
        self.mapper = ShardedMapper(name, shard_map, chunk_mappers)
        self.shard_stats = ShardStats(shard_map.n_disks)

    # ------------------------------------------------------------------
    # scatter: one query -> per-chunk prepared sub-plans
    # ------------------------------------------------------------------

    def _query_pieces(self, query):
        """Validate ``query`` and split it over the chunks it touches.

        Returns ``(pieces, axis)``: ``pieces`` is a list of
        ``(chunk, llo, lhi, n_cells)`` in chunk-enumeration order (local
        chunk coordinates), ``axis`` the beam axis or ``None`` for
        ranges — enough for :meth:`_piece_plan` to (re-)plan any piece
        on any chunk mapper, which is what the replica layer's failover
        re-dispatch builds on."""
        if isinstance(query, BeamQuery):
            lo, hi = self._beam_box(query)
            axis = int(query.axis)
            n_cells_of = lambda llo, lhi: lhi[axis] - llo[axis]  # noqa: E731
        elif isinstance(query, RangeQuery):
            lo, hi = tuple(query.lo), tuple(query.hi)
            axis = None
            dims = self.mapper.dims
            if len(lo) != len(dims) or len(hi) != len(dims):
                raise QueryError("box rank does not match dataset rank")
            for d in range(len(dims)):
                if not 0 <= lo[d] < hi[d] <= dims[d]:
                    raise QueryError(
                        f"box [{lo[d]}, {hi[d]}) invalid on axis {d}"
                    )
            n_cells_of = lambda llo, lhi: int(  # noqa: E731
                np.prod([b - a for a, b in zip(llo, lhi)], dtype=np.int64)
            )
        else:
            raise QueryError(f"unknown query type {type(query).__name__}")
        pieces = [
            (chunk, llo, lhi, n_cells_of(llo, lhi))
            for chunk, llo, lhi in self.shard_map.intersections(lo, hi)
        ]
        if not pieces:
            raise QueryError("query intersects no chunk")
        return pieces, axis

    @staticmethod
    def _piece_plan(chunk_mapper, axis, llo, lhi):
        """Plan one chunk-local piece on ``chunk_mapper``."""
        if axis is None:
            return chunk_mapper.range_plan(llo, lhi)
        return chunk_mapper.beam_plan(axis, llo, llo[axis], lhi[axis])

    def prepare(self, mapper, query) -> ShardedPrepared:
        """Split a query across the chunks it touches and prepare each
        sub-plan (coalescing, cache filter, policy clamp) on its chunk's
        mapper.  ``mapper`` is accepted for interface compatibility; the
        split always runs against this manager's own chunk mappers."""
        pieces, axis = self._query_pieces(query)
        subs = []
        total_cells = 0
        for chunk, llo, lhi, n_cells in pieces:
            chunk_mapper = self.mapper.chunk_mappers[chunk.index]
            plan = self._piece_plan(chunk_mapper, axis, llo, lhi)
            subs.append(self.prepare_plan(chunk_mapper, plan, n_cells))
            total_cells += n_cells
        return ShardedPrepared(
            mapper_name=self.mapper.name,
            subs=tuple(subs),
            n_cells=total_cells,
        )

    def _beam_box(self, query: BeamQuery):
        """The beam as a global half-open box (validated)."""
        dims = self.mapper.dims
        axis = int(query.axis)
        if not 0 <= axis < len(dims):
            raise QueryError(f"axis {axis} out of range")
        hi_val = dims[axis] if query.hi is None else int(query.hi)
        if not 0 <= query.lo < hi_val <= dims[axis]:
            raise QueryError(f"beam span [{query.lo}, {hi_val}) invalid")
        fixed = tuple(int(v) for v in query.fixed)
        if len(fixed) != len(dims):
            raise QueryError("fixed must have one entry per dimension")
        lo, hi = [], []
        for d, v in enumerate(fixed):
            if d == axis:
                lo.append(int(query.lo))
                hi.append(hi_val)
            else:
                if not 0 <= v < dims[d]:
                    raise QueryError(f"fixed[{d}]={v} out of range")
                lo.append(v)
                hi.append(v + 1)
        return tuple(lo), tuple(hi)

    # ------------------------------------------------------------------
    # gather: concurrent service, makespan timing
    # ------------------------------------------------------------------

    def execute_prepared(self, prepared, *, rng=None) -> QueryResult:
        if not isinstance(prepared, ShardedPrepared):
            return super().execute_prepared(prepared, rng=rng)
        result, per_disk = scatter_execute(self, prepared, rng=rng)
        self.shard_stats.record(per_disk, result.total_ms)
        return result

    def admit_prepared(self, prepared) -> None:
        if isinstance(prepared, ShardedPrepared):
            for sub in prepared.subs:
                super().admit_prepared(sub)
        else:
            super().admit_prepared(prepared)

    def write_copies(self, chunk_index: int):
        """The ``(copy, chunk_mapper)`` targets an ingest flush of
        ``chunk_index`` must write — one copy (the primary) without
        replication; the replica manager overrides this with every live
        copy."""
        return ((0, self.mapper.chunk_mappers[int(chunk_index)]),)

    def run_query(self, mapper, query, *, rng=None) -> QueryResult:
        return self.execute_prepared(self.prepare(mapper, query), rng=rng)

    def beam(self, mapper, axis, fixed, lo=0, hi=None, *, rng=None):
        return self.run_query(
            mapper, BeamQuery(axis, tuple(fixed), lo, hi), rng=rng
        )

    def range(self, mapper, lo, hi, *, rng=None):
        return self.run_query(
            mapper, RangeQuery(tuple(lo), tuple(hi)), rng=rng
        )

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
