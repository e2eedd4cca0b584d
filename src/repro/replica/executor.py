"""The replicated storage manager: k copies, read selection, failover.

:class:`ReplicatedStorageManager` extends the scatter-gather
:class:`~repro.shard.executor.ShardedStorageManager` with k-way
replication: a :class:`~repro.replica.map.ReplicaMap` places copies
1..k-1 of every chunk on distinct member disks (copy 0 stays exactly
where the shard map put it — primary mappers are built first, in chunk
order, so the healthy-mode placement is bit-identical to the sharded
stack), queries route each per-chunk sub-plan to a copy chosen by a
registered *read policy* (:data:`READ_POLICIES`), and killed disks
(:meth:`fail_disk`) divert reads to surviving replicas with degraded-mode
accounting in :class:`ReplicaStats`.

With ``k=1`` there is exactly one copy per chunk — the primary — and
every path below reduces to the sharded manager call for call, the
parity ``tests/replica/test_parity.py`` pins bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.api.registry import build_mapper
from repro.errors import ReplicaError
from repro.query.executor import PreparedQuery, StorageManager
from repro.query.scatter import ShardedPrepared
from repro.query.scheduler import SPTF_RUN_LIMIT
from repro.registry import Registry, first_doc_line
from repro.replica.map import ReplicaMap
from repro.shard.executor import ShardedStorageManager

__all__ = [
    "READ_POLICIES",
    "ReadPolicyEntry",
    "ReplicaStats",
    "ReplicatedPrepared",
    "ReplicatedStorageManager",
    "SubSource",
    "read_policy_names",
    "register_read_policy",
]


# ----------------------------------------------------------------------
# read-selection policies
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ReadPolicyEntry:
    """A registered replica read-selection policy.

    ``fn(manager, chunk_index, live)`` picks one copy index out of
    ``live`` (non-empty, ascending copy order, every copy on a healthy
    disk).  Selection must be deterministic — same call sequence, same
    choices — so seeded runs stay bit-reproducible.
    """

    name: str
    fn: Callable
    description: str = ""


#: read-policy-name -> :class:`ReadPolicyEntry`; builtins live in this
#: module, so importing it is the whole population step
READ_POLICIES = Registry("read policy")


def register_read_policy(name: str, *, description: str = ""):
    """Function decorator adding a read policy to
    :data:`READ_POLICIES`."""

    def deco(fn):
        desc = description or first_doc_line(fn)
        READ_POLICIES.add(name, ReadPolicyEntry(name, fn, desc))
        return fn

    return deco


def read_policy_names() -> tuple[str, ...]:
    return READ_POLICIES.names()


@register_read_policy("primary")
def _primary(manager, chunk_index: int, live) -> int:
    """Lowest live copy: the primary while its disk is healthy."""
    return live[0]


@register_read_policy("round_robin")
def _round_robin(manager, chunk_index: int, live) -> int:
    """Cycle each chunk's reads over its live copies in turn."""
    i = manager._rr_counts.get(chunk_index, 0)
    manager._rr_counts[chunk_index] = i + 1
    return live[i % len(live)]


@register_read_policy("least_loaded")
def _least_loaded(manager, chunk_index: int, live) -> int:
    """Live copy on the disk with the fewest planned blocks so far."""
    disks = manager.replica_map.disks[chunk_index]
    blocks = manager.replica_stats.planned_blocks
    return min(live, key=lambda r: (blocks[int(disks[r])], r))


# ----------------------------------------------------------------------
# prepared form + stats
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SubSource:
    """Provenance of one sub-plan: which chunk piece, on which copy.

    Carries everything needed to re-plan the same piece on another copy
    (the failover path): the chunk, the chosen copy, the beam axis
    (``None`` for ranges) and the chunk-local half-open box."""

    chunk: int
    copy: int
    axis: int | None
    llo: tuple[int, ...]
    lhi: tuple[int, ...]
    n_cells: int


@dataclass(frozen=True)
class ReplicatedPrepared(ShardedPrepared):
    """A sharded prepared query that remembers each sub-plan's source.

    ``sources[i]`` describes ``subs[i]``; everything else — aggregate
    counters, the per-disk execution semantics — is inherited, so the
    traffic engine and the scatter executor treat it exactly like a
    :class:`ShardedPrepared` (the k=1 parity relies on this).
    """

    sources: tuple[SubSource, ...] = ()


@dataclass
class ReplicaStats:
    """Cumulative read-routing totals over a manager's lifetime."""

    n_disks: int
    reads: list = field(init=False)
    planned_blocks: list = field(init=False)
    primary_reads: int = 0
    replica_reads: int = 0
    failovers: int = 0
    degraded_queries: int = 0

    def __post_init__(self) -> None:
        self.reads = [0] * self.n_disks
        self.planned_blocks = [0] * self.n_disks

    def record_sub(self, disk: int, copy: int, n_blocks: int) -> None:
        self.reads[disk] += 1
        self.planned_blocks[disk] += int(n_blocks)
        if copy == 0:
            self.primary_reads += 1
        else:
            self.replica_reads += 1

    def to_dict(self) -> dict:
        return {
            "primary_reads": self.primary_reads,
            "replica_reads": self.replica_reads,
            "failovers": self.failovers,
            "degraded_queries": self.degraded_queries,
            "per_disk": [
                {
                    "disk": i,
                    "reads": self.reads[i],
                    "planned_blocks": self.planned_blocks[i],
                }
                for i in range(self.n_disks)
            ],
        }


# ----------------------------------------------------------------------
# the manager
# ----------------------------------------------------------------------


class ReplicatedStorageManager(ShardedStorageManager):
    """Scatter-gather execution over k-way replicated chunks.

    Parameters mirror :class:`ShardedStorageManager` plus the
    replication knobs.  Copy-0 mappers are the parent's chunk mappers
    (built first, chunk order — the sharded stack's exact placement);
    replica mappers are built afterwards (chunk order, then copy order),
    so adding replication never moves a primary.
    """

    def __init__(
        self,
        volume,
        shard_map,
        layout,
        *,
        k: int = 2,
        placement: str = "rotated",
        read_policy: str = "primary",
        cell_blocks: int = 1,
        window: int = 128,
        sptf_run_limit: int = SPTF_RUN_LIMIT,
        coalesce_gap_blocks: int = 24,
        cache=None,
        layout_opts: dict | None = None,
    ):
        super().__init__(
            volume,
            shard_map,
            layout,
            cell_blocks=cell_blocks,
            window=window,
            sptf_run_limit=sptf_run_limit,
            coalesce_gap_blocks=coalesce_gap_blocks,
            cache=cache,
            layout_opts=layout_opts,
        )
        self.replica_map = ReplicaMap.build(shard_map, k, placement)
        self.read_policy = (
            read_policy if isinstance(read_policy, ReadPolicyEntry)
            else READ_POLICIES.get(read_policy)
        )
        self.cell_blocks = int(cell_blocks)
        # copy 0 is the parent's chunk mapper; replicas allocate after
        # every primary so the primary placement never moves
        copy_mappers = [[m] for m in self.mapper.chunk_mappers]
        for i, chunk in enumerate(shard_map.chunks):
            for r in range(1, self.replica_map.k):
                copy_mappers[i].append(
                    build_mapper(
                        layout, chunk.shape, volume,
                        int(self.replica_map.disks[i, r]),
                        cell_blocks=self.cell_blocks,
                        **self.layout_opts,
                    )
                )
        self.copy_mappers = tuple(tuple(ms) for ms in copy_mappers)
        self.failed: set[int] = set()
        self.replica_stats = ReplicaStats(shard_map.n_disks)
        self._rr_counts: dict[int, int] = {}

    # ------------------------------------------------------------------
    # failure state
    # ------------------------------------------------------------------

    def fail_disk(self, disk: int) -> None:
        """Mark a member disk dead: reads divert to surviving copies and
        any cached frames of the disk are dropped (a revived or rebuilt
        disk must not serve stale frames)."""
        d = int(disk)
        if not 0 <= d < self.shard_map.n_disks:
            raise ReplicaError(
                f"disk {d} out of range for {self.shard_map.n_disks} "
                f"member disks"
            )
        self.failed.add(d)
        cache = self.cache
        if cache is not None and cache.active:
            cache.drop_disk(d)

    def revive_disk(self, disk: int) -> None:
        """Bring a failed member disk back into rotation."""
        self.failed.discard(int(disk))

    # ------------------------------------------------------------------
    # copy selection + scatter
    # ------------------------------------------------------------------

    def _select_copy(self, chunk_index: int, exclude_copy=None) -> int:
        live = [
            r for r in self.replica_map.live_copies(
                chunk_index, self.failed
            )
            if r != exclude_copy
        ]
        if not live:
            raise ReplicaError(
                f"chunk {chunk_index} is unreadable: all "
                f"{self.replica_map.k} copies are on failed disks "
                f"{sorted(self.failed)}"
            )
        return int(self.read_policy.fn(self, chunk_index, live))

    def _prepare_source(self, source: SubSource) -> PreparedQuery:
        """Plan + prepare one chunk piece on its source's chosen copy."""
        mapper = self.copy_mappers[source.chunk][source.copy]
        plan = self._piece_plan(mapper, source.axis, source.llo,
                                source.lhi)
        sub = self.prepare_plan(mapper, plan, source.n_cells)
        self.replica_stats.record_sub(
            sub.disk_index, source.copy, sub.n_blocks + sub.cache_hits
        )
        return sub

    def prepare(self, mapper, query) -> ReplicatedPrepared:
        """Split the query per chunk and route every piece to a copy
        chosen by the read policy among live disks."""
        pieces, axis = self._query_pieces(query)
        subs, sources = [], []
        total_cells = 0
        degraded = False
        for chunk, llo, lhi, n_cells in pieces:
            copy = self._select_copy(chunk.index)
            if int(self.replica_map.disks[chunk.index, 0]) in self.failed:
                degraded = True
            source = SubSource(chunk.index, copy, axis, llo, lhi, n_cells)
            subs.append(self._prepare_source(source))
            sources.append(source)
            total_cells += n_cells
        if degraded:
            self.replica_stats.degraded_queries += 1
        return ReplicatedPrepared(
            mapper_name=self.mapper.name,
            subs=tuple(subs),
            n_cells=total_cells,
            sources=tuple(sources),
        )

    def write_copies(self, chunk_index: int):
        """Every live ``(copy, mapper)`` an ingest flush must write.

        Replica-consistent ingest applies a flush to the primary *and*
        all k-1 copies, skipping dead disks (their copies rebuild from a
        survivor later); a chunk whose copies are all dead cannot accept
        writes at all — raising keeps the data-loss loud."""
        i = int(chunk_index)
        live = self.replica_map.live_copies(i, self.failed)
        if not live:
            raise ReplicaError(
                f"chunk {i} is unwritable: all {self.replica_map.k} "
                f"copies are on failed disks {sorted(self.failed)}"
            )
        return tuple((int(r), self.copy_mappers[i][int(r)]) for r in live)

    def failover_sub(
        self, source: SubSource
    ) -> tuple[SubSource, PreparedQuery]:
        """Re-dispatch one sub-plan onto a surviving copy.

        Called when the disk servicing ``source`` fails mid-run: the
        whole piece restarts on another live copy (already-serviced
        slices are lost work — the blocks must be re-read).  Returns the
        updated source and the freshly prepared sub-plan.
        """
        copy = self._select_copy(source.chunk, exclude_copy=source.copy)
        moved = SubSource(source.chunk, copy, source.axis, source.llo,
                          source.lhi, source.n_cells)
        sub = self._prepare_source(moved)
        self.replica_stats.failovers += 1
        return moved, sub

    def admit_prepared(self, prepared) -> None:
        """Admit serviced sub-plans, skipping copies on failed disks
        (their frames were dropped at :meth:`fail_disk` and must not be
        repopulated for a disk that cannot serve them)."""
        if isinstance(prepared, ShardedPrepared):
            subs = prepared.subs
        else:
            subs = (prepared,)
        for sub in subs:
            if sub.disk_index not in self.failed:
                StorageManager.admit_prepared(self, sub)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def reset_replica_stats(self) -> None:
        self.replica_stats = ReplicaStats(self.shard_map.n_disks)

    def describe_replicas(self) -> dict:
        """Placement summary plus lifetime routing stats (cumulative,
        like the shard snapshot; ``reset_replica_stats`` scopes it)."""
        out = self.replica_map.describe()
        out["read_policy"] = self.read_policy.name
        out["failed"] = sorted(self.failed)
        out["stats"] = self.replica_stats.to_dict()
        return out
