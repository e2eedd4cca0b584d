"""The §5.2 preparation stage of the storage manager.

This is the component the paper calls the "database storage manager"
(§5.1): it asks the mapper for a request plan, applies the issue-order
conventions of §5.2, hands the batch to the owning drive, and reports
the timing breakdown.  :class:`StorageManager` holds the stage that
works on one mapper's plan — coalescing, cache filter and SPTF clamp
(:meth:`StorageManager.prepare_plan`, :meth:`StorageManager.prepare_write`)
and the cache admit after service.

Every :class:`~repro.api.Dataset` runs on its subclass
:class:`~repro.shard.executor.ShardedStorageManager` (n disks × k
copies, 1 × 1 by default), which splits each query into per-disk
sub-plans, prepares each one here and services them scatter-gather
(:func:`repro.query.scatter.scatter_execute`).  The paper's figures,
EXPLAIN, traffic and ingest all run queries through that one manager.

When a :class:`repro.cache.BufferPool` is attached, preparation gains a
cache-filter step *after* the §5.2 coalescing: resident blocks are
carved out of the plan (served at memory speed) and only the miss runs
reach the drive, still in the plan's issue order; once serviced, the
missed blocks and their prefetched neighbors are admitted back into the
pool (:meth:`StorageManager.admit_prepared`).  Without a pool — or with
a capacity-0 pool — every path below is bit-identical to the uncached
storage manager.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from repro.errors import MappingError, QueryError, _check_count
from repro.lvm.volume import LogicalVolume
from repro.mappings.base import (
    Mapper,
    RequestPlan,
    coalesce_ranks,
    sorted_unique,
)
from repro.query.scheduler import (
    DEFAULT_WINDOW,
    SPTF_RUN_LIMIT,
    effective_policy,
    merge_plan_runs,
)

__all__ = [
    "PreparedQuery",
    "QueryResult",
    "StorageManager",
    "WritePrepared",
    "check_setting",
]

#: the least legal value of each storage setting
_LEAST = {
    "window": 1,
    "sptf_run_limit": 0,
    "coalesce_gap_blocks": 0,
    "cell_blocks": 1,
}


def check_setting(name: str, value) -> int:
    """A storage setting as an int: an integer (not a bool) at or above
    its least value (see :class:`StorageManager`).  Raises
    :class:`QueryError`, or :class:`MappingError` for ``cell_blocks`` as
    the mappers do."""
    error = MappingError if name == "cell_blocks" else QueryError
    return _check_count(name, value, error, _LEAST[name])


@dataclass(frozen=True)
class PreparedQuery:
    """A query after issue-order preparation, ready to be serviced.

    The plan has already been coalesced (for ``"sorted"``/``"sptf"``
    batches) and ``policy`` is the *effective* policy after the SPTF batch
    clamp — the batch the drive services.  Keeping this stage
    separate lets the traffic simulator split the plan into service slices
    (:func:`repro.query.scheduler.slice_plan`) and interleave slices from
    different clients at the drive, resuming the drive position between
    them.

    With a buffer pool attached, ``plan`` holds only the *miss* runs —
    ``cache_hits`` blocks (in ``cache_runs`` contiguous stretches) were
    already carved out at the cache-filter step and cost ``cache_ms`` of
    memory service instead of drive time.  All three stay zero on the
    uncached path.
    """

    mapper_name: str
    disk_index: int
    plan: RequestPlan
    policy: str
    n_cells: int
    cache_hits: int = 0
    cache_runs: int = 0
    cache_ms: float = 0.0
    #: preparation record for an attached telemetry (None when detached;
    #: excluded from equality so observed and unobserved plans compare equal)
    obs: object = field(default=None, compare=False, repr=False)
    #: read batches are admitted to the cache; :class:`WritePrepared`
    #: batches invalidate instead
    is_write: ClassVar[bool] = False

    @property
    def n_runs(self) -> int:
        return self.plan.n_runs

    @property
    def n_blocks(self) -> int:
        return self.plan.n_blocks


@dataclass(frozen=True)
class WritePrepared(PreparedQuery):
    """A prepared write batch (an ingest flush's blocks on one disk).

    Serviced exactly like a read batch — writes follow the same §5.2
    issue-order conventions — but ``is_write`` routes it past every
    cache admit/filter path (written blocks were *invalidated* at
    preparation instead) and lets the traffic engine drop, rather than
    fail over, a dead replica's copy of a flush.  ``n_cells`` counts the
    points acknowledged by this batch.
    """

    is_write: ClassVar[bool] = True


@dataclass(frozen=True)
class QueryResult:
    """Timing of one executed query on one disk."""

    mapper: str
    total_ms: float
    n_cells: int
    n_blocks: int
    n_runs: int
    seek_ms: float
    rotation_ms: float
    transfer_ms: float
    switch_ms: float
    policy: str

    @property
    def ms_per_cell(self) -> float:
        return self.total_ms / self.n_cells if self.n_cells else 0.0

    @property
    def ms_per_block(self) -> float:
        return self.total_ms / self.n_blocks if self.n_blocks else 0.0


class StorageManager:
    """Prepares request plans for any mapper on a volume (§5.2).

    Parameters
    ----------
    volume:
        The logical volume whose drives service the requests.
    window:
        Drive command-queue depth for SPTF batches (real drives of the
        paper's era exposed 32-256 tagged commands); at least 1.
    sptf_run_limit:
        Batches with more runs than this fall back to one elevator pass;
        at least 0, which serves every SPTF batch ``"sorted"``.
    coalesce_gap_blocks:
        The largest hole, in blocks, a range plan without its own
        ``merge_gap`` reads through when coalescing; at least 0.
    cache:
        Optional :class:`repro.cache.BufferPool` shared by every query
        this manager prepares (and by every other manager handed the
        same pool — the per-volume cache of the traffic simulator).
        ``None`` or a capacity-0 pool leaves all paths bit-identical to
        the uncached manager.

    The three settings must be integers (not bools); anything else
    raises :class:`QueryError` (:func:`check_setting`).
    """

    def __init__(
        self,
        volume: LogicalVolume,
        *,
        window: int = DEFAULT_WINDOW,
        sptf_run_limit: int = SPTF_RUN_LIMIT,
        coalesce_gap_blocks: int = 24,
        cache=None,
    ):
        self.window = check_setting("window", window)
        self.sptf_run_limit = check_setting("sptf_run_limit", sptf_run_limit)
        self.coalesce_gap_blocks = check_setting(
            "coalesce_gap_blocks", coalesce_gap_blocks
        )
        self.volume = volume
        self.cache = cache
        #: attached :class:`repro.obs.Telemetry`, or None (the default:
        #: every path below is then bit-identical to a build without obs)
        self.obs = None

    def prepare_plan(
        self, mapper: Mapper, plan: RequestPlan, n_cells: int
    ) -> PreparedQuery:
        """Apply the issue-order conventions of §5.2 without servicing.

        Coalesces nearby runs of sortable batches and resolves the
        effective scheduling policy; the result is serviced in one batch
        by the scatter-gather executor or split into slices by the
        traffic simulator.  With a buffer pool attached, the cache
        filter then partitions the prepared plan: resident blocks are
        served from memory and only the miss runs — still in the §5.2
        issue order — go to the drive.
        """
        observing = self.obs is not None
        if observing:
            raw_runs = plan.n_runs
        if plan.policy in ("sorted", "sptf"):
            gap = plan.merge_gap
            if gap is None:
                gap = self.coalesce_gap_blocks
            plan = merge_plan_runs(plan, gap)
        cache_hits = cache_runs = 0
        cache_ms = 0.0
        cache = self.cache
        if cache is not None and cache.active:
            plan, cache_hits, cache_runs = cache.filter_plan(
                mapper.disk_index, plan
            )
            cache_ms = cache_hits * cache.service_ms_per_block
        # resolve the SPTF clamp on what the drive will actually queue:
        # a warm cache can shrink a too-large batch back under the limit
        policy = effective_policy(plan, self.sptf_run_limit)
        return PreparedQuery(
            mapper_name=mapper.name,
            disk_index=mapper.disk_index,
            plan=plan,
            policy=policy,
            n_cells=int(n_cells),
            cache_hits=cache_hits,
            cache_runs=cache_runs,
            cache_ms=cache_ms,
            obs={"raw_runs": raw_runs} if observing else None,
        )

    def prepare_write(
        self, mapper: Mapper, lbns, n_points: int
    ) -> WritePrepared:
        """Prepare a write batch of whole blocks on ``mapper``'s disk.

        Writes take the same issue-order treatment as reads (sorted
        runs, SPTF clamp) but never consult the cache filter — every
        block goes to the drive — and instead *invalidate* any resident
        frames of the written blocks, so no reader is served pre-flush
        contents.  Runs merge only on exact adjacency (``merge_gap=0``):
        a write must not touch blocks it does not own.
        """
        lbns = sorted_unique(np.asarray(lbns, dtype=np.int64).ravel())
        if lbns.size == 0:
            raise QueryError("a write batch needs at least one block")
        starts, lengths = coalesce_ranks(lbns)
        plan = RequestPlan(starts, lengths, policy="sorted", merge_gap=0)
        cache = self.cache
        if cache is not None and cache.active:
            cache.invalidate(mapper.disk_index, lbns)
        return WritePrepared(
            mapper_name=mapper.name,
            disk_index=mapper.disk_index,
            plan=plan,
            policy=effective_policy(plan, self.sptf_run_limit),
            n_cells=int(n_points),
            obs=(
                {"raw_runs": int(lbns.size)}
                if self.obs is not None else None
            ),
        )

    def admit_prepared(self, prepared: PreparedQuery) -> None:
        """Admit a serviced query's missed blocks (plus prefetch).

        No-op without an active pool.  The scatter-gather executor calls
        this once a sub-plan is serviced, the traffic simulator when a
        query's *last* slice completes.  Write batches are never
        admitted — their blocks were invalidated at preparation.
        """
        if prepared.is_write:
            return
        cache = self.cache
        if cache is not None and cache.active:
            cache.admit_plan(self.volume, prepared.disk_index,
                             prepared.plan)
