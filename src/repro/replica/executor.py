"""Replica read routing: copy provenance and routing stats.

The one storage manager
(:class:`~repro.shard.executor.ShardedStorageManager`) keeps k copies of
every chunk (k = 1 by default) and routes each per-chunk sub-plan to
the lowest copy on a live disk — the primary while its disk is healthy
(:data:`READ_POLICY`); this module holds the pieces of that routing the
manager is built from: :class:`SubSource` (which chunk piece a sub-plan
reads, from which copy — what failover re-plans from) and the
:class:`ReplicaStats` routing totals behind ``describe_replicas``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

__all__ = ["READ_POLICY", "ReplicaStats", "SubSource"]

#: how a read picks its copy, as ``describe_replicas`` reports it: the
#: lowest live copy, so the primary while its disk is healthy
READ_POLICY = "primary"


class SubSource(NamedTuple):
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
