"""Replica read routing: read policies, copy provenance, routing stats.

The one storage manager
(:class:`~repro.shard.executor.ShardedStorageManager`) keeps k copies of
every chunk (k = 1 by default) and routes each per-chunk sub-plan to a
copy chosen by a registered *read policy* (:data:`READ_POLICIES`); this
module holds the pieces of that routing the manager is built from: the
policy registry, :class:`SubSource` (which chunk piece a sub-plan
reads, from which copy — what failover re-plans from) and the
:class:`ReplicaStats` routing totals behind ``describe_replicas``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from repro.registry import Registry, first_doc_line

__all__ = [
    "READ_POLICIES",
    "ReadPolicyEntry",
    "ReplicaStats",
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
# copy provenance + stats
# ----------------------------------------------------------------------


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
    #: a read piece fails over to another copy; ingest's write sources
    #: (:class:`~repro.ingest.pipeline.WriteSource`) are dropped instead
    is_write = False


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
