"""The block-level buffer pool and its plan filter.

A :class:`BufferPool` caches 512-byte blocks keyed by ``(disk, lbn)``
above the simulated drives — the DRAM layer the paper's prototype leaves
to future work, and the missing half of MultiMap's locality dividend:
once neighbors in *every* dimension are physically adjacent, a
track-aligned prefetch turns one query's mechanical work into its
neighbors' memory hits.

The pool plugs into :class:`repro.query.executor.StorageManager` at the
§5.2 issue-order stage: ``prepare_plan`` calls :meth:`filter_plan` to
partition each prepared plan into *cached* blocks (served at
:attr:`BufferPool.service_ms_per_block`, the drive's bus cost) and a
*miss plan* the drive services mechanically; after servicing,
:meth:`admit_plan` installs the missed blocks together with their
prefetched neighbors (:mod:`repro.cache.prefetch`).  Filtering
preserves the plan's issue order — a MultiMap semi-sequential
(``"fifo"``) plan stays in path order, a ``"sorted"`` plan stays
ascending — so the miss plan is serviced exactly as the §5.2
conventions dictate.

A pool holds at least one frame; "no cache" is the absence of a pool
(``cache=None`` on the storage manager), never an empty one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cache.policies import LRUPolicy
from repro.cache.prefetch import make_prefetcher
from repro.disk.drive import DiskDrive
from repro.errors import CacheError, _check_count
from repro.mappings.base import RequestPlan, coalesce_ranks

__all__ = ["BufferPool", "CacheStats", "expand_plan"]


def expand_plan(plan: RequestPlan) -> np.ndarray:
    """Every LBN a plan touches, one entry per block, in issue order."""
    starts = plan.starts
    lengths = plan.lengths
    if starts.size == 0:
        return np.empty(0, dtype=np.int64)
    total = int(lengths.sum())
    # offset of each block within the flattened batch minus the offset of
    # its run's first block == offset within the run
    run_first = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    offsets = np.arange(total, dtype=np.int64) - np.repeat(run_first, lengths)
    return np.repeat(starts, lengths) + offsets


@dataclass
class CacheStats:
    """Cumulative counters over a pool's lifetime.

    ``hits + misses == accesses`` always holds (a property test pins
    it); ``prefetch_hits`` counts hits whose block was resident *because
    of* a prefetch and had not been demanded since, so
    ``prefetch_accuracy`` is the fraction of issued prefetches that
    turned into hits.
    """

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    admitted: int = 0
    evictions: int = 0
    prefetch_issued: int = 0
    prefetch_hits: int = 0
    served_ms: float = field(default=0.0, repr=False)

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    @property
    def prefetch_accuracy(self) -> float:
        if not self.prefetch_issued:
            return 0.0
        return self.prefetch_hits / self.prefetch_issued

    def to_dict(self) -> dict:
        return {
            "accesses": self.accesses,
            "hits": self.hits,
            "misses": self.misses,
            "hit_ratio": self.hit_ratio,
            "admitted": self.admitted,
            "evictions": self.evictions,
            "prefetch_issued": self.prefetch_issued,
            "prefetch_hits": self.prefetch_hits,
            "prefetch_accuracy": self.prefetch_accuracy,
            "served_ms": self.served_ms,
        }


class BufferPool:
    """A shared block cache for one logical volume.

    Parameters
    ----------
    capacity_blocks:
        Frames in the pool (one 512-byte block each): an integer of at
        least 1 (not a bool), else :class:`~repro.errors.CacheError`.
    prefetch:
        Prefetcher, by registered name (``"none"``, ``"track"``).

    Eviction is least recently used (:class:`~repro.cache.policies
    .LRUPolicy`).  A cached block is served in
    :attr:`service_ms_per_block`, the drive's Ultra160-class bus cost
    (:attr:`repro.disk.drive.DiskDrive.CACHE_BLOCK_MS`).
    """

    #: memory service time per cached block
    service_ms_per_block = DiskDrive.CACHE_BLOCK_MS

    def __init__(self, capacity_blocks: int, prefetch: str = "none"):
        self.capacity = _check_count("capacity_blocks", capacity_blocks,
                                     CacheError)
        self.policy = LRUPolicy()
        self.prefetcher = make_prefetcher(prefetch)
        self.stats = CacheStats()
        self._prefetched: set[tuple] = set()
        # per-disk LBN mirror of the policy's resident set, kept in sync
        # by the pool (every policy mutation flows through pool methods)
        # so filter_plan can test membership without per-key tuple
        # hashing; _resident_arr lazily caches the ndarray form for
        # vectorized lookups of large plans and is dropped on mutation
        self._resident: dict[int, set[int]] = {}
        self._resident_arr: dict[int, np.ndarray] = {}

    # ------------------------------------------------------------------
    # residency
    # ------------------------------------------------------------------

    @property
    def occupancy(self) -> int:
        return len(self.policy)

    def __contains__(self, key: tuple) -> bool:
        return key in self.policy

    def contains(self, disk: int, lbn: int) -> bool:
        return (int(disk), int(lbn)) in self.policy

    # ------------------------------------------------------------------
    # the cache-filter step (called from prepare_plan)
    # ------------------------------------------------------------------

    def filter_plan(
        self, disk: int, plan: RequestPlan
    ) -> tuple[RequestPlan, int, int]:
        """Partition ``plan`` into memory hits and a drive miss plan.

        Returns ``(miss_plan, hit_blocks, hit_runs)``.  Hits refresh
        recency; the miss plan preserves the plan's block issue order
        (contiguous surviving blocks re-coalesce into runs).  With zero
        hits the original plan object is returned untouched, so an
        empty or cold pool is exactly the uncached path.
        """
        if plan.n_runs == 0:
            return plan, 0, 0
        lbns = expand_plan(plan)
        d = int(disk)
        policy = self.policy
        stats = self.stats
        resident = self._resident.get(d)
        if not resident:
            # guaranteed all-miss (cold pool, or nothing cached for
            # this disk): skip the membership test entirely
            stats.accesses += int(lbns.size)
            stats.misses += int(lbns.size)
            return plan, 0, 0
        # membership test scaled to the smaller side: set lookups for
        # plans much smaller than the pool, vectorized np.isin (against
        # a cached ndarray of the resident set) for large plans; only
        # the hits (bounded by capacity) then need per-key Python work
        # for recency and prefetch accounting
        if lbns.size * 8 < len(resident):
            hit_mask = np.fromiter(
                (lbn in resident for lbn in lbns.tolist()),
                dtype=bool, count=lbns.size,
            )
        else:
            arr = self._resident_arr.get(d)
            if arr is None:
                arr = np.fromiter(resident, dtype=np.int64,
                                  count=len(resident))
                self._resident_arr[d] = arr
            hit_mask = np.isin(lbns, arr)
        for lbn in lbns[hit_mask].tolist():
            key = (d, lbn)
            policy.on_hit(key)
            if key in self._prefetched:
                self._prefetched.discard(key)
                stats.prefetch_hits += 1
        n_hits = int(hit_mask.sum())
        stats.accesses += int(lbns.size)
        stats.hits += n_hits
        stats.misses += int(lbns.size) - n_hits
        if n_hits == 0:
            return plan, 0, 0
        stats.served_ms += n_hits * self.service_ms_per_block
        # coalesce_ranks is order-preserving (it only breaks on LBN
        # discontinuity), so fifo plans keep their issue order
        starts, lengths = coalesce_ranks(lbns[~hit_mask])
        miss = RequestPlan(starts, lengths, policy=plan.policy,
                           merge_gap=plan.merge_gap)
        # maximal contiguous stretches of hit blocks = "cached runs"
        transitions = int(np.count_nonzero(np.diff(hit_mask.astype(np.int8))
                                           == 1))
        hit_runs = transitions + int(hit_mask[0])
        return miss, n_hits, hit_runs

    def peek_plan(self, disk: int, plan: RequestPlan) -> tuple[int, int]:
        """The ``(hit_blocks, hit_runs)`` that :meth:`filter_plan`
        would report for ``plan`` — without serving it: no recency
        refresh, no prefetch accounting, no stats.  The EXPLAIN layer's
        probe for expected cache hits against the live pool.
        """
        if plan.n_runs == 0:
            return 0, 0
        lbns = expand_plan(plan)
        d = int(disk)
        resident = self._resident.get(d)
        if not resident:
            return 0, 0
        if lbns.size * 8 < len(resident):
            hit_mask = np.fromiter(
                (lbn in resident for lbn in lbns.tolist()),
                dtype=bool, count=lbns.size,
            )
        else:
            arr = self._resident_arr.get(d)
            if arr is None:
                arr = np.fromiter(resident, dtype=np.int64,
                                  count=len(resident))
                self._resident_arr[d] = arr
            hit_mask = np.isin(lbns, arr)
        n_hits = int(hit_mask.sum())
        if n_hits == 0:
            return 0, 0
        transitions = int(np.count_nonzero(np.diff(hit_mask.astype(np.int8))
                                           == 1))
        return n_hits, transitions + int(hit_mask[0])

    # ------------------------------------------------------------------
    # admission (called after the drive serviced the miss plan)
    # ------------------------------------------------------------------

    def admit_plan(self, volume, disk: int, plan: RequestPlan) -> None:
        """Install a serviced miss plan's blocks plus their prefetch.

        Demand blocks are admitted first, then the prefetcher's targets
        for the same runs, minus anything already resident.
        """
        if plan.n_runs == 0:
            return
        d = int(disk)
        for lbn in expand_plan(plan).tolist():
            self._admit((d, lbn), prefetch=False)
        targets = self.prefetcher.targets(volume, disk, plan)
        for lbn in targets.tolist():
            self._admit((d, lbn), prefetch=True)

    def _admit(self, key: tuple, *, prefetch: bool) -> None:
        policy = self.policy
        if key in policy:
            # Demand re-fetch of a resident block (e.g. admitted by a
            # contending client between filter and service) is a real
            # reference: refresh recency.  A speculative prefetch that
            # lands on a resident block is NOT, and leaves its recency
            # alone.
            if not prefetch:
                policy.on_hit(key)
            return
        policy.admit(key)
        self._resident.setdefault(key[0], set()).add(key[1])
        self._resident_arr.pop(key[0], None)
        self.stats.admitted += 1
        if prefetch:
            self.stats.prefetch_issued += 1
            self._prefetched.add(key)
        while len(policy) > self.capacity:
            victim = policy.victim()
            self._resident[victim[0]].discard(victim[1])
            self._resident_arr.pop(victim[0], None)
            self._prefetched.discard(victim)
            self.stats.evictions += 1

    # ------------------------------------------------------------------
    # maintenance / introspection
    # ------------------------------------------------------------------

    def invalidate(self, disk: int, lbns) -> None:
        """Drop blocks (e.g. after an in-place update rewrote them)."""
        d = int(disk)
        resident = self._resident.get(d)
        self._resident_arr.pop(d, None)
        for lbn in np.asarray(lbns, dtype=np.int64).ravel().tolist():
            key = (d, lbn)
            self.policy.discard(key)
            self._prefetched.discard(key)
            if resident is not None:
                resident.discard(lbn)

    def drop_disk(self, disk: int) -> None:
        """Drop every frame of one member disk (e.g. the disk failed:
        a revived or rebuilt disk must not be served stale frames)."""
        d = int(disk)
        resident = self._resident.pop(d, None)
        self._resident_arr.pop(d, None)
        if resident:
            for lbn in resident:
                key = (d, lbn)
                self.policy.discard(key)
                self._prefetched.discard(key)

    def clear(self) -> None:
        self.policy.clear()
        self._prefetched.clear()
        self._resident.clear()
        self._resident_arr.clear()

    def reset_stats(self) -> None:
        self.stats = CacheStats()

    def describe(self) -> dict:
        """JSON-friendly config + lifetime stats snapshot."""
        return {
            "capacity_blocks": self.capacity,
            "policy": self.policy.name,
            "prefetch": self.prefetcher.name,
            "service_ms_per_block": self.service_ms_per_block,
            "occupancy": self.occupancy,
            "stats": self.stats.to_dict(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BufferPool({self.capacity}, policy={self.policy.name!r},"
            f" prefetch={self.prefetcher.name!r},"
            f" occupancy={self.occupancy})"
        )
