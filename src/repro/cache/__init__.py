"""repro.cache — buffer pool and locality-aware prefetch.

The memory layer above the simulated drives: a block-level
:class:`BufferPool` keyed by ``(disk, lbn)`` with pluggable,
registry-registered eviction policies (:data:`POLICIES`) and
prefetchers (:data:`PREFETCHERS`) that exploit the same LVM adjacency
interface MultiMap maps onto.  See :mod:`repro.cache.pool` for how it
plugs into the §5.2 issue-order pipeline, and :mod:`repro.cache.sweep`
for the hit-ratio-vs-capacity sweep (``repro-bench cache``, on the
shared sweep engine :mod:`repro.bench.sweep`)::

    from repro import Dataset

    ds = Dataset.create((64, 32, 32), layout="multimap", seed=42)
    ds.with_cache(4096, policy="slru", prefetch="track")
    report = ds.random_beams(axis=1, n=5).repeats(3).run()
    print(ds.cache.stats.hit_ratio)
"""

from repro.cache.policies import (
    POLICIES,
    EvictionPolicy,
    LRUPolicy,
    ScanResistantPolicy,
    SegmentedLRUPolicy,
    policy_names,
    register_policy,
)
from repro.cache.pool import BufferPool, CacheStats, expand_plan
from repro.cache.sharded import ShardedBufferPool
from repro.cache.prefetch import (
    PREFETCHERS,
    AdjacentPrefetcher,
    NoPrefetcher,
    Prefetcher,
    TrackPrefetcher,
    prefetcher_names,
    register_prefetcher,
)
from repro.cache.sweep import (
    overlapping_beams,
    render_cache_sweep,
    run_cache_sweep,
)

__all__ = [
    "POLICIES",
    "PREFETCHERS",
    "AdjacentPrefetcher",
    "BufferPool",
    "CacheStats",
    "EvictionPolicy",
    "LRUPolicy",
    "NoPrefetcher",
    "Prefetcher",
    "ScanResistantPolicy",
    "SegmentedLRUPolicy",
    "ShardedBufferPool",
    "TrackPrefetcher",
    "expand_plan",
    "overlapping_beams",
    "policy_names",
    "prefetcher_names",
    "register_policy",
    "register_prefetcher",
    "render_cache_sweep",
    "run_cache_sweep",
]
