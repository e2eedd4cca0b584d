"""repro.cache — buffer pool and locality-aware prefetch.

The memory layer above the simulated drives: one block-level
:class:`BufferPool` per dataset, keyed by ``(disk, lbn)`` across every
member disk, with least-recently-used eviction and a prefetcher picked
by registered name (:data:`PREFETCHERS`); the track prefetcher exploits
the same LVM geometry interface MultiMap maps onto.  A dataset either
has a pool of at least one frame or none (``with_cache(0)`` detaches).
See :mod:`repro.cache.pool` for how it plugs into the §5.2 issue-order
pipeline, and :mod:`repro.cache.sweep` for the hit-ratio-vs-capacity
sweep (``repro-bench cache``, on the shared sweep engine
:mod:`repro.bench.sweep`)::

    from repro import Dataset

    ds = Dataset.create((64, 32, 32), layout="multimap", seed=42)
    ds.with_cache(4096, prefetch="track")
    report = ds.random_beams(axis=1, n=5).repeats(3).run()
    print(ds.cache.stats.hit_ratio)
"""

from repro.cache.policies import LRUPolicy
from repro.cache.pool import BufferPool, CacheStats, expand_plan
from repro.cache.prefetch import (
    PREFETCHERS,
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
    "PREFETCHERS",
    "BufferPool",
    "CacheStats",
    "LRUPolicy",
    "NoPrefetcher",
    "Prefetcher",
    "TrackPrefetcher",
    "expand_plan",
    "overlapping_beams",
    "prefetcher_names",
    "register_prefetcher",
    "render_cache_sweep",
    "run_cache_sweep",
]
