"""repro.shard — multi-disk scale-out via declustered chunk placement.

The shard layer holds the storage manager every dataset runs on: a
:class:`ShardMap` declusters a dataset's chunks across the member disks
of one :class:`~repro.lvm.volume.LogicalVolume` using the registered
strategies of :data:`repro.lvm.striping.STRATEGIES` (``round_robin``,
``disk_modulo``), one registered mapper per chunk copy places its cells
on the owning disk, and the
:class:`ShardedStorageManager` (n disks × k copies; one chunk on one
disk for a plain ``Dataset.create``) services queries scatter-gather —
drives in parallel, per-drive head state preserved, query time =
makespan::

    from repro import Dataset

    ds = Dataset.create((64, 16, 16), layout="multimap", seed=42)
    ds.with_shards(4, strategy="disk_modulo")
    report = ds.random_beams(axis=2, n=8).run()
    print(report.meta["shards"]["stats"]["parallel_efficiency"])

:func:`run_scale_sweep` produces the speedup-vs-disks curves per
layout (``repro-bench scale``, on :mod:`repro.bench.sweep`).
"""

from repro.shard.executor import (
    ShardStats,
    ShardedMapper,
    ShardedStorageManager,
)
from repro.shard.map import ShardMap
from repro.shard.scale import (
    render_scale_sweep,
    run_scale_sweep,
    scale_beams,
)

__all__ = [
    "ShardMap",
    "ShardStats",
    "ShardedMapper",
    "ShardedStorageManager",
    "render_scale_sweep",
    "run_scale_sweep",
    "scale_beams",
]
