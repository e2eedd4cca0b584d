"""repro.replica — fault tolerance via k-way declustered replication.

The replica layer makes a sharded dataset survive member-disk failures:
a :class:`ReplicaMap` places each chunk's primary plus k-1 replicas on
distinct member disks by chained declustering (copy r on disk
``(primary + r) mod n``, :data:`PLACEMENT`), and the one storage manager
(:class:`~repro.shard.ShardedStorageManager`, which every dataset runs
on with k = 1 by default) routes every per-chunk sub-plan to the lowest
copy on a live disk (:data:`READ_POLICY`).  A disk fails between
queries through ``storage.fail_disk`` / ``revive_disk``, or mid-storm
through :meth:`TrafficRun.kill <repro.api.traffic.TrafficRun.kill>` (a
:class:`FailureSchedule` of :class:`FailureEvent` s) — reads
transparently fail over to surviving replicas, with degraded-mode
accounting and a rebuild model (:func:`plan_rebuild`) that streams a
dead disk's chunks from replicas onto a spare::

    from repro import Dataset
    from repro.replica import plan_rebuild

    ds = Dataset.create((64, 16, 16), layout="multimap", seed=42)
    ds.with_shards(3).with_replication(2)
    ds.storage.fail_disk(1)
    report = ds.random_beams(axis=2, n=8).run()   # fails over, degraded
    print(report.meta["replicas"]["stats"]["degraded_queries"])
    print(plan_rebuild(ds.storage, 1).rebuild_ms)

:func:`run_avail_sweep` produces the availability/overhead-vs-k curves
per layout (``repro-bench avail``, on :mod:`repro.bench.sweep`).
"""

from repro.replica.avail import render_avail_sweep, run_avail_sweep
from repro.replica.executor import READ_POLICY, ReplicaStats, SubSource
from repro.replica.failures import FailureEvent, FailureSchedule
from repro.replica.map import PLACEMENT, ReplicaMap
from repro.replica.rebuild import (
    RebuildReport,
    interference_profile,
    plan_rebuild,
)

__all__ = [
    "FailureEvent",
    "FailureSchedule",
    "PLACEMENT",
    "READ_POLICY",
    "RebuildReport",
    "ReplicaMap",
    "ReplicaStats",
    "SubSource",
    "interference_profile",
    "plan_rebuild",
    "render_avail_sweep",
    "run_avail_sweep",
]
