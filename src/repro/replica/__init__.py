"""repro.replica — fault tolerance via k-way declustered replication.

The replica layer makes a sharded dataset survive member-disk failures:
a :class:`ReplicaMap` places each chunk's primary plus k-1 replicas on
distinct member disks through the registered placements of
:data:`PLACEMENTS` (``rotated`` chained declustering, and
``locality_aligned``, which keeps replicas of grid-adjacent chunks
together so degraded-mode reads keep MultiMap's adjacency dividend), the
one storage manager (:class:`~repro.shard.ShardedStorageManager`, which
every dataset runs on with k = 1 by default) routes every per-chunk
sub-plan to a copy chosen by a registered read policy
(:data:`READ_POLICIES`: ``primary`` / ``round_robin`` /
``least_loaded``), and a seeded
:class:`FailureInjector` kills and revives disks deterministically —
reads transparently fail over to surviving replicas, with degraded-mode
accounting and a rebuild model (:func:`plan_rebuild`) that streams a
dead disk's chunks from replicas onto a spare::

    from repro import Dataset
    from repro.replica import FailureInjector, plan_rebuild

    ds = Dataset.create((64, 16, 16), layout="multimap", seed=42)
    ds.with_shards(3).with_replication(2, placement="locality_aligned")
    dead = FailureInjector(3, seed=7).kill(ds.storage)
    report = ds.random_beams(axis=2, n=8).run()   # fails over, degraded
    print(report.meta["replicas"]["stats"]["degraded_queries"])
    print(plan_rebuild(ds.storage, dead).rebuild_ms)

:func:`run_avail_sweep` produces the availability/overhead-vs-k curves
per layout (``repro-bench avail``, on :mod:`repro.bench.sweep`).
"""

from repro.replica.avail import render_avail_sweep, run_avail_sweep
from repro.replica.executor import (
    READ_POLICIES,
    ReadPolicyEntry,
    ReplicaStats,
    SubSource,
    read_policy_names,
    register_read_policy,
)
from repro.replica.failures import (
    FailureEvent,
    FailureInjector,
    FailureSchedule,
)
from repro.replica.map import (
    PLACEMENTS,
    PlacementEntry,
    ReplicaMap,
    placement_names,
    register_placement,
)
from repro.replica.rebuild import (
    RebuildReport,
    interference_profile,
    plan_rebuild,
)

__all__ = [
    "FailureEvent",
    "FailureInjector",
    "FailureSchedule",
    "PLACEMENTS",
    "PlacementEntry",
    "READ_POLICIES",
    "ReadPolicyEntry",
    "RebuildReport",
    "ReplicaMap",
    "ReplicaStats",
    "SubSource",
    "interference_profile",
    "placement_names",
    "plan_rebuild",
    "read_policy_names",
    "register_placement",
    "register_read_policy",
    "render_avail_sweep",
    "run_avail_sweep",
]
