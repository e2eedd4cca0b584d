"""The :class:`Dataset` façade — the package's single public entry point.

One object owns the whole stack the paper layers behind its two
interfaces (the LVM adjacency API of §3 and the database storage manager
of §5.1): simulated drives, a :class:`~repro.lvm.volume.LogicalVolume`,
a registered layout's mappers, the storage manager, and (optionally, via
:meth:`Dataset.with_cache`) one :class:`~repro.cache.BufferPool` shared
by every member disk::

    from repro.api import Dataset

    ds = Dataset.create((216, 64, 64), layout="multimap", drive="atlas10k3")
    report = ds.random_beams(axis=1, n=5).run()
    print(report.render_table())

Layouts and drives resolve through :mod:`repro.api.registry`, and every
chunk copy is placed by :func:`~repro.api.registry.build_mapper`.
``with_layout`` clones the dataset under another mapping on a fresh
identical volume — the paper's fairness condition for layout
comparisons.  The §5 figures (:mod:`repro.bench.figures`) run on this
façade, one dataset per layout.

One storage path: every dataset runs on a
:class:`~repro.shard.ShardedStorageManager` of n member disks × k
copies, built in one place (``_build_storage``).  ``create`` is the
1 × 1 case — one chunk spanning the dataset on disk 0 — and
``with_shards`` / ``with_replication`` rebuild the same manager with
more disks (§5.3's chunk-per-disk declustering, queries serviced
scatter-gather) or more copies.  Online updates (§4.6) are exposed
through a lazily created :class:`~repro.core.store.CellStore`
(``insert`` / ``delete`` / ``bulk_load`` / ``reorganize``) on one-disk,
one-chunk datasets.

Determinism: ``Dataset.create(seed=...)`` owns a
:class:`numpy.random.SeedSequence`; every ``run()`` without an explicit
``rng`` draws the next spawned child generator, so repeated batches use
independent streams while a fresh ``Dataset`` with the same seed replays
the identical sequence (and a ``with_layout`` clone sees the same streams
as its parent, keeping cross-layout comparisons fair).
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Iterable

import numpy as np

from repro.api.registry import _WIRED_ARGS, DRIVES, LAYOUTS, DriveEntry
from repro.api.report import Report, make_record
from repro.core.store import CellStore, StoreStats
from repro.disk.models import DiskModel
from repro.errors import (
    DatasetError,
    MappingError,
    QueryError,
    _check_coords,
    _check_count,
    _check_keywords,
    _check_rng,
    _check_shape,
    _keywords,
)
from repro.lvm.volume import LogicalVolume
from repro.query.executor import QueryResult, check_setting
from repro.query.scatter import scatter_batch
from repro.query.scheduler import DEFAULT_WINDOW
from repro.query.workload import (
    BeamQuery,
    RangeQuery,
    check_selectivity,
    random_beam,
    random_range_cube,
)
from repro.replica.executor import ReplicaStats
from repro.shard.executor import ShardStats

__all__ = ["Dataset", "QueryBatch"]


def _resolve_drive(drive) -> tuple[str, object]:
    """Turn a drive spec (registry name, DiskModel, or factory) into a
    ``(display_name, factory)`` pair."""
    if isinstance(drive, tuple) and len(drive) == 2 and callable(drive[1]):
        return str(drive[0]), drive[1]
    if isinstance(drive, str):
        entry: DriveEntry = DRIVES.get(drive)
        return entry.name, lambda: entry.model
    if isinstance(drive, DiskModel):
        return drive.name, lambda: drive
    if callable(drive):
        name = getattr(drive, "__name__", type(drive).__name__)
        return name, drive
    raise DatasetError(
        f"drive must be a registered name, a DiskModel, or a factory; "
        f"got {type(drive).__name__}"
    )


class QueryBatch:
    """A fluent, appendable batch of queries bound to one dataset.

    Entries may be concrete (:class:`BeamQuery` / :class:`RangeQuery`) or
    *lazy* (random beams and random range cubes), in which case the query
    is drawn from the run's generator immediately before it is prepared
    — the same interleaving as the paper's "averaged over runs at random
    locations" methodology: each query, then its head positions, comes
    from the one generator.  The drives service the prepared queries a
    group at a time (:func:`repro.query.scatter.scatter_batch`), with the
    same results as serving each before drawing the next.
    """

    def __init__(self, dataset: Dataset):
        self._dataset = dataset
        self._entries: list[tuple] = []
        self._repeats = 1

    # ------------------------------------------------------------------
    # builders (each returns self for chaining)
    # ------------------------------------------------------------------

    def beam(self, axis: int, fixed=None, lo: int = 0,
             hi: int | None = None) -> "QueryBatch":
        """Append a beam query; ``fixed=None`` draws a random position per
        run (``lo``/``hi`` still bound the span along ``axis``)."""
        if fixed is None:
            self._entries.append(("random_beam", axis, lo, hi))
        else:
            self._entries.append(
                ("query", BeamQuery(axis, tuple(fixed), lo, hi))
            )
        return self

    def random_beams(self, axis: int, n: int = 5) -> "QueryBatch":
        """Append ``n`` random full-length beams along ``axis``."""
        for _ in range(_check_count("n", n)):
            self._entries.append(("random_beam", axis, 0, None))
        return self

    def range(self, lo, hi) -> "QueryBatch":
        """Append the half-open box ``[lo, hi)``."""
        self._entries.append(
            ("query", RangeQuery(tuple(lo), tuple(hi)))
        )
        return self

    def range_selectivity(self, pct: float) -> "QueryBatch":
        """Append a ~``pct``-% cube at a random anchor per run (§5.1);
        ``pct`` is a finite number in (0, 100], not a bool
        (:func:`~repro.query.workload.check_selectivity`)."""
        self._entries.append(("random_range", check_selectivity(pct)))
        return self

    def add(self, queries) -> "QueryBatch":
        """Append pre-built workload query objects."""
        if isinstance(queries, (BeamQuery, RangeQuery)):
            queries = [queries]
        for q in queries:
            if not isinstance(q, (BeamQuery, RangeQuery)):
                raise QueryError(
                    f"unknown query type {type(q).__name__}"
                )
            self._entries.append(("query", q))
        return self

    def repeats(self, n: int) -> "QueryBatch":
        """Execute the whole batch ``n`` times (lazy entries redraw)."""
        self._repeats = _check_count("repeats", n)
        return self

    def __len__(self) -> int:
        return len(self._entries)

    def bound_to(self, dataset: "Dataset") -> "QueryBatch":
        """A copy of this batch bound to another dataset (shapes must
        match so every stored query stays in bounds)."""
        if dataset.shape != self._dataset.shape:
            raise QueryError(
                f"batch built for shape {self._dataset.shape} cannot run "
                f"on shape {dataset.shape}"
            )
        clone = QueryBatch(dataset)
        clone._entries = list(self._entries)
        clone._repeats = self._repeats
        return clone

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def run(self, *, rng: np.random.Generator | None = None,
            repeats: int | None = None) -> Report:
        """Execute the batch and return a :class:`Report`.

        Without ``rng``, the dataset's seed sequence provides the next
        child generator.  One generator drives both lazy query positions
        and the randomised initial head position of every execution.
        An ``rng`` that is not a :class:`numpy.random.Generator` raises
        :class:`~repro.errors.QueryError`.
        """
        ds = self._dataset
        _check_rng(rng)
        if rng is None:
            rng = ds.rng()
        n_rep = (self._repeats if repeats is None
                 else _check_count("repeats", repeats))
        storage = ds.storage
        n_disks = storage.shard_map.n_disks
        shards, replicas = ShardStats(n_disks), ReplicaStats(n_disks)
        queries, results = [], []

        def prepared():
            # each query is drawn and prepared only once the one before
            # it has drawn its head positions: one generator feeds both
            for rep in range(n_rep):
                for entry in self._entries:
                    kind = entry[0]
                    if kind == "query":
                        q = entry[1]
                    elif kind == "random_beam":
                        _, axis, lo, hi = entry
                        q = random_beam(ds.shape, axis, rng)
                        if lo != 0 or hi is not None:
                            q = BeamQuery(q.axis, q.fixed, lo, hi)
                    else:  # random_range
                        q = random_range_cube(ds.shape, entry[1], rng)
                    queries.append((q, rep))
                    p = storage.prepare(q)
                    replicas.record_query(p)
                    yield p

        def gather(result: QueryResult, per_disk: dict) -> None:
            shards.record(per_disk, result.total_ms)
            results.append(result)

        scatter_batch(storage, prepared(), gather, rng=rng)
        records = [make_record(q, res, rep)
                   for (q, rep), res in zip(queries, results)]
        meta = {"repeats": n_rep, "seed": ds.seed}
        if ds.cache is not None:
            # pool-LIFETIME cumulative snapshot taken after the batch —
            # earlier batches on the same dataset are included (call
            # ds.cache.reset_stats() first to scope stats to one batch);
            # absent on uncached runs so their report JSON stays
            # bit-identical to pre-cache
            meta["cache"] = ds.cache.describe()
        if ds.n_shards > 1:
            # this run's per-shard gather totals; gated on > 1 so
            # single-disk reports keep their JSON layout
            meta["shards"] = storage.describe_shards(shards)
        if ds.replication_k > 1:
            # copy placement, failed disks and this run's routing totals
            # (failovers, degraded queries); gated on k > 1 so
            # single-copy reports keep their JSON layout
            meta["replicas"] = storage.describe_replicas(replicas)
        tele = storage.obs
        if tele is not None:
            # telemetry-LIFETIME totals (spans and metrics accumulate
            # across batches; ds.telemetry.reset() scopes them); gated
            # on attachment so detached report JSON is untouched
            meta["obs"] = tele.describe()
        return Report(
            records=tuple(records),
            layout=ds.layout,
            drive=ds.drive_name,
            shape=ds.shape,
            meta=meta,
        )


class Dataset:
    """A placed multidimensional dataset: drive + volume + mapper +
    storage manager behind one object.  Use :meth:`create`."""

    def __init__(self, *, shape, layout, drive, cell_blocks=1, depth=None,
                 seed=None, window=DEFAULT_WINDOW, layout_opts=None):
        # checked now: the storage manager that owns these settings is
        # only built on first use
        self.shape = _check_shape(shape)
        self.layout = str(layout)
        self.cell_blocks = check_setting("cell_blocks", cell_blocks)
        self.window = check_setting("window", window)
        self.depth = (None if depth is None
                      else _check_count("depth", depth, DatasetError))
        self.seed = (None if seed is None
                     else _check_count("seed", seed, DatasetError, low=0))
        self.layout_opts = dict(layout_opts or {})
        self.drive_name, self._drive_factory = _resolve_drive(drive)
        self._layout_entry = LAYOUTS.get(self.layout)
        _check_keywords(
            f"{self.layout} layout", self.layout_opts,
            _keywords(self._layout_entry.cls) - _WIRED_ARGS, MappingError,
        )

        self.volume = LogicalVolume([self._drive_factory()],
                                    depth=self.depth)
        # the storage manager is built lazily (see the property below):
        # a dataset that is immediately re-sharded or re-laid-out never
        # pays for a whole-grid placement it would throw away.  Until
        # then, attached pools and telemetry wait here for the build.
        self._storage = None
        self._unbuilt = SimpleNamespace(cache=None, obs=None)
        self._cache_spec: dict | None = None
        self._shard_spec: dict | None = None
        self._replica_spec: dict | None = None
        self._seedseq = (
            None if seed is None else np.random.SeedSequence(seed)
        )
        self._store: CellStore | None = None
        self._store_opts: dict = {}
        self._ingest_spec: dict | None = None
        self._obs_spec: dict | None = None

    @classmethod
    def create(cls, shape, layout: str = "multimap",
               drive="atlas10k3", *, cell_blocks: int = 1,
               depth: int | None = None, seed=None,
               window: int = DEFAULT_WINDOW,
               **layout_opts) -> "Dataset":
        """Build the full stack for ``shape`` under a registered layout.

        ``depth`` pins the adjacency depth D; the default ``None`` uses
        the drive's native settle region, which is 128 on both paper
        drives — exactly the value the paper's prototype pins — while
        small test/toy disks get their own maximum instead of an
        out-of-range error.
        ``cell_blocks`` is the LBNs per cell (§5.2 maps one cell to one
        512-byte block), and ``**layout_opts`` pass through to the mapper
        (e.g. MultiMap's ``strategy=`` / ``zones=``); a keyword the
        layout's mapper does not take raises
        :class:`~repro.errors.MappingError` here, before anything is
        built.
        ``window`` is the drive command-queue depth for SPTF batches
        (see :class:`~repro.query.executor.StorageManager`); the §5.2
        conventions' other two numbers are fixed
        (:data:`~repro.query.scheduler.SPTF_RUN_LIMIT`,
        :data:`~repro.query.scheduler.COALESCE_GAP_BLOCKS`).
        ``window`` and ``cell_blocks`` must be integers of at least 1,
        checked before any drive or volume is built: a bad one raises
        :class:`~repro.errors.QueryError`, or
        :class:`~repro.errors.MappingError` for ``cell_blocks``.
        ``shape`` must be a non-empty sequence of integers of at least 1
        each (not bools), ``depth`` None or an integer of at least 1 and
        ``seed`` None or an integer of at least 0 (numpy integers
        included, bools not), checked at the same point; a bad one
        raises :class:`~repro.errors.DatasetError`.
        """
        return cls(
            shape=shape, layout=layout, drive=drive,
            cell_blocks=cell_blocks, depth=depth, seed=seed,
            window=window, layout_opts=layout_opts,
        )

    @property
    def storage(self):
        """The storage manager: n member disks × k copies, 1 × 1 until
        :meth:`with_shards` / :meth:`with_replication` (built on first
        use; the allocation lands on the fresh volume exactly as an
        eager build would, so lazy construction is placement-identical).
        """
        if self._storage is None:
            from repro.shard import ShardMap

            self._storage = self._build_storage(
                self.volume, ShardMap.build(self.shape, 1)
            )
        return self._storage

    def _stack(self):
        """Where ``cache``/``obs`` live: the built storage manager, or
        the holder they wait in until the lazy build."""
        return self._unbuilt if self._storage is None else self._storage

    def _build_storage(self, volume, shard_map, k: int = 1):
        """Construct the storage manager — the one place every
        configuration's manager is built — carrying over the attached
        pool and telemetry (the SAME Telemetry object rides onto the new
        manager, so recordings span reconfiguration)."""
        from repro.shard import ShardedStorageManager

        stack = self._stack()
        storage = ShardedStorageManager(
            volume, shard_map, self._layout_entry, k=k,
            cell_blocks=self.cell_blocks, window=self.window,
            cache=stack.cache, layout_opts=self.layout_opts,
        )
        storage.obs = stack.obs
        return storage

    @property
    def mapper(self):
        """The placed mapper: the cell mapper of a one-chunk dataset,
        the :class:`~repro.shard.ShardedMapper` over its chunk mappers
        otherwise."""
        sharded = self.storage.mapper
        chunk_mappers = sharded.chunk_mappers
        return chunk_mappers[0] if len(chunk_mappers) == 1 else sharded

    # ------------------------------------------------------------------
    # cloning
    # ------------------------------------------------------------------

    def with_layout(self, layout: str, **layout_opts) -> "Dataset":
        """The same dataset under another registered mapping.

        A fresh, identical volume is built from the same drive factory so
        both layouts occupy the same LBN region of identical disks — the
        fairness condition of the paper's evaluation.  The clone carries
        the parent's seed, so unseeded ``run()`` calls see the same
        generator sequence on both objects, and the parent's
        :meth:`configure_store` options, so update experiments stay
        comparable (the store's *contents* are not copied — each layout
        starts from the same empty placement).
        """
        clone = Dataset(
            shape=self.shape, layout=layout,
            drive=(self.drive_name, self._drive_factory),
            cell_blocks=self.cell_blocks,
            depth=self.depth, seed=self.seed, window=self.window,
            layout_opts=layout_opts,
        )
        clone._store_opts = dict(self._store_opts)
        if self._ingest_spec is not None:
            # same ingest spec (stream/loader/knobs) on the clone, so
            # per-layout ingest comparisons share their write workload
            clone._ingest_spec = dict(self._ingest_spec)
        if self._shard_spec is not None:
            # same declustering on a fresh identical multi-disk volume;
            # seeding the replica spec first lets with_shards build the
            # replicated manager once, through _rebuild (which also
            # re-attaches the cache spec)
            if self._replica_spec is not None:
                clone._replica_spec = dict(self._replica_spec)
            clone.with_shards(**self._shard_spec)
        if self._cache_spec is not None:
            # same cache configuration, fresh private pool: layouts
            # compete on placement, not on each other's cache contents
            clone.with_cache(**self._cache_spec)
        if self._obs_spec is not None:
            # same telemetry configuration, fresh private tracer: each
            # layout's spans and metrics are its own recording
            clone.with_telemetry(**self._obs_spec)
        return clone

    # ------------------------------------------------------------------
    # sharding (scale-out across member disks)
    # ------------------------------------------------------------------

    def with_shards(self, n_shards: int, strategy: str = "disk_modulo",
                    *, chunk_shape=None) -> "Dataset":
        """Decluster the dataset across ``n_shards`` identical member
        disks (chainable).

        The volume is rebuilt with ``n_shards`` drives from the same
        factory, a :class:`~repro.shard.ShardMap` assigns each chunk a
        disk via the strategy registered as ``strategy``
        (:data:`repro.lvm.striping.STRATEGIES`: ``round_robin``,
        ``disk_modulo``; any other value, a non-string included, raises
        :class:`~repro.errors.RegistryError` with the dataset
        unchanged), and queries execute scatter-gather (per-disk
        sub-plans in parallel, query time = makespan over drives).
        ``chunk_shape`` overrides the default last-axis slab chunking.
        An unsharded dataset is the 1-disk case of the same storage
        manager, so ``with_shards(1)`` changes nothing but
        :attr:`is_sharded`.  An attached replication or
        cache spec is re-applied on the new disk count (a fresh pool).
        Online updates are not available on sharded datasets.
        """
        from repro.lvm.striping import STRATEGIES
        from repro.shard import ShardMap

        self._check_rebuild("with_shards", "shard")
        n = _check_count("n_shards", n_shards, DatasetError)
        # build the whole new stack in locals and commit only once
        # everything validated: a failed call (unknown strategy, bad
        # chunk shape, too few disks for k, exhausted volume) must leave
        # the dataset intact
        STRATEGIES.get(strategy)
        shard_map = ShardMap.build(
            self.shape, n, strategy, chunk_shape=chunk_shape
        )
        k = self.replication_k
        self._validate_replica_k(k, n)
        self._rebuild(shard_map, k)
        # record the RESOLVED chunk shape (chunk 0 is always full-size),
        # so with_layout clones rebuild the identical chunk grid — the
        # fairness condition for cross-layout comparisons
        self._shard_spec = dict(
            n_shards=n, strategy=strategy,
            chunk_shape=shard_map.chunks[0].shape,
        )
        return self

    # ------------------------------------------------------------------
    # replication (fault tolerance across member disks)
    # ------------------------------------------------------------------

    def with_replication(self, k: int) -> "Dataset":
        """Keep ``k`` copies of every chunk on distinct member disks
        (chainable; shard first).

        The storage manager is rebuilt with ``k`` copies: copy 0 of
        every chunk stays exactly where :meth:`with_shards` placed it
        (replica mappers allocate after every primary), copy r of a
        chunk whose primary is disk d lives on disk (d + r) mod n
        (chained declustering, :meth:`repro.replica.ReplicaMap.build`),
        and every read goes to the lowest copy on a live disk.
        Killing a member disk (``storage.fail_disk`` between queries,
        :meth:`TrafficRun.kill <repro.api.traffic.TrafficRun.kill>` in
        a storm) transparently diverts reads to surviving copies.
        Every dataset already holds one copy, so
        ``with_replication(1)`` changes nothing but
        :attr:`is_replicated`.
        """
        self._check_rebuild("with_replication", "replicate")
        if self._shard_spec is None:
            raise DatasetError(
                "with_replication needs a sharded dataset; call "
                "with_shards(n) first (n >= k member disks)"
            )
        k = _check_count("k", k, DatasetError)
        self._validate_replica_k(k, int(self._shard_spec["n_shards"]))
        self._rebuild(self.storage.shard_map, k)
        self._replica_spec = dict(k=k)
        return self

    def _check_rebuild(self, method: str, verb: str) -> None:
        """Refuse a rebuild that would silently drop state: the cell
        store, or a pool wired by hand into ``storage.cache`` (which
        cannot be re-instantiated for a new volume — dropping it would
        run the experiment uncached)."""
        if self._store is not None:
            raise DatasetError(
                f"cannot {verb} after the cell store was created"
            )
        if self._stack().cache is not None and self._cache_spec is None:
            raise DatasetError(
                f"{method} rebuilds the storage manager and cannot carry "
                f"a hand-wired pool; {verb} first, then set storage.cache "
                f"(or use with_cache)"
            )

    def _rebuild(self, shard_map, k: int) -> None:
        """Build the manager for ``shard_map`` with ``k`` copies on a
        fresh identical volume, then commit it (and a fresh pool for the
        cache spec)."""
        volume = LogicalVolume(
            [self._drive_factory() for _ in range(shard_map.n_disks)],
            depth=self.depth,
        )
        storage = self._build_storage(volume, shard_map, k)
        self.volume = volume
        self._storage = storage
        if self._cache_spec is not None:
            # a fresh pool sized by the same spec on the new stack
            self.with_cache(**self._cache_spec)

    @staticmethod
    def _validate_replica_k(k: int, n: int) -> None:
        """Shared k-vs-disk-count check (with_replication and
        with_shards both gate on it *before* mutating)."""
        if k > n:
            raise DatasetError(
                f"k={k} copies need at least k member disks; the "
                f"dataset has {n} (with_shards({k}) or more first)"
            )

    @property
    def replication_k(self) -> int:
        """Copies per chunk (1 until :meth:`with_replication`)."""
        return 1 if self._replica_spec is None else int(
            self._replica_spec["k"]
        )

    @property
    def is_replicated(self) -> bool:
        return self._replica_spec is not None

    @property
    def replica_map(self):
        """The chunk-copy placement, or ``None`` when unreplicated."""
        return (
            None if self._replica_spec is None
            else self.storage.replica_map
        )

    @property
    def n_shards(self) -> int:
        """Member-disk count (1 until :meth:`with_shards`)."""
        return 1 if self._shard_spec is None else int(
            self._shard_spec["n_shards"]
        )

    @property
    def is_sharded(self) -> bool:
        return self._shard_spec is not None

    @property
    def shard_map(self):
        """The chunk-to-disk placement, or ``None`` when unsharded."""
        return None if self._shard_spec is None else self.storage.shard_map

    # ------------------------------------------------------------------
    # caching
    # ------------------------------------------------------------------

    def with_cache(self, capacity_blocks: int,
                   prefetch: str = "none") -> "Dataset":
        """Attach a fresh :class:`~repro.cache.BufferPool` (chainable).

        One pool of ``capacity_blocks`` frames spans every member disk
        (one host-side DRAM pool); ``with_shards`` and
        ``with_replication`` re-instantiate it on the new disks, and
        ``with_layout`` clones carry the same spec with a private pool,
        keeping layout comparisons fair.  ``capacity_blocks == 0`` (the
        default state) detaches any pool: queries then run exactly as on
        a dataset that never had one.  The pool evicts the least
        recently used block; ``prefetch`` is a name registered in
        :data:`~repro.cache.PREFETCHERS`, checked on every call, so a
        typo in a sweep's capacity-0 baseline fails loudly instead of
        running uncached.
        """
        capacity_blocks = _check_count("capacity_blocks", capacity_blocks,
                                       DatasetError, low=0)
        from repro.cache import BufferPool
        from repro.cache.prefetch import make_prefetcher

        if not capacity_blocks:
            # no pool is built, but the name is checked all the same
            make_prefetcher(prefetch)
            self._cache_spec = None
            self._stack().cache = None
            return self
        # construct the pool before committing the spec, so a rejected
        # configuration leaves the dataset (and its describe()) unchanged
        pool = BufferPool(capacity_blocks, prefetch)
        self._cache_spec = dict(capacity_blocks=capacity_blocks,
                                prefetch=prefetch)
        self._stack().cache = pool
        return self

    @property
    def cache(self):
        """The attached buffer pool, or ``None``."""
        return self._stack().cache

    # ------------------------------------------------------------------
    # telemetry (repro.obs) — per-query tracing and metrics
    # ------------------------------------------------------------------

    def with_telemetry(self, trace: bool = True,
                       metrics: bool = True) -> "Dataset":
        """Attach a fresh :class:`~repro.obs.Telemetry` (chainable).

        ``trace`` records one deterministic span tree per query (phases:
        prepare, cache, per-disk service with seek/rotate/transfer
        attribution, ingest flush, failover, reorganisation);
        ``metrics`` accumulates counters and latency histograms;
        ``ds.telemetry.export()`` renders the spans as Chrome trace
        JSON.  ``trace=False, metrics=False`` detaches — the default
        state, in which every result and report is bit-identical to a
        build without telemetry (the same parity guarantee
        ``with_cache(0)`` gives).  The handle survives
        :meth:`with_shards`/:meth:`with_replication` rebuilds, and
        :meth:`with_layout` clones carry the spec with a private
        recording.
        """
        if not trace and not metrics:
            self._obs_spec = None
            self._stack().obs = None
            return self
        from repro.obs import Telemetry

        self._stack().obs = Telemetry(trace=trace, metrics=metrics)
        self._obs_spec = dict(trace=bool(trace), metrics=bool(metrics))
        return self

    @property
    def telemetry(self):
        """The attached :class:`~repro.obs.Telemetry`, or ``None``."""
        return self._stack().obs

    # ------------------------------------------------------------------
    # fluent queries
    # ------------------------------------------------------------------

    def query(self) -> QueryBatch:
        """An empty fluent batch bound to this dataset."""
        return QueryBatch(self)

    def beam(self, axis: int, fixed=None, lo: int = 0,
             hi: int | None = None) -> QueryBatch:
        return self.query().beam(axis, fixed, lo, hi)

    def random_beams(self, axis: int, n: int = 5) -> QueryBatch:
        return self.query().random_beams(axis, n)

    def range(self, lo, hi) -> QueryBatch:
        return self.query().range(lo, hi)

    def range_selectivity(self, pct: float) -> QueryBatch:
        return self.query().range_selectivity(pct)

    def traffic(self) -> "TrafficRun":
        """An empty fluent traffic run bound to this dataset (the
        concurrent analogue of :meth:`query`); see
        :class:`repro.api.traffic.TrafficRun`."""
        from repro.api.traffic import TrafficRun

        return TrafficRun(self)

    # ------------------------------------------------------------------
    # streaming ingest (repro.ingest) — the write path at scale
    # ------------------------------------------------------------------

    def with_ingest(self, stream="uniform", loader: str = "fixed",
                    **opts) -> "Dataset":
        """Attach a streaming-ingest spec (chainable).

        ``stream`` and ``loader`` are names in the
        :data:`repro.ingest.STREAMS` / :data:`repro.ingest.LOADERS`
        registries: a stream that is not a string raises
        :class:`DatasetError`, an unknown stream or any loader that is
        not a registered name :class:`~repro.errors.RegistryError`.  The
        other keywords are the run options of :meth:`ingest`
        (``n_points``, ``batch_points``, ``flush_points``, ``seed``,
        ``reorganize``, ``loader_opts``) and the stream's own
        (``n_clusters``, ``spread``), and become the defaults of its
        runs.  The whole spec is checked now, as a run built from it
        alone checks it (:class:`~repro.api.ingest.IngestRun`), so a
        typo'd sweep cell fails where it is written: a bad option raises
        :class:`~repro.errors.IngestError` and the dataset keeps its
        previous spec.  The spec is carried through :meth:`with_layout`
        clones — like the cache spec — so per-layout ingest comparisons
        share their write workload, and it survives :meth:`with_shards`
        / :meth:`with_replication` (which mutate in place).
        """
        from repro.api.ingest import IngestRun
        from repro.ingest import LOADERS, STREAMS

        if not isinstance(stream, str):
            raise DatasetError(
                f"stream must be a registered name, got "
                f"{type(stream).__name__}"
            )
        STREAMS.get(stream)
        LOADERS.get(loader)
        spec = dict(stream=stream, loader=loader, **opts)
        IngestRun(self, spec)
        self._ingest_spec = spec
        return self

    def ingest(self, **overrides) -> "IngestRun":
        """A fluent streaming-ingest run bound to this dataset (the
        write-path analogue of :meth:`query`); see
        :class:`repro.api.ingest.IngestRun`.  Keyword overrides layer on
        top of any :meth:`with_ingest` spec."""
        from repro.api.ingest import IngestRun

        return IngestRun(self, {**(self._ingest_spec or {}), **overrides})

    def run(self, queries: Iterable | QueryBatch | None = None, *,
            repeats: int | None = None,
            rng: np.random.Generator | None = None) -> Report:
        """Execute a batch (or pre-built workload queries) → Report.

        ``repeats=None`` defers to the batch's own ``.repeats(n)`` setting
        (1 when unset); an explicit value overrides it.  A batch built on
        another dataset of the same shape is rebound to *this* dataset,
        so ``clone.run(batch)`` times the clone's layout.
        """
        if isinstance(queries, QueryBatch):
            if queries._dataset is not self:
                queries = queries.bound_to(self)
            return queries.run(rng=rng, repeats=repeats)
        batch = self.query()
        if queries is not None:
            batch.add(queries)
        return batch.run(rng=rng, repeats=repeats)

    def explain(self, query, *, analyze: bool = False) -> dict:
        """EXPLAIN (and optionally ANALYZE) one query on this dataset.

        EXPLAIN is static and side-effect-free: the plan is prepared
        against ghost state (live drives, cache policy/stats and replica
        routing counters are all left untouched) and
        its run structure, access-pattern classification, predicted
        mechanical cost, expected cache hits, shard fan-out, and
        replica routing are returned as a JSON-friendly dict.  With
        ``analyze=True`` the query is then executed once for real —
        drives move and the cache warms, as a normal ``run()`` would —
        under a private trace, adding ``measured`` and
        ``reconciliation`` (the predicted-vs-measured model-error
        report).  See :mod:`repro.explain`.
        """
        from repro.explain import analyze_query, explain_query

        data = explain_query(self, query)
        if analyze:
            measured, reconciliation = analyze_query(
                self, query, data["predicted"]
            )
            data["measured"] = measured
            data["reconciliation"] = reconciliation
        return data

    # ------------------------------------------------------------------
    # updates (§4.6) — CellStore behind the same object
    # ------------------------------------------------------------------

    def configure_store(self, **store_opts) -> "Dataset":
        """Set :class:`CellStore` options (``points_per_cell``,
        ``fill_factor``, ``reclaim_threshold``, ``max_overflow_pages``)
        before first use; returns ``self`` for chaining."""
        if self._store is not None:
            raise DatasetError("cell store already created")
        self._store_opts = dict(store_opts)
        return self

    def _store_mapper(self):
        """The cell-level mapper updates run against.

        Datasets declustered over several member disks — or chunked
        into several pieces even on one disk — have no single cell
        mapper, so updates are gated; a one-disk dataset whose *lone*
        chunk spans the whole dataset updates through that chunk's
        mapper, so un-sharding back to 1 restores update support.
        """
        chunk_mappers = self.storage.mapper.chunk_mappers
        if self.n_shards > 1 or len(chunk_mappers) > 1:
            raise DatasetError(
                "online updates (CellStore) are not supported on "
                "sharded datasets; stream writes through "
                "Dataset.ingest() instead"
            )
        return chunk_mappers[0]

    @property
    def store(self) -> CellStore:
        """The lazily created cell store (default options unless
        :meth:`configure_store` ran first)."""
        if self._store is None:
            self._store = CellStore(
                self._store_mapper(), self.volume, **self._store_opts
            )
        return self._store

    def _invalidate_cell_blocks(self, cell_coord) -> None:
        """Write-invalidate the cache frames of one cell's home blocks."""
        if self.cache is None:
            return
        mapper = self._store.mapper
        first = int(mapper.lbns(np.asarray([cell_coord],
                                           dtype=np.int64))[0])
        self.cache.invalidate(
            mapper.disk_index,
            np.arange(first, first + self.cell_blocks, dtype=np.int64),
        )

    def bulk_load(self, coords, counts=None) -> int:
        store = self.store  # resolve (and gate sharded) before clearing
        # mass (re)placement: anything cached may now be stale
        if self.cache is not None:
            self.cache.clear()
        return store.bulk_load(coords, counts)

    def insert(self, cell_coord, n: int = 1) -> str:
        # the store validates before it changes anything; only then
        # drop the cell's cached frames
        where = self.store.insert(cell_coord, n)
        self._invalidate_cell_blocks(cell_coord)
        return where

    def delete(self, cell_coord, n: int = 1) -> None:
        self.store.delete(cell_coord, n)
        self._invalidate_cell_blocks(cell_coord)

    @property
    def needs_reorganization(self) -> bool:
        return self.store.needs_reorganization

    def reorganize(self) -> int:
        """§4.6 reorganisation; relocation frees and reuses LBNs, so an
        attached pool is cleared rather than served stale frames."""
        moved = self.store.reorganize()
        if self.cache is not None:
            self.cache.clear()
        return moved

    def store_stats(self) -> StoreStats:
        return self.store.stats()

    def read_cells(self, coords, *,
                   rng: np.random.Generator | None = None) -> QueryResult:
        """Fetch specific cells (including any overflow chains);
        ``coords`` is one cell or a list of cells, checked as every
        coordinate entry point checks them (a bad one raises
        :class:`~repro.errors.QueryError`)."""
        _check_rng(rng)
        coords = _check_coords(coords, self.shape)
        plan = self.store.read_plan(coords)
        if rng is None:
            rng = self.rng()
        return self.storage.execute_plan(
            self._store.mapper, plan, coords.shape[0], rng=rng
        )

    # ------------------------------------------------------------------
    # seeding
    # ------------------------------------------------------------------

    def rng(self) -> np.random.Generator:
        """The next child generator of this dataset's seed sequence.

        Seeded datasets spawn children via ``SeedSequence.spawn`` — each
        call yields an independent, reproducible stream; unseeded datasets
        return fresh OS entropy.  Every ``run()`` without an explicit
        ``rng=`` draws from here.
        """
        if self._seedseq is None:
            return np.random.default_rng()
        return np.random.default_rng(self._seedseq.spawn(1)[0])

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    @property
    def n_cells(self) -> int:
        return self.mapper.n_cells

    def describe(self) -> dict:
        """JSON-friendly summary of the wiring."""
        out = {
            "shape": list(self.shape),
            "layout": self.layout,
            "layout_opts": dict(self.layout_opts),
            "drive": self.drive_name,
            "cell_blocks": self.cell_blocks,
            "depth": self.depth,
            "seed": self.seed,
            "n_cells": self.n_cells,
        }
        if self._cache_spec is not None:
            # gated so uncached datasets keep the pre-cache JSON layout
            from repro.cache import LRUPolicy

            out["cache"] = dict(
                capacity_blocks=self._cache_spec["capacity_blocks"],
                policy=LRUPolicy.name,
                prefetch=self._cache_spec["prefetch"],
            )
        if self.n_shards > 1:
            # gated on > 1: a one-disk dataset reports as a plain one
            # (it runs identically, the one-storage-path guarantee)
            out["shards"] = self.storage.shard_map.describe()
        if self.replication_k > 1:
            # gated on k > 1: every dataset holds one copy unless
            # replicated
            from repro.replica import PLACEMENT, READ_POLICY

            out["replicas"] = dict(k=self.replication_k,
                                   placement=PLACEMENT,
                                   read_policy=READ_POLICY)
        if self._obs_spec is not None:
            # gated so detached datasets keep the pre-obs JSON layout
            out["obs"] = dict(self._obs_spec)
        if self._ingest_spec is not None:
            # gated so read-only datasets keep the pre-ingest JSON layout
            out["ingest"] = {
                k: (v if isinstance(v, (str, int, float, bool, type(None)))
                    else str(v))
                for k, v in self._ingest_spec.items()
            }
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Dataset(shape={self.shape}, layout={self.layout!r}, "
            f"drive={self.drive_name!r})"
        )
