"""Micro-benchmarks: raw throughput of the library's hot paths.

These time the *implementation* (cells mapped per second, runs serviced
per second), unlike the figure benches which report simulated I/O time.
"""

import numpy as np
import pytest

from repro.api import Dataset
from repro.core import MultiMapMapper
from repro.disk import DiskDrive, atlas_10k3
from repro.disk.drive import PREPARED_SCALAR_RUNS, SCALAR_RUNS
from repro.lvm import Extent, LogicalVolume
from repro.mappings import (
    GrayMapper,
    HilbertMapper,
    NaiveMapper,
    ZOrderMapper,
)
from repro.mappings.base import enumerate_box
from repro.query.workload import (
    random_beam,
    random_range_cube,
    range_for_selectivity,
)
from repro.traffic import QueryMix

DIMS = (128, 64, 64)
N = int(np.prod(DIMS))


@pytest.fixture(scope="module")
def coords():
    return enumerate_box((0, 0, 0), DIMS)


def _mapper(cls):
    vol = LogicalVolume([atlas_10k3()], depth=128)
    if cls is MultiMapMapper:
        return MultiMapMapper(DIMS, vol)
    return cls(DIMS, vol.allocate_blocks(0, N))


@pytest.mark.parametrize(
    "cls", [NaiveMapper, ZOrderMapper, HilbertMapper, MultiMapMapper]
)
def test_cell_mapping_throughput(benchmark, cls, coords):
    mapper = _mapper(cls)
    if hasattr(mapper, "rank_table"):
        mapper.rank_table()  # exclude the one-time table build
    out = benchmark(mapper.lbns, coords)
    assert out.shape == (N,)


def test_drive_sorted_batch_throughput(benchmark):
    drive = DiskDrive(atlas_10k3())
    rng = np.random.default_rng(0)
    starts = np.sort(rng.choice(10_000_000, size=100_000, replace=False))
    lengths = np.full(100_000, 4, dtype=np.int64)

    def run():
        drive.reset()
        return drive.service_runs(starts, lengths, policy="sorted")

    res = benchmark(run)
    assert res.n_requests == 100_000


def _beam_batch(n: int = 11):
    """``n`` one-block runs, one per track, each a track length past the
    last (MultiMap's semi-sequential path, §5.2), in path order; 11 is
    failover-storm's median drive batch."""
    model = atlas_10k3()
    spt = model.geometry.track_length(0)
    starts = 4_321 + spt * np.arange(n, dtype=np.int64)
    return model, starts, np.ones(n, dtype=np.int64)


@pytest.mark.parametrize("policy", ["fifo", "sorted"])
def test_drive_small_batch_fixed_cost(benchmark, policy):
    """What a small batch pays per call: preparation, seek vector, the
    recurrence and the totals.  ``sorted`` gets the path reversed, so
    its sort has work to do."""
    model, starts, lengths = _beam_batch()
    if policy == "sorted":
        starts = starts[::-1].copy()
    drive = DiskDrive(model)
    res = benchmark(drive.service_runs, starts, lengths, policy=policy)
    assert res.n_requests == 11 and res.n_blocks == 11


@pytest.mark.parametrize("policy", ["fifo", "sorted"])
@pytest.mark.parametrize("n", [40, 64])
def test_drive_batch_near_threshold(benchmark, n, policy):
    """The same path batch on either side of ``PREPARED_SCALAR_RUNS``,
    prepared by ``prepare_batches`` as a ``Dataset.run`` batch's
    sub-plans are: 40 runs take the scalar pass, 64 the numpy
    preparation.  (Serviced on its own, a batch of ``SCALAR_RUNS``, 64,
    runs still takes the scalar pass.)"""
    assert (n <= PREPARED_SCALAR_RUNS) == (n == 40) and SCALAR_RUNS == 64
    model, starts, lengths = _beam_batch(n)
    if policy == "sorted":
        starts = starts[::-1].copy()
    drive = DiskDrive(model)

    def run():
        batch, = drive.prepare_batches([(starts, lengths, policy)])
        return drive.service_runs(starts, lengths, policy=policy,
                                  prepared=batch)

    res = benchmark(run)
    assert res.n_requests == n and res.n_blocks == n


def test_drive_service_call_fixed_cost(benchmark):
    """One ``service()`` call: a one-run fifo batch."""
    model, starts, _ = _beam_batch()
    drive = DiskDrive(model)
    timing = benchmark(drive.service, int(starts[0]), 1)
    assert timing.transfer_ms > 0


def test_drive_sptf_batch_throughput(benchmark):
    drive = DiskDrive(atlas_10k3())
    rng = np.random.default_rng(0)
    starts = np.sort(rng.choice(1_000_000, size=3_000, replace=False))
    lengths = np.ones(3_000, dtype=np.int64)

    def run():
        drive.reset()
        return drive.service_runs(
            starts, lengths, policy="sptf", window=128
        )

    res = benchmark(run)
    assert res.n_requests == 3_000


def test_drive_sptf_range_plan_throughput(benchmark):
    """The batch shape SPTF serves in practice: a MultiMap range plan,
    semi-sequential runs on adjacent tracks, at the storage window."""
    mapper = _mapper(MultiMapMapper)
    shape = range_for_selectivity(DIMS, 1.0)
    lo = tuple((d - w) // 2 for d, w in zip(DIMS, shape))
    plan = mapper.range_plan(lo, tuple(a + w for a, w in zip(lo, shape)))
    assert plan.policy == "sptf" and plan.n_runs > 128
    drive = DiskDrive(atlas_10k3())

    def run():
        drive.reset()
        return drive.service_runs(
            plan.starts, plan.lengths, policy="sptf", window=128
        )

    res = benchmark(run)
    assert res.n_requests == plan.n_runs


@pytest.mark.parametrize("layout", ["naive", "zorder", "hilbert", "multimap"])
def test_dataset_run_batch(benchmark, layout):
    """One paper-batch round on one layout: two random beams per axis
    and a 0.1 % and a 1 % range cube on (216, 64, 64) atlas10k3, served
    as one ``Dataset.run`` batch, heads drawn from the same seed on
    every call (placement and plan tables built beforehand)."""
    shape = (216, 64, 64)
    rng = np.random.default_rng(3)
    queries = [random_beam(shape, axis, rng)
               for axis in range(len(shape)) for _ in range(2)]
    queries += [random_range_cube(shape, pct, rng) for pct in (0.1, 1.0)]
    ds = Dataset.create(shape, layout=layout, drive="atlas10k3", seed=3)
    ds.run(queries, rng=np.random.default_rng(0))

    report = benchmark(lambda: ds.run(queries, rng=np.random.default_rng(4)))
    assert len(report.records) == len(queries)


@pytest.mark.parametrize("layout", ["naive", "zorder", "hilbert", "multimap"])
def test_ingest_run(benchmark, layout):
    """One ingest-reorg run on one layout: 2,048 clustered points in
    256-point batches and 512-point flushes under the fixed loader, then
    the background reorganisation, into (32, 8, 8) on minidrive, 2 disks
    x 2 copies.  A run consumes its volume, so every round writes into a
    fresh dataset, built outside the timed call."""

    def fresh():
        ds = (Dataset.create((32, 8, 8), layout=layout, drive="minidrive",
                             seed=3)
              .with_shards(2).with_replication(2))
        run = ds.ingest(stream="clustered", loader="fixed", n_points=2048,
                        batch_points=256, flush_points=512, seed=3,
                        reorganize=True)
        return (run,), {}

    report = benchmark.pedantic(
        lambda run: run.run(rng=np.random.default_rng(4)),
        setup=fresh, rounds=20, iterations=1,
    )
    assert report.n_points == report.store["n_points"] == 2048
    assert report.reorg is not None
    assert report.store["overflow_pages"] == 0


@pytest.mark.parametrize("layout", ["naive", "zorder", "hilbert", "multimap"])
def test_traffic_storm(benchmark, layout):
    """One failover-storm round on one layout: three closed-loop clients
    of eight Dim1/Dim2 beams each on (64, 64, 32) atlas10k3, 3 disks x 2
    copies, 64-run slices, disk 1 killed at 30 ms and revived at 230 ms.
    Every head is parked before each call, as on a freshly built volume,
    so every call replays the same storm (placement and plan tables
    built beforehand)."""
    ds = (Dataset.create((64, 64, 32), layout=layout, drive="atlas10k3",
                         seed=3)
          .with_shards(3).with_replication(2))
    storm = (ds.traffic()
             .clients(3, mix=QueryMix.beams(1, 2), queries=8)
             .slice_runs(64)
             .kill(30.0, 1, revive_at_ms=230.0))

    def run():
        for disk in range(ds.volume.n_disks):
            ds.volume.drive(disk).reset()
        return storm.run(rng=np.random.default_rng(4))

    first = run()
    report = benchmark.pedantic(run, rounds=20, iterations=1)
    assert report.traces == first.traces
    assert len(report.traces) == 24
    assert report.meta["failures"]["redispatched_subs"] > 0
    assert not report.meta["replicas"]["failed"]


@pytest.mark.parametrize("cls", [ZOrderMapper, GrayMapper, HilbertMapper])
def test_rank_table_build(benchmark, cls):
    """One cold rank-table build on paper-batch's chunk: a box encoder
    per group of slabs, the argsort and its inversion.  (Hilbert's
    level-step table is a constant of the curve, built once per process
    in the first round.)"""
    dims = (216, 64, 64)
    mapper = cls(dims, Extent(0, 0, int(np.prod(dims))))
    table = benchmark.pedantic(mapper.rank_table, setup=mapper.drop_cache,
                               rounds=5, iterations=1)
    assert table.shape == (mapper.n_cells,)
    mapper.drop_cache()


def test_hilbert_encode_throughput(benchmark):
    from repro.mappings import curves

    coords = enumerate_box((0, 0, 0), (64, 64, 64))

    out = benchmark(curves.hilbert_encode, coords, 6)
    assert out.size == 64 ** 3


@pytest.mark.parametrize(
    "cls", [ZOrderMapper, HilbertMapper, MultiMapMapper]
)
def test_range_plan_throughput(benchmark, cls):
    mapper = _mapper(cls)
    if hasattr(mapper, "rank_table"):
        mapper.rank_table()  # exclude the one-time table build
    plan = benchmark(mapper.range_plan, (10, 5, 5), (100, 50, 50))
    assert plan.n_blocks == 90 * 45 * 45


#: perfbench's query workloads: paper-batch plans on one disk, and
#: failover-storm plans each beam per chunk of a 3-disk dataset
PERFBENCH_SHAPES = {
    "paper-batch": ((216, 64, 64), 1),
    "failover-storm": ((64, 64, 32), 3),
}
_PLAN_MAPPERS: dict = {}


def _plan_mapper(workload, layout):
    """The workload's (first chunk's) mapper, rank table built."""
    key = (workload, layout)
    if key not in _PLAN_MAPPERS:
        shape, disks = PERFBENCH_SHAPES[workload]
        ds = Dataset.create(shape, layout=layout, drive="atlas10k3", seed=1)
        if disks > 1:
            ds.with_shards(disks)
        mapper = ds.storage.copy_mappers[0][0]
        if hasattr(mapper, "rank_table"):
            mapper.rank_table()
        _PLAN_MAPPERS[key] = mapper
    return _PLAN_MAPPERS[key]


@pytest.mark.parametrize("workload", list(PERFBENCH_SHAPES))
@pytest.mark.parametrize("axis", [0, 1, 2])
@pytest.mark.parametrize(
    "layout", ["naive", "zorder", "hilbert", "multimap"]
)
def test_beam_plan_fixed_cost(benchmark, workload, layout, axis):
    """One beam across the whole axis (11 to 216 cells): validation,
    the index vector and the layout's closed form.  A fixed number of
    rounds keeps these 24 cases to about a second in all."""
    mapper = _plan_mapper(workload, layout)
    fixed = tuple(s // 3 for s in mapper.dims)
    plan = benchmark.pedantic(mapper.beam_plan, (axis, fixed), rounds=200,
                              iterations=5, warmup_rounds=5)
    assert plan.n_blocks == mapper.dims[axis]
