"""Micro-benchmarks: raw throughput of the library's hot paths.

These time the *implementation* (cells mapped per second, runs serviced
per second), unlike the figure benches which report simulated I/O time.
"""

import numpy as np
import pytest

from repro.core import MultiMapMapper
from repro.disk import DiskDrive, atlas_10k3
from repro.lvm import LogicalVolume
from repro.mappings import HilbertMapper, NaiveMapper, ZOrderMapper
from repro.mappings.base import enumerate_box

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
