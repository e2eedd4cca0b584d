"""Cross-module property tests: end-to-end invariants under hypothesis.

These tie the whole stack together: random datasets, random disks, random
queries — asserting the invariants that make the reproduction trustworthy
(bijective placement, exact fetch coverage, semi-sequential timing, and
equivalence of the two MultiMap implementations).
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.api import Dataset
from repro.core import MultiMapMapper, map_cell
from repro.disk import DiskDrive, synthetic_disk
from repro.lvm import LogicalVolume
from repro.mappings import (
    GrayMapper,
    HilbertMapper,
    NaiveMapper,
    ZOrderMapper,
)
from repro.mappings.base import enumerate_box


def random_disk(rng):
    spt = int(rng.integers(60, 200))
    return synthetic_disk(
        "prop",
        rpm=float(rng.integers(7200, 15000)),
        settle_ms=float(rng.uniform(0.5, 1.5)),
        settle_cylinders=int(rng.integers(4, 16)),
        surfaces=int(rng.integers(1, 5)),
        zone_specs=[(int(rng.integers(100, 300)), spt),
                    (int(rng.integers(100, 300)), max(spt - 20, 30))],
        command_overhead_ms=float(rng.uniform(0.0, 0.3)),
    )


@st.composite
def disk_and_dims(draw):
    seed = draw(st.integers(0, 2**31))
    rng = np.random.default_rng(seed)
    model = random_disk(rng)
    n_dims = draw(st.integers(min_value=2, max_value=4))
    dims = tuple(int(rng.integers(2, 14)) for _ in range(n_dims))
    # the properties are about placed datasets: one larger than the
    # random disk (rare, 4-D on a one-surface disk) cannot be allocated
    assume(int(np.prod(dims)) <= model.geometry.n_lbns)
    return model, dims, seed


class TestEndToEndInvariants:
    @given(case=disk_and_dims())
    @settings(max_examples=20, deadline=None)
    def test_multimap_closed_form_equals_figure5(self, case):
        model, dims, seed = case
        vol = LogicalVolume([model])
        try:
            mm = MultiMapMapper(dims, vol)
        except Exception:
            return  # dataset may not fit tiny random disks
        adj = vol.adjacency[0]
        rng = np.random.default_rng(seed)
        anchor = mm.first_lbn_of_cube((0,) * len(dims))
        cell = tuple(int(rng.integers(0, k)) for k in mm.K)
        assert int(mm.lbns(np.array([cell]))[0]) == map_cell(
            adj, anchor, cell, mm.K
        )

    @given(case=disk_and_dims())
    @settings(max_examples=20, deadline=None)
    def test_all_mappers_place_bijectively(self, case):
        model, dims, seed = case
        n = int(np.prod(dims))
        coords = enumerate_box((0,) * len(dims), dims)
        for cls in (NaiveMapper, ZOrderMapper, HilbertMapper, GrayMapper):
            vol = LogicalVolume([model])
            mapper = cls(dims, vol.allocate_blocks(0, n))
            assert np.unique(mapper.lbns(coords)).size == n

    @given(case=disk_and_dims())
    @settings(max_examples=15, deadline=None)
    def test_range_plans_fetch_exact_cells(self, case):
        model, dims, seed = case
        rng = np.random.default_rng(seed)
        lo = tuple(int(rng.integers(0, s)) for s in dims)
        hi = tuple(
            int(rng.integers(l + 1, s + 1)) for l, s in zip(lo, dims)
        )
        n_box = int(np.prod([b - a for a, b in zip(lo, hi)]))
        vol = LogicalVolume([model])
        naive = NaiveMapper(dims, vol.allocate_blocks(0, int(np.prod(dims))))
        assert naive.range_plan(lo, hi).n_blocks == n_box
        try:
            volm = LogicalVolume([model])
            mm = MultiMapMapper(dims, volm)
        except Exception:
            return
        assert mm.range_plan(lo, hi).n_blocks == n_box

    @given(case=disk_and_dims())
    @settings(max_examples=10, deadline=None)
    def test_query_times_are_finite_and_positive(self, case):
        model, dims, seed = case
        rng = np.random.default_rng(seed)
        naive = Dataset.create(dims, "naive", model)
        res = naive.range((0,) * len(dims), dims).run(rng=rng).results[0]
        assert np.isfinite(res.total_ms)
        assert res.total_ms > 0

    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=15, deadline=None)
    def test_semi_sequential_always_beats_random_within_d(self, seed):
        """The adjacency model's reason to exist, on random disks."""
        rng = np.random.default_rng(seed)
        model = random_disk(rng)
        from repro.disk import AdjacencyModel

        adj = AdjacencyModel.for_model(model)
        n = 50
        drive = DiskDrive(model)
        path = adj.semi_sequential_path(0, n, 1)
        semi = drive.service_lbns(path, policy="fifo").total_ms

        geom = model.geometry
        drive2 = DiskDrive(model)
        tracks = geom.track_of(0) + rng.integers(1, adj.D + 1, size=n)
        sectors = rng.integers(0, geom.track_length(0), size=n)
        nearby = drive2.service_lbns(
            geom.lbns_from(tracks, sectors), policy="fifo"
        ).total_ms
        assert semi < nearby
