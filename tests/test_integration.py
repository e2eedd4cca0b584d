"""Cross-layer integration tests: the full pipeline on one small disk.

These walk the complete stack — model -> volume -> planner -> mapper ->
storage manager -> drive — and assert the paper's core orderings without
depending on the benchmark package.
"""

import numpy as np
import pytest

from repro.analytic import AnalyticModel, DriveParameters
from repro.api import Dataset
from repro.core import CellStore, MultiMapMapper
from repro.datasets import MAPPER_ORDER
from repro.disk import DiskDrive, extract_profile, synthetic_disk
from repro.lvm import LogicalVolume

DIMS = (122, 26, 20)  # strides deliberately not multiples of T


@pytest.fixture(scope="module")
def model():
    """Mid-size synthetic disk with paper-like proportions."""
    return synthetic_disk(
        "integration",
        rpm=10_000,
        settle_ms=1.2,
        settle_cylinders=16,
        surfaces=2,
        zone_specs=[(400, 180), (400, 150)],
        avg_seek_ms=4.0,
        full_stroke_ms=8.0,
        command_overhead_ms=0.1,
    )


@pytest.fixture(scope="module")
def world(model):
    """One dataset per layout, each on its own fresh disk."""
    return {
        name: Dataset.create(DIMS, name, model, depth=32)
        for name in MAPPER_ORDER
    }


def _avg_beam(ds, axis, runs=4, seed=0):
    rng = np.random.default_rng(seed)
    return ds.random_beams(axis, runs).run(rng=rng).mean("ms_per_cell")


class TestPaperOrderings:
    def test_streaming_hierarchy_dim0(self, world):
        times = {name: _avg_beam(ds, 0) for name, ds in world.items()}
        assert times["naive"] < times["zorder"] / 5
        assert times["multimap"] < times["zorder"] / 5

    def test_multimap_wins_nonprimary_beams_overall(self, world):
        combined = {
            name: _avg_beam(ds, 1) + _avg_beam(ds, 2)
            for name, ds in world.items()
        }
        assert combined["multimap"] == min(combined.values())
        assert combined["multimap"] < combined["naive"] * 0.75

    def test_low_selectivity_range_ordering(self, world):
        totals = {}
        for name, ds in world.items():
            rng = np.random.default_rng(5)
            totals[name] = (ds.range_selectivity(1.0).repeats(3)
                            .run(rng=rng).mean("total_ms"))
        # naive is never the best at low selectivity
        assert min(totals, key=totals.get) != "naive"

    def test_full_scan_convergence(self, world):
        totals = {}
        for name, ds in world.items():
            rng = np.random.default_rng(5)
            totals[name] = ds.range((0, 0, 0), DIMS).run(rng=rng).total_ms
        assert totals["zorder"] == pytest.approx(totals["naive"], rel=0.05)
        assert totals["hilbert"] == pytest.approx(totals["naive"], rel=0.05)
        assert totals["multimap"] < totals["naive"] * 1.4


class TestCharacterisationToMapping:
    def test_extracted_profile_drives_a_working_mapper(self, model):
        """End-to-end §3 story: measure the drive, use the measured D."""
        profile = extract_profile(DiskDrive(model), samples=2)
        assert profile.adjacency_depth == 32
        vol = LogicalVolume([model], depth=profile.adjacency_depth)
        mm = MultiMapMapper(DIMS, vol)
        assert int(np.prod(mm.K[1:-1])) <= profile.adjacency_depth

    def test_analytic_model_consistent_with_world(self, model, world):
        params = DriveParameters.from_model(model, depth=32)
        analytic = AnalyticModel(params)
        measured = _avg_beam(world["multimap"], 1)
        predicted = analytic.multimap_beam_ms(DIMS, 1,
                                              world["multimap"].mapper.K)
        assert predicted / DIMS[1] == pytest.approx(measured, rel=0.5)


class TestUpdatesOnTopOfQueries:
    def test_store_and_query_coexist(self, model):
        vol = LogicalVolume([model], depth=32)
        mm = MultiMapMapper((40, 10, 8), vol)
        store = CellStore(mm, vol, points_per_cell=8, fill_factor=0.5)
        rng = np.random.default_rng(0)
        coords = np.stack(
            [rng.integers(0, s, size=2000) for s in (40, 10, 8)], axis=1
        )
        store.bulk_load(coords)
        plan = store.read_plan(coords[:50])
        drive = vol.drive(0)
        res = drive.service_runs(
            plan.starts, plan.lengths, policy="sorted"
        )
        assert res.total_ms > 0
        assert res.n_blocks >= np.unique(
            mm.lbns(coords[:50])
        ).size
