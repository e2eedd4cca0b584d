"""Tests for the MultiMap mapper: closed form vs Figure 5, plans, timing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MultiMapMapper, map_cell
from repro.errors import MappingError, QueryError
from repro.lvm import LogicalVolume
from repro.mappings.base import enumerate_box
from repro.disk import AdjacencyModel, DiskDrive, atlas_10k3, synthetic_disk, toy_disk


@pytest.fixture()
def toy_volume():
    return LogicalVolume([toy_disk(tracks=80)], depth=9)


@pytest.fixture()
def small_volume(small_model):
    return LogicalVolume([small_model], depth=16)


class TestPaperFigures:
    def test_figure2_table(self, toy_volume):
        mm = MultiMapMapper((5, 3), toy_volume)
        coords = enumerate_box((0, 0), (5, 3))
        np.testing.assert_array_equal(mm.lbns(coords), np.arange(15))

    def test_figure3_table(self, toy_volume):
        mm = MultiMapMapper((5, 3, 3), toy_volume)
        for cell, lbn in [
            ((0, 0, 0), 0), ((4, 1, 0), 9), ((0, 2, 0), 10),
            ((0, 0, 1), 15), ((0, 1, 1), 20), ((0, 2, 2), 40),
        ]:
            assert int(mm.lbns(np.array([cell]))[0]) == lbn

    def test_figure4_table(self, toy_volume):
        mm = MultiMapMapper((5, 3, 3, 2), toy_volume)
        for cell, lbn in [
            ((0, 0, 0, 0), 0), ((0, 0, 1, 0), 15), ((0, 0, 2, 0), 30),
            ((0, 0, 0, 1), 45), ((0, 0, 1, 1), 60), ((0, 2, 2, 1), 85),
        ]:
            assert int(mm.lbns(np.array([cell]))[0]) == lbn


class TestClosedFormEqualsIterative:
    """The vectorised closed form must agree cell-for-cell with the
    Figure 5 get_adjacent chains on a skewed, overhead-bearing disk."""

    @pytest.mark.parametrize("dims", [(300, 40, 20), (150, 10, 8, 4)])
    def test_equivalence(self, dims):
        model = atlas_10k3()
        vol = LogicalVolume([model], depth=128)
        mm = MultiMapMapper(dims, vol)  # compact plan: multiple cubes
        adj = vol.adjacency[0]
        rng = np.random.default_rng(3)
        anchor = mm.first_lbn_of_cube((0,) * len(dims))
        for _ in range(25):
            cell = tuple(int(rng.integers(0, k)) for k in mm.K)
            expected = map_cell(adj, anchor, cell, mm.K)
            got = int(mm.lbns(np.array([cell]))[0])
            assert got == expected, cell

    def test_equivalence_in_second_cube(self):
        model = atlas_10k3()
        vol = LogicalVolume([model], depth=128)
        # volume strategy: K1 = 128 < 150 forces a second cube along dim1
        mm = MultiMapMapper((300, 150, 20), vol, strategy="volume")
        adj = vol.adjacency[0]
        assert mm.plan.grid[1] >= 2
        anchor = mm.first_lbn_of_cube((0, 1, 0))
        cell_local = (3, 2, 1)
        expected = map_cell(adj, anchor, cell_local, mm.K)
        global_cell = (3, mm.K[1] + 2, 1)
        assert int(mm.lbns(np.array([global_cell]))[0]) == expected


class TestMappingInvariants:
    def test_bijective_over_dataset(self, small_volume):
        mm = MultiMapMapper((40, 12, 10), small_volume)
        coords = enumerate_box((0, 0, 0), (40, 12, 10))
        lbns = mm.lbns(coords)
        assert np.unique(lbns).size == coords.shape[0]

    def test_rows_contiguous_within_cube(self, small_volume):
        mm = MultiMapMapper((40, 12, 10), small_volume)
        row = np.stack(
            [np.arange(min(mm.K[0], 40)),
             np.zeros(min(mm.K[0], 40), dtype=np.int64),
             np.zeros(min(mm.K[0], 40), dtype=np.int64)],
            axis=1,
        )
        lbns = mm.lbns(row)
        assert (np.diff(lbns) == 1).all()

    def test_dim1_neighbours_are_first_adjacent_blocks(self, small_volume):
        # volume strategy keeps the whole dataset in one basic cube, so
        # every Dim1 neighbour is a true first adjacent block
        mm = MultiMapMapper((40, 12, 10), small_volume, strategy="volume")
        adj = small_volume.adjacency[0]
        a = int(mm.lbns(np.array([[5, 3, 2]]))[0])
        b = int(mm.lbns(np.array([[5, 4, 2]]))[0])
        assert b == adj.get_adjacent(a, 1)

    def test_dim2_neighbours_are_k1_step_adjacent(self, small_volume):
        mm = MultiMapMapper((40, 12, 10), small_volume, strategy="volume")
        adj = small_volume.adjacency[0]
        a = int(mm.lbns(np.array([[5, 3, 2]]))[0])
        b = int(mm.lbns(np.array([[5, 3, 3]]))[0])
        assert b == adj.get_adjacent(a, mm.K[1])

    def test_out_of_bounds_rejected(self, small_volume):
        mm = MultiMapMapper((40, 12, 10), small_volume)
        with pytest.raises(QueryError):
            mm.lbns(np.array([[40, 0, 0]]))

    @pytest.mark.parametrize("dims", [(4.5, True), (3, "3"), 5, (0, 3)],
                             ids=repr)
    def test_dims_must_be_positive_integers(self, toy_volume, dims):
        # 5 used to raise a bare TypeError from the cube planner
        with pytest.raises(MappingError, match="shape"):
            MultiMapMapper(dims, toy_volume)

    def test_too_large_dataset_rejected(self, small_model):
        vol = LogicalVolume([small_model], depth=16)
        with pytest.raises(MappingError):
            MultiMapMapper((120, 1000, 500), vol)

    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=25, deadline=None)
    def test_property_track_distance_bounded_by_d(self, seed):
        """Neighbouring cells on any dimension land at most D tracks
        apart — the locality guarantee of §4.2."""
        model = synthetic_disk(
            "p", settle_cylinders=8, surfaces=2,
            zone_specs=[(300, 120)], command_overhead_ms=0.05,
        )
        vol = LogicalVolume([model])
        mm = MultiMapMapper((60, 10, 8), vol)
        geom = model.geometry
        rng = np.random.default_rng(seed)
        x = [int(rng.integers(0, s - 1)) for s in (60, 10, 8)]
        axis = int(rng.integers(0, 3))
        y = list(x)
        y[axis] += 1
        # only within a basic cube is the bound guaranteed
        if any(
            (a // k) != (b // k)
            for a, b, k in zip(x, y, mm.K)
        ):
            return
        la, lb = mm.lbns(np.array([x, y]))
        d_tracks = abs(geom.track_of(int(lb)) - geom.track_of(int(la)))
        assert d_tracks <= vol.depth(0)


class TestQueryPlans:
    def test_beam0_is_sequential_runs(self, small_volume):
        mm = MultiMapMapper((40, 12, 10), small_volume)
        plan = mm.beam_plan(0, (0, 4, 7))
        assert plan.n_blocks == 40
        assert plan.policy == "sorted"

    def test_beam1_is_path_order(self, small_volume):
        mm = MultiMapMapper((40, 12, 10), small_volume)
        plan = mm.beam_plan(1, (6, 0, 2))
        assert plan.policy == "fifo"
        assert plan.n_blocks == 12
        assert plan.merge_gap == 0

    def test_range_plan_covers_exact_cells(self, small_volume):
        mm = MultiMapMapper((40, 12, 10), small_volume)
        lo, hi = (3, 2, 1), (25, 9, 6)
        plan = mm.range_plan(lo, hi)
        n_cells = int(np.prod([b - a for a, b in zip(lo, hi)]))
        assert plan.n_blocks == n_cells
        got = np.sort(
            np.concatenate(
                [np.arange(s, s + n)
                 for s, n in zip(plan.starts, plan.lengths)]
            )
        )
        expected = np.sort(mm.lbns(enumerate_box(lo, hi)))
        np.testing.assert_array_equal(got, expected)

    def test_range_policy_is_sptf(self, small_volume):
        mm = MultiMapMapper((40, 12, 10), small_volume)
        assert mm.range_plan((0, 0, 0), (10, 4, 4)).policy == "sptf"

    def test_full_range_covers_everything(self, small_volume):
        mm = MultiMapMapper((40, 12, 10), small_volume)
        plan = mm.range_plan((0, 0, 0), (40, 12, 10))
        assert plan.n_blocks == 40 * 12 * 10

    def test_1d_dataset_range(self, small_model):
        vol = LogicalVolume([small_model], depth=16)
        mm = MultiMapMapper((200,), vol)
        plan = mm.range_plan((20,), (150,))
        assert plan.n_blocks == 130


class TestSemiSequentialTiming:
    def test_dim1_beam_runs_at_hop_cadence(self):
        """Fetching a Dim1 beam must cost about one adjacency offset per
        cell — the semi-sequential guarantee the whole paper rests on."""
        model = atlas_10k3()
        vol = LogicalVolume([model], depth=128)
        mm = MultiMapMapper((300, 64, 32), vol)
        drive = vol.drives[0]
        plan = mm.beam_plan(1, (10, 0, 5))
        res = drive.service_runs(
            plan.starts, plan.lengths, policy="fifo"
        )
        hop = vol.adjacency[0].expected_hop_ms(0)
        per_cell = res.total_ms / plan.n_runs
        assert per_cell < hop * 1.35 + 0.2

    def test_cell_blocks_supported(self, small_volume):
        mm = MultiMapMapper((20, 6, 5), small_volume, cell_blocks=2)
        coords = enumerate_box((0, 0, 0), (20, 6, 5))
        lbns = mm.lbns(coords)
        # cells occupy 2 blocks: no two first-LBNs may be 1 apart
        lbns.sort()
        assert (np.diff(lbns) >= 2).all()
        plan = mm.range_plan((0, 0, 0), (20, 6, 5))
        assert plan.n_blocks == 20 * 6 * 5 * 2
