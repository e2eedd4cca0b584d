"""Tests for MultiMap datasets spanning several zones.

The paper: "A large dataset can be mapped to basic cubes of different
sizes in different zones.  MultiMap does not map basic cubes across zone
boundaries."  Our mapper keeps one cube shape but recomputes slot packing
per zone and never lets an allocation straddle a boundary.
"""

import numpy as np
import pytest

from repro.core import MultiMapMapper
from repro.disk import synthetic_disk
from repro.lvm import LogicalVolume
from repro.mappings.base import enumerate_box


@pytest.fixture()
def spanning():
    """A dataset that cannot fit in one zone of this disk."""
    model = synthetic_disk(
        "multizone",
        settle_ms=1.0,
        settle_cylinders=8,
        surfaces=2,
        zone_specs=[(60, 120), (60, 100), (60, 80)],
        command_overhead_ms=0.05,
    )
    vol = LogicalVolume([model])
    # 24k cells on a 36k-sector disk with 120-track zones: spans zones
    mm = MultiMapMapper((100, 10, 24), vol)
    return model, vol, mm


class TestMultiZone:
    def test_allocation_spans_zones(self, spanning):
        model, vol, mm = spanning
        zones = {a.zone_index for a in mm._allocations}
        assert len(zones) >= 2

    def test_no_allocation_straddles_boundary(self, spanning):
        model, vol, mm = spanning
        geom = model.geometry
        for alloc in mm._allocations:
            zi_start = geom.zone_index_of_lbn(alloc.first_lbn)
            assert zi_start == alloc.zone_index

    def test_per_zone_packing(self, spanning):
        model, vol, mm = spanning
        for alloc in mm._allocations:
            spt = model.geometry.zone(alloc.zone_index).sectors_per_track
            assert alloc.packing == spt // mm.K[0]

    def test_bijective_across_zones(self, spanning):
        model, vol, mm = spanning
        coords = enumerate_box((0, 0, 0), mm.dims)
        lbns = mm.lbns(coords)
        assert np.unique(lbns).size == mm.n_cells

    def test_cells_remain_in_their_zone_records(self, spanning):
        model, vol, mm = spanning
        geom = model.geometry
        coords = enumerate_box((0, 0, 0), mm.dims)
        lbns = mm.lbns(coords)
        rec, _, _, _ = mm._locate(coords.T)
        for alloc_idx, alloc in enumerate(mm._allocations):
            sel = rec == alloc_idx
            if not sel.any():
                continue
            zi = np.array(
                [geom.zone_index_of_lbn(int(l)) for l in lbns[sel][:50]]
            )
            assert (zi == alloc.zone_index).all()

    def test_semi_sequential_holds_in_inner_zone(self, spanning):
        """Adjacency hops must stay rotational-latency-free in later
        zones too (each zone derives its own A and w)."""
        model, vol, mm = spanning
        drive = vol.drives[0]
        inner = mm._allocations[-1]
        first_cube = inner.first_cube
        cube_coord = np.unravel_index(first_cube, mm.plan.grid, order="F")
        x = [int(c * k) for c, k in zip(cube_coord, mm.K)]
        # hop along the deepest in-cube dimension of the inner-zone cube
        steps = min(mm.K[2], 6)
        cells = np.array(
            [[x[0], x[1], x[2] + j] for j in range(steps)]
        )
        lbns = mm.lbns(cells)
        # position exactly on the first cell, then time the hops alone
        drive.reset(track=model.geometry.track_of(int(lbns[0])))
        drive.service(int(lbns[0]))
        res = drive.service_lbns(lbns[1:], policy="fifo")
        spt = inner.track_length
        per_hop = res.total_ms / (steps - 1)
        hop_budget = (
            model.mechanics.settle_ms
            + model.mechanics.command_overhead_ms
            + 4 * model.mechanics.rotation_ms / spt
        )
        assert per_hop < hop_budget
