"""High-dimensional datasets — the paper's §4.3 claim.

"For modern disks, D is typically on the order of hundreds, allowing
mapping for more than 10 dimensions.  For most physical simulations and
OLAP applications, this number is sufficient."  With D = 128 the bound is
N_max = 2 + log2(128) = 9; these tests push the general Figure 5
algorithm all the way there.
"""

import numpy as np
import pytest

from repro.core import MultiMapMapper, map_cell, max_dimensions
from repro.disk import atlas_10k3
from repro.errors import MappingError
from repro.lvm import LogicalVolume
from repro.mappings.base import enumerate_box


@pytest.fixture(scope="module")
def volume():
    return LogicalVolume([atlas_10k3()], depth=128)


def make_mapper(volume, n_dims, inner=2):
    """An N-D dataset with small inner sides (K_i = 2 boundary regime)."""
    dims = (32,) + (inner,) * (n_dims - 2) + (4,)
    return MultiMapMapper(dims, volume, strategy="volume"), dims


class TestNineDimensions:
    def test_nmax_for_d128(self):
        assert max_dimensions(128) == 9

    @pytest.mark.parametrize("n_dims", [5, 7, 9])
    def test_nd_mapping_bijective(self, volume, n_dims):
        mapper, dims = make_mapper(volume, n_dims)
        coords = enumerate_box((0,) * n_dims, dims)
        lbns = mapper.lbns(coords)
        assert np.unique(lbns).size == coords.shape[0]

    def test_nine_d_inner_volume_exactly_d(self, volume):
        mapper, dims = make_mapper(volume, 9)
        # 7 inner dimensions of side 2: product = 128 = D, Equation 3 tight
        assert int(np.prod(mapper.K[1:-1])) == 128

    def test_ten_dimensions_impossible_at_d128(self, volume):
        # 8 inner dims of side >= 2 would need prod >= 256 > D
        dims = (32,) + (2,) * 8 + (4,)
        mapper = MultiMapMapper(dims, volume)
        # the planner can only satisfy Eq.3 by collapsing some K_i to 1,
        # i.e. at least one dimension loses its locality
        assert min(mapper.K[1:-1]) == 1

    def test_closed_form_equals_figure5_in_9d(self, volume):
        mapper, dims = make_mapper(volume, 9)
        adj = volume.adjacency[0]
        anchor = mapper.first_lbn_of_cube((0,) * 9)
        rng = np.random.default_rng(5)
        for _ in range(10):
            cell = tuple(int(rng.integers(0, k)) for k in mapper.K)
            assert int(mapper.lbns(np.array([cell]))[0]) == map_cell(
                adj, anchor, cell, mapper.K
            )

    def test_last_dimension_still_semi_sequential(self, volume):
        """Stepping the 9th dimension jumps prod(K1..K7) = 128 = D tracks
        — the outermost legal hop — and must still cost ~one hop."""
        mapper, dims = make_mapper(volume, 9)
        drive = volume.drives[0]
        a = int(mapper.lbns(np.array([(0,) * 9]))[0])
        b = int(mapper.lbns(np.array([(0,) * 8 + (1,)]))[0])
        geom = volume.models[0].geometry
        assert geom.track_of(b) - geom.track_of(a) == 128
        drive.reset(track=geom.track_of(a))
        drive.service(a)
        tm = drive.service(b)
        assert tm.rotation_ms < 0.1
        assert tm.seek_ms == pytest.approx(
            volume.models[0].mechanics.settle_ms
        )

    def test_beam_along_every_axis(self):
        from repro.api import Dataset
        from repro.query import BeamQuery

        dims = (32,) + (2,) * 5 + (4,)
        ds = Dataset.create(dims, "multimap", atlas_10k3(), depth=128,
                            strategy="volume")
        for axis in range(7):
            fixed = tuple(0 for _ in dims)
            res = ds.storage.run_query(BeamQuery(axis, fixed))
            assert res.n_cells == dims[axis]

    def test_range_query_in_6d(self, volume):
        mapper, dims = make_mapper(volume, 6, inner=3)
        lo = (4,) + (0,) * 4 + (1,)
        hi = (20,) + (2,) * 4 + (3,)
        plan = mapper.range_plan(lo, hi)
        expected = int(np.prod([b - a for a, b in zip(lo, hi)]))
        assert plan.n_blocks == expected
