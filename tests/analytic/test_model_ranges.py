"""Range-query predictions of the analytic model vs the simulator."""

import numpy as np
import pytest

from repro.analytic import AnalyticModel, DriveParameters
from repro.api import Dataset
from repro.disk import atlas_10k3

DIMS = (259, 128, 64)


@pytest.fixture(scope="module")
def analytic():
    return AnalyticModel(DriveParameters.from_model(atlas_10k3()))


class TestRangePredictions:
    @pytest.mark.parametrize("shape", [(20, 20, 20), (56, 56, 56)])
    def test_naive_range_within_2x(self, analytic, shape):
        naive = Dataset.create(DIMS, "naive", atlas_10k3(), depth=128)
        rng = np.random.default_rng(3)
        lo = tuple(int(rng.integers(0, s - w)) for s, w in zip(DIMS, shape))
        hi = tuple(a + w for a, w in zip(lo, shape))
        sim = naive.range(lo, hi).run(rng=rng).total_ms
        pred = analytic.naive_range_ms(DIMS, shape)
        assert 0.5 < pred / sim < 2.0

    @pytest.mark.parametrize("shape", [(20, 20, 20), (56, 56, 56)])
    def test_multimap_range_within_2x(self, analytic, shape):
        mm = Dataset.create(DIMS, "multimap", atlas_10k3(), depth=128)
        rng = np.random.default_rng(3)
        lo = tuple(int(rng.integers(0, s - w)) for s, w in zip(DIMS, shape))
        hi = tuple(a + w for a, w in zip(lo, shape))
        sim = mm.range(lo, hi).run(rng=rng).total_ms
        pred = analytic.multimap_range_ms(DIMS, shape, mm.mapper.K)
        assert 0.5 < pred / sim < 2.0

    def test_full_width_slab_streams(self, analytic):
        """A slab covering dims 0 and 1 is a contiguous scan for Naive."""
        shape = (DIMS[0], DIMS[1], 8)
        n = int(np.prod(shape))
        pred = analytic.naive_range_ms(DIMS, shape)
        stream = analytic.streaming_ms(n)
        assert pred == pytest.approx(
            stream + analytic.initial_positioning_ms(), rel=0.01
        )

    def test_predictions_scale_with_rows(self, analytic):
        small = analytic.multimap_range_ms(DIMS, (10, 10, 10))
        large = analytic.multimap_range_ms(DIMS, (10, 20, 20))
        assert large == pytest.approx(
            analytic.initial_positioning_ms()
            + 4 * (small - analytic.initial_positioning_ms()),
            rel=0.01,
        )
