"""Tests for the analytic cost model, including simulator agreement."""

import numpy as np
import pytest

from repro.analytic import AnalyticModel, DriveParameters
from repro.api import Dataset
from repro.errors import QueryError
from repro.disk import atlas_10k3


@pytest.fixture(scope="module")
def model():
    return atlas_10k3()


@pytest.fixture(scope="module")
def params(model):
    return DriveParameters.from_model(model)


@pytest.fixture(scope="module")
def analytic(params):
    return AnalyticModel(params)


class TestDriveParameters:
    def test_from_model_reads_zone0(self, params, model):
        assert params.track_length == 686
        assert params.rotation_ms == pytest.approx(6.0)
        assert params.settle_ms == pytest.approx(1.2)
        assert params.depth == 128

    def test_sector_time(self, params):
        assert params.sector_ms == pytest.approx(6.0 / 686)

    def test_hop_cadence_exceeds_settle_plus_overhead(self, params):
        assert params.hop_ms >= params.settle_ms + params.overhead_ms


class TestPrimitives:
    def test_streaming_rate(self, analytic, params):
        t = analytic.streaming_ms(686 * 4)
        assert t == pytest.approx(4 * 6.0 + 4 * params.settle_ms, rel=0.05)

    def test_stride_below_track_waits_rotation(self, analytic, params):
        t = analytic.stride_step_ms(343)  # half a track
        assert t == pytest.approx(3.0, rel=0.35)

    def test_tiny_stride_misses_a_revolution(self, analytic, params):
        t = analytic.stride_step_ms(4)
        assert t > params.rotation_ms * 0.9

    def test_large_stride_costs_settle_plus_latency(self, analytic, params):
        t = analytic.stride_step_ms(686 * 50)  # 50 tracks ~ 12 cylinders
        expected = params.overhead_ms + params.settle_ms + 3.0
        assert t == pytest.approx(expected, rel=0.1)

    def test_semi_seq_step_is_hop(self, analytic, params):
        assert analytic.semi_sequential_step_ms() == pytest.approx(
            params.hop_ms
        )

    def test_stride_rejects_nonpositive(self, analytic):
        with pytest.raises(QueryError):
            analytic.stride_step_ms(0)


class TestPredictionsVsSimulator:
    """The §5 model must land near simulated times (tolerances pinned)."""

    DIMS = (259, 128, 64)

    @pytest.fixture(scope="class")
    def measured(self, model):
        out = {}
        rng = np.random.default_rng(0)
        for name in ("naive", "multimap"):
            ds = Dataset.create(self.DIMS, name, model, depth=128)
            for axis in range(3):
                report = ds.beam(axis, (5, 5, 5)).repeats(5).run(rng=rng)
                out[(name, axis)] = report.mean("total_ms")
        out["mm_K"] = ds.mapper.K
        return out

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_naive_beams_within_35pct(self, analytic, measured, axis):
        pred = analytic.naive_beam_ms(self.DIMS, axis)
        sim = measured[("naive", axis)]
        assert pred == pytest.approx(sim, rel=0.35)

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_multimap_beams_within_35pct(self, analytic, measured, axis):
        pred = analytic.multimap_beam_ms(self.DIMS, axis, measured["mm_K"])
        sim = measured[("multimap", axis)]
        assert pred == pytest.approx(sim, rel=0.35)

    def test_range_prediction_orders_mappings(self, analytic):
        """The model must predict MultiMap <= Naive for small boxes
        (the paper's low-selectivity regime)."""
        shape = (26, 26, 26)
        naive = analytic.naive_range_ms(self.DIMS, shape)
        mm = analytic.multimap_range_ms(self.DIMS, shape)
        assert mm < naive

    def test_speedup_helpers(self, analytic):
        sp = analytic.predicted_beam_speedups(self.DIMS)
        assert sp[1] > 1.0 and sp[2] > 1.0
        assert 0.5 < sp[0] < 2.0
        r = analytic.predicted_range_speedup(self.DIMS, (26, 26, 26))
        assert r > 1.0

    def test_range_shape_validation(self, analytic):
        with pytest.raises(QueryError):
            analytic.naive_range_ms(self.DIMS, (5, 5))

    def test_zero_rows(self, analytic):
        assert analytic.multimap_range_ms(self.DIMS, (5, 0, 5)) == 0.0
