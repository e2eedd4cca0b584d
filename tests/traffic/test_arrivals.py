"""Arrival-process unit tests: seeding, shapes, and validation."""

import itertools

import numpy as np
import pytest

from repro.errors import QueryError
from repro.traffic import BurstyArrivals, ClosedLoop, PoissonArrivals


def take(it, n):
    return list(itertools.islice(it, n))


class TestClosedLoop:
    def test_defaults(self):
        a = ClosedLoop()
        assert a.closed
        assert a.first_arrival() == 0.0
        assert a.next_after_completion(12.5) == 12.5

    def test_think_time(self):
        a = ClosedLoop(think_ms=3.0, initial_delay_ms=1.5)
        assert a.first_arrival() == 1.5
        assert a.next_after_completion(10.0) == 13.0

    def test_rejects_negative(self):
        with pytest.raises(QueryError):
            ClosedLoop(think_ms=-1.0)
        with pytest.raises(QueryError):
            ClosedLoop(initial_delay_ms=-0.1)

    def test_describe(self):
        d = ClosedLoop(think_ms=2.0).describe()
        assert d["model"] == "closed"
        assert d["think_ms"] == 2.0


class TestPoisson:
    def test_monotonic_increasing(self):
        times = take(
            PoissonArrivals(rate_qps=100).arrivals(
                np.random.default_rng(1)
            ),
            200,
        )
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_seeded_determinism(self):
        a = take(PoissonArrivals(50).arrivals(np.random.default_rng(7)),
                 50)
        b = take(PoissonArrivals(50).arrivals(np.random.default_rng(7)),
                 50)
        assert a == b

    def test_mean_rate(self):
        # 2000 draws at 100 q/s -> mean interarrival ~10 ms
        times = take(
            PoissonArrivals(rate_qps=100).arrivals(
                np.random.default_rng(3)
            ),
            2000,
        )
        gaps = np.diff(times)
        assert gaps.mean() == pytest.approx(10.0, rel=0.1)

    def test_start_offset(self):
        t0 = take(
            PoissonArrivals(100, start_ms=500.0).arrivals(
                np.random.default_rng(0)
            ),
            1,
        )[0]
        assert t0 > 500.0

    def test_rejects_bad_rate(self):
        with pytest.raises(QueryError):
            PoissonArrivals(rate_qps=0)


class TestBursty:
    def test_non_decreasing_with_bursts(self):
        times = take(
            BurstyArrivals(
                burst_rate_per_s=20, mean_burst=5, intra_ms=0.25
            ).arrivals(np.random.default_rng(5)),
            500,
        )
        gaps = np.diff(times)
        assert (gaps >= 0).all()
        # batch-Poisson signature: many tiny intra-burst gaps plus
        # larger exponential inter-burst gaps
        assert np.isclose(gaps, 0.25).sum() > 50
        assert (gaps > 5.0).sum() > 10

    def test_seeded_determinism(self):
        spec = BurstyArrivals(burst_rate_per_s=10)
        a = take(spec.arrivals(np.random.default_rng(2)), 100)
        b = take(spec.arrivals(np.random.default_rng(2)), 100)
        assert a == b

    def test_validation(self):
        with pytest.raises(QueryError):
            BurstyArrivals(burst_rate_per_s=0)
        with pytest.raises(QueryError):
            BurstyArrivals(burst_rate_per_s=1, mean_burst=0.5)
        with pytest.raises(QueryError):
            BurstyArrivals(burst_rate_per_s=1, intra_ms=-1)

    def test_describe(self):
        d = BurstyArrivals(burst_rate_per_s=5).describe()
        assert d["model"] == "bursty"
        assert d["burst_rate_per_s"] == 5.0


NAN = float("nan")


class TestParametersAreFinite:
    """Every arrival parameter is a finite real number (not a bool),
    checked when the process is built: a NaN used to give every trace
    ``arrival_ms=nan`` (Poisson) or NaN arrivals (closed loop), and a
    bursty NaN or string died in numpy or a bare TypeError at run."""

    def test_poisson_rate_nan(self):
        with pytest.raises(QueryError, match="rate_qps must be finite"):
            PoissonArrivals(rate_qps=NAN)

    def test_closed_loop_think_nan(self):
        with pytest.raises(QueryError, match="think_ms must be finite"):
            ClosedLoop(think_ms=NAN)

    def test_bursty_mean_burst_nan(self):
        with pytest.raises(QueryError, match="mean_burst must be finite"):
            BurstyArrivals(burst_rate_per_s=10, mean_burst=NAN)

    def test_bursty_mean_burst_string(self):
        with pytest.raises(QueryError, match="mean_burst must be a number"):
            BurstyArrivals(burst_rate_per_s=10, mean_burst="x")

    @pytest.mark.parametrize("build", [
        lambda v: ClosedLoop(initial_delay_ms=v),
        lambda v: PoissonArrivals(rate_qps=10, start_ms=v),
        lambda v: BurstyArrivals(burst_rate_per_s=v),
        lambda v: BurstyArrivals(burst_rate_per_s=10, intra_ms=v),
    ], ids=["initial_delay_ms", "start_ms", "burst_rate_per_s",
            "intra_ms"])
    @pytest.mark.parametrize("value", [NAN, float("inf"), True, "1"])
    def test_every_parameter(self, build, value):
        with pytest.raises(QueryError):
            build(value)
