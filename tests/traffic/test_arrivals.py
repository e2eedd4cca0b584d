"""Arrival-process unit tests: seeding, shapes, and validation."""

import itertools

import numpy as np
import pytest

from repro.errors import QueryError
from repro.traffic import ClosedLoop, PoissonArrivals
from repro.traffic.arrivals import ARRIVALS, arrival_named


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

    def test_describe(self):
        d = PoissonArrivals(rate_qps=40, start_ms=5.0).describe()
        assert d == {"model": "poisson", "rate_qps": 40.0, "start_ms": 5.0}


class TestArrivalNamed:
    """The storms and the CLI pick an arrival model by name."""

    @pytest.mark.parametrize("name", ARRIVALS)
    def test_each_name_builds_its_model(self, name):
        arrival = arrival_named(name, rate=20.0, think_ms=3.0)
        assert arrival.describe()["model"] == name
        assert arrival == {"closed": ClosedLoop(think_ms=3.0),
                           "poisson": PoissonArrivals(rate_qps=20.0)}[name]

    def test_retired_bursty_is_refused(self):
        with pytest.raises(QueryError, match="closed or poisson"):
            arrival_named("bursty")


NAN = float("nan")


class TestParametersAreFinite:
    """Every arrival parameter is a finite real number (not a bool),
    checked when the process is built: a NaN used to give every trace
    ``arrival_ms=nan`` (Poisson) or NaN arrivals (closed loop)."""

    def test_poisson_rate_nan(self):
        with pytest.raises(QueryError, match="rate_qps must be finite"):
            PoissonArrivals(rate_qps=NAN)

    def test_closed_loop_think_nan(self):
        with pytest.raises(QueryError, match="think_ms must be finite"):
            ClosedLoop(think_ms=NAN)

    @pytest.mark.parametrize("build", [
        lambda v: ClosedLoop(initial_delay_ms=v),
        lambda v: PoissonArrivals(rate_qps=10, start_ms=v),
    ], ids=["initial_delay_ms", "start_ms"])
    @pytest.mark.parametrize("value", [NAN, float("inf"), True, "1"])
    def test_every_parameter(self, build, value):
        with pytest.raises(QueryError):
            build(value)
