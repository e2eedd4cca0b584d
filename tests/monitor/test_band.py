"""The one band rule behind diff, attribution and ``perf --check``.

:func:`band_score` replaced three hand-written rules.  The oracles
below are those rules, copied verbatim from the modules they lived in,
and the properties pin the scorer to each of them.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.monitor.diff import _FLOORS, band_edge, band_score


def diff_flag(base, cur, tolerance, floor, worse):
    """``monitor/diff._flag``: the bad-direction delta beyond the band."""
    delta = cur - base
    bad = delta if worse == "up" else -delta
    return bad > max(abs(base) * tolerance, floor)


def attribute_score(base, cur, tolerance, floor):
    """``explain/attribute._score`` (larger is worse); > 1 flagged."""
    delta = cur - base
    band = max(abs(base) * tolerance, floor)
    return delta / band if band > 0 else 0.0


def perf_flag(base, cur, tolerance):
    """``perf/sweep.check_perf``: the kept fraction of the baseline."""
    return cur < base * (1 - tolerance)


finite = st.floats(allow_nan=False, allow_infinity=False)
tolerances = st.floats(min_value=0.0, max_value=10.0)
floors = st.sampled_from(sorted(_FLOORS))
directions = st.sampled_from(["up", "down"])


def flags(base, cur, tolerance, floor="ms", worse="up"):
    return band_score(base, cur, tolerance, floor=floor, worse=worse) > 1


@settings(max_examples=400, deadline=None)
@given(finite, finite, tolerances, floors, directions)
def test_flags_exactly_when_the_diff_rule_did(base, cur, tol, floor, worse):
    assert flags(base, cur, tol, floor, worse) == diff_flag(
        base, cur, tol, _FLOORS[floor], worse)


@settings(max_examples=400, deadline=None)
@given(finite, finite, tolerances,
       st.sampled_from(["ms", "util", "count"]))
def test_scores_exactly_as_attribution_did(base, cur, tol, floor):
    old = attribute_score(base, cur, tol, _FLOORS[floor])
    new = band_score(base, cur, tol, floor=floor)
    assert new == old or (math.isnan(new) and math.isnan(old))
    assert (new > 1.0) == (old > 1.0)


@settings(max_examples=400, deadline=None)
@given(st.floats(min_value=0.0, allow_infinity=False), finite,
       st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
@example(1.0, math.nextafter(0.5, 0.0), 0.5)
def test_flags_when_the_perf_rule_did(base, cur, tol):
    """Speedups and throughputs are non-negative.  ``cur < base * (1 -
    tol)`` and ``base - cur > base * tol`` are one inequality rounded
    two ways, so they may disagree only where ``cur`` sits within a few
    ulps of the threshold (the pinned example is such a point)."""
    new = flags(base, cur, tol, floor="relative", worse="down")
    old = perf_flag(base, cur, tol)
    if new != old:
        margin = Fraction(cur) - Fraction(base) * (1 - Fraction(tol))
        assert abs(margin) <= Fraction(base) * Fraction(2) ** -50 \
            + Fraction(2) ** -1070


def test_perf_rule_rounding_point():
    """The one-ulp disagreement the property above allows: ``1.0 -
    cur`` rounds to exactly the 0.5 band, so the band rule holds."""
    cur = math.nextafter(0.5, 0.0)
    assert perf_flag(1.0, cur, 0.5)
    assert not flags(1.0, cur, 0.5, floor="relative", worse="down")


@settings(max_examples=400, deadline=None)
@given(finite, finite, tolerances, floors, directions)
@example(1.7976931348623157e308, -9.9792015476736e291, 2.0, "count", "up")
def test_improvement_never_flags(base, cur, tol, floor, worse):
    better = min(base, cur) if worse == "up" else max(base, cur)
    assert not flags(base, better, tol, floor, worse)


@pytest.mark.parametrize("base, cur, tol, floor, worse", [
    (400.0, 500.0, 0.25, "ms", "up"),      # band = |base| * tol
    (400.0, 300.0, 0.25, "qps", "down"),
    (0.5, 1.5, 0.1, "ms", "up"),           # band = the 1 ms floor
    (0.0, 0.02, 0.1, "util", "up"),        # band = the 0.02 util floor
    (50.0, 25.0, 0.5, "relative", "down"),  # perf --check's band
])
def test_delta_equal_to_band_does_not_flag(base, cur, tol, floor, worse):
    band = max(abs(base) * tol, _FLOORS[floor])
    assert abs(cur - base) == band
    assert band_score(base, cur, tol, floor=floor, worse=worse) == 1.0
    beyond = math.nextafter(cur, math.inf if worse == "up" else -math.inf)
    assert flags(base, beyond, tol, floor, worse)
    assert band_edge(base, tol, floor=floor, worse=worse) == cur


@pytest.mark.parametrize("base, tol", [(0.0, 0.5), (30.0, 0.0)])
def test_zero_band_flags_any_bad_move(base, tol):
    assert band_score(base, base, tol, floor="relative",
                      worse="down") == 0.0
    below = math.nextafter(base, -math.inf)
    assert flags(base, below, tol, floor="relative", worse="down")
