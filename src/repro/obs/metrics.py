"""Counters, gauges, and fixed-bucket streaming histograms.

:class:`MetricsRegistry` holds named counters, per-phase time totals
(``timers_ms``), point-in-time gauges, and :class:`Histogram` s with
p50/p90/p99/p999 summaries.

Snapshots are **gated**: ``gauges``/``histograms`` keys appear only when
non-empty, the same convention every other layer's meta follows.

Timers and histogram values are simulated milliseconds, never wall
clock, so every number in an exported snapshot is deterministic under a
fixed seed.
"""

from __future__ import annotations

from repro.errors import ObsError

__all__ = ["DEFAULT_BUCKETS_MS", "Histogram", "MetricsRegistry"]

#: default latency bucket upper bounds (ms) — roughly logarithmic from
#: sub-millisecond cache service to multi-second storm makespans
DEFAULT_BUCKETS_MS = (
    0.25, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0,
    100.0, 200.0, 500.0, 1000.0, 2000.0, 5000.0, 10000.0,
)


def _q_label(q: float) -> str:
    """``0.5 -> "p50"``, ``0.999 -> "p999"``, ``0.95 -> "p95"`` — the
    dotless percentile keys the fixed summary always used."""
    return "p" + f"{q * 100:g}".replace(".", "")


class Histogram:
    """A fixed-bucket streaming histogram with interpolated quantiles.

    ``bounds`` are inclusive upper edges in ascending order; a value
    above the last edge lands in the overflow bucket.  Quantiles walk
    the cumulative counts and interpolate linearly inside the matched
    bucket (the overflow bucket interpolates up to the observed max),
    so they are monotone in ``q`` and exact at bucket edges.
    """

    __slots__ = ("bounds", "counts", "overflow", "count", "sum",
                 "min", "max")

    def __init__(self, bounds=DEFAULT_BUCKETS_MS):
        bounds = tuple(float(b) for b in bounds)
        if not bounds:
            raise ObsError("a histogram needs at least one bucket bound")
        if any(b <= a for a, b in zip(bounds, bounds[1:])):
            raise ObsError(
                f"histogram bounds must be strictly increasing: {bounds}"
            )
        self.bounds = bounds
        self.counts = [0] * len(bounds)
        self.overflow = 0
        self.count = 0
        self.sum = 0.0
        self.min = 0.0
        self.max = 0.0

    def observe(self, value: float) -> None:
        value = float(value)
        if self.count == 0:
            self.min = self.max = value
        else:
            self.min = min(self.min, value)
            self.max = max(self.max, value)
        self.count += 1
        self.sum += value
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[i] += 1
                return
        self.overflow += 1

    def quantile(self, q: float) -> float:
        """The ``q``-quantile (``q`` in [0, 1]) of the observed values,
        interpolated within the matched bucket; 0.0 when empty."""
        if not 0.0 <= q <= 1.0:
            raise ObsError(f"quantile q must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        target = q * self.count
        cum = 0
        lo = 0.0
        for bound, c in zip(self.bounds, self.counts):
            if c and cum + c >= target:
                return lo + (bound - lo) * max(target - cum, 0.0) / c
            cum += c
            lo = bound
        # overflow bucket: interpolate between the last edge and max
        hi = max(self.max, lo)
        c = self.overflow
        if c == 0:  # pragma: no cover - counts always sum to count
            return hi
        return lo + (hi - lo) * max(target - cum, 0.0) / c

    def fraction_le(self, value: float) -> float:
        """Fraction of observations ``<= value`` — the CDF counterpart
        of :meth:`quantile`, interpolated linearly within the matched
        bucket (the overflow bucket interpolates between the last edge
        and the observed max); 0.0 when empty.

        It is monotone in ``value``, exact at bucket edges, and the
        round trip ``fraction_le(quantile(q)) >= q`` holds — the
        properties the SLO burn-rate rule relies on to count the
        fraction of a window's queries over an objective.
        """
        value = float(value)
        if self.count == 0:
            return 0.0
        cum = 0.0
        lo = 0.0
        for bound, c in zip(self.bounds, self.counts):
            if value <= bound:
                frac = (value - lo) / (bound - lo)
                cum += c * min(max(frac, 0.0), 1.0)
                return min(cum / self.count, 1.0)
            cum += c
            lo = bound
        hi = max(self.max, lo)
        frac = (value - lo) / (hi - lo) if hi > lo else 1.0
        cum += self.overflow * min(max(frac, 0.0), 1.0)
        return min(cum / self.count, 1.0)

    def percentiles(self, qs=(0.50, 0.90, 0.99, 0.999)) -> dict:
        """A quantile summary at arbitrary points ``qs`` (each in
        [0, 1]), keyed ``p50``/``p95``/``p999``-style; the default is
        the standard latency summary."""
        return {_q_label(q): self.quantile(float(q)) for q in qs}

    def merge(self, other: "Histogram") -> "Histogram":
        """A new histogram observing both inputs' populations (bucket
        layouts must match)."""
        if not isinstance(other, Histogram):
            raise ObsError(
                f"can only merge Histogram, got {type(other).__name__}"
            )
        if self.bounds != other.bounds:
            raise ObsError(
                "cannot merge histograms with different bucket bounds"
            )
        out = Histogram(self.bounds)
        out.counts = [a + b for a, b in zip(self.counts, other.counts)]
        out.overflow = self.overflow + other.overflow
        out.count = self.count + other.count
        out.sum = self.sum + other.sum
        if self.count and other.count:
            out.min = min(self.min, other.min)
            out.max = max(self.max, other.max)
        elif self.count:
            out.min, out.max = self.min, self.max
        else:
            out.min, out.max = other.min, other.max
        return out

    def to_dict(self) -> dict:
        """JSON-friendly summary: totals, percentiles, bucket counts."""
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            **self.percentiles(),
            "buckets": [
                [bound, c] for bound, c in zip(self.bounds, self.counts)
            ],
            "overflow": self.overflow,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Histogram(count={self.count}, max={self.max})"


class MetricsRegistry:
    """Named counters, simulated-time totals, gauges, and histograms."""

    def __init__(self) -> None:
        self.counters: dict[str, int] = {}
        self.timers_ms: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self.histograms: dict[str, Histogram] = {}

    # -- writes --------------------------------------------------------

    def inc(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + int(n)

    def add_time(self, name: str, ms: float) -> None:
        self.timers_ms[name] = self.timers_ms.get(name, 0.0) + float(ms)

    def gauge(self, name: str, value: float) -> None:
        """Set a point-in-time value (last write wins)."""
        self.gauges[name] = float(value)

    def observe(self, name: str, value: float, *,
                buckets=DEFAULT_BUCKETS_MS) -> None:
        """Feed ``value`` into the named histogram (created on first
        use with ``buckets``; later calls keep the original layout)."""
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = Histogram(buckets)
        hist.observe(value)

    def reset(self) -> None:
        self.counters.clear()
        self.timers_ms.clear()
        self.gauges.clear()
        self.histograms.clear()

    # -- reads ---------------------------------------------------------

    def snapshot(self) -> dict:
        """A copy of the current totals; ``gauges``/``histograms``
        appear only when non-empty."""
        out = {
            "counters": {k: self.counters[k]
                         for k in sorted(self.counters)},
            "timers_ms": {k: self.timers_ms[k]
                          for k in sorted(self.timers_ms)},
        }
        if self.gauges:
            out["gauges"] = {k: self.gauges[k]
                             for k in sorted(self.gauges)}
        if self.histograms:
            out["histograms"] = {k: self.histograms[k].to_dict()
                                 for k in sorted(self.histograms)}
        return out
