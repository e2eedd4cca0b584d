"""Mechanical timing model of a disk drive.

This module captures everything about a drive that is *time* rather than
*layout*: rotation speed, head settle time, and the seek-time curve.

The seek curve follows the three-region shape that the MultiMap paper's
Figure 1(a) sketches and that drive-characterisation studies (Schlosser et
al., FAST 2005) report for real drives:

1. **Settle region** — for short seeks of up to ``settle_cylinders`` (the
   paper's *C*), seek time is flat and equal to the head settle time.  This
   flat region is what makes *adjacent blocks* possible: any of ``D = R * C``
   nearby tracks can be reached for the same cost.
2. **Square-root region** — for medium distances the arm accelerates and
   decelerates, giving the classic ``a + b * sqrt(d)`` shape.
3. **Linear region** — long seeks are dominated by coast time, linear in
   distance.

The curve is parameterised by four anchor points (settle time, average seek
at one third of full stroke, full-stroke time) and is continuous across the
region boundaries.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from repro.errors import GeometryError

__all__ = ["SeekProfile", "DiskMechanics"]


@dataclass(frozen=True)
class SeekProfile:
    """Piecewise seek-time curve (all times in milliseconds).

    Parameters
    ----------
    settle_ms:
        Head settle time; the cost of any seek within the settle region.
    settle_cylinders:
        The paper's *C*: largest cylinder distance whose seek cost is still
        just the settle time.
    max_cylinders:
        Full-stroke distance (number of cylinders on the drive minus one).
    avg_seek_ms:
        Seek time at one third of the full stroke, the usual "average seek"
        figure from drive spec sheets.
    full_stroke_ms:
        Seek time across the whole surface.
    step_ms:
        Discrete jump right after the settle region — the knee visible in
        the paper's Figure 1(a).  Makes the boundary at *C* crisp, which is
        what lets characterisation tools find it.
    """

    settle_ms: float
    settle_cylinders: int
    max_cylinders: int
    avg_seek_ms: float
    full_stroke_ms: float
    step_ms: float = 0.1

    def __post_init__(self) -> None:
        if self.settle_ms <= 0:
            raise GeometryError("settle_ms must be positive")
        if self.settle_cylinders < 1:
            raise GeometryError("settle_cylinders must be >= 1")
        if self.max_cylinders <= self.settle_cylinders:
            raise GeometryError("max_cylinders must exceed settle_cylinders")
        if not self.settle_ms <= self.avg_seek_ms <= self.full_stroke_ms:
            raise GeometryError(
                "expected settle_ms <= avg_seek_ms <= full_stroke_ms"
            )

    @property
    def knee_cylinders(self) -> int:
        """Distance separating the sqrt region from the linear region."""
        return max(self.settle_cylinders + 1, self.max_cylinders // 3)

    def _sqrt_coeff(self) -> float:
        span = self.knee_cylinders - self.settle_cylinders
        return max(
            self.avg_seek_ms - self.settle_ms - self.step_ms, 0.0
        ) / math.sqrt(span)

    def _linear_coeff(self) -> float:
        span = self.max_cylinders - self.knee_cylinders
        if span <= 0:
            return 0.0
        return (self.full_stroke_ms - self.avg_seek_ms) / span

    def time(self, distance):
        """Seek time in ms for a cylinder ``distance`` (scalar or ndarray).

        A distance of zero costs nothing (no arm motion).  Any distance in
        ``1..settle_cylinders`` costs exactly the settle time.
        """
        d = np.asarray(distance, dtype=np.float64)
        knee = self.knee_cylinders
        b1 = self._sqrt_coeff()
        b2 = self._linear_coeff()
        out = np.where(
            d <= 0,
            0.0,
            np.where(
                d <= self.settle_cylinders,
                self.settle_ms,
                np.where(
                    d <= knee,
                    self.settle_ms
                    + self.step_ms
                    + b1 * np.sqrt(np.maximum(d - self.settle_cylinders, 0.0)),
                    self.avg_seek_ms + b2 * (d - knee),
                ),
            ),
        )
        if np.isscalar(distance) or np.ndim(distance) == 0:
            return float(out)
        return out


@dataclass(frozen=True)
class DiskMechanics:
    """Full mechanical parameter set of a drive.

    Parameters
    ----------
    rpm:
        Spindle speed in revolutions per minute.
    seek:
        The :class:`SeekProfile` for arm movement.
    head_switch_ms:
        Time to activate a different head on the same cylinder.  Modern
        drives settle after a head switch exactly like after a short seek,
        which is the premise of the adjacency model; by default it equals
        the settle time.
    command_overhead_ms:
        Per-command processing cost (host/bus/firmware) paid once per
        request, not per sector.  This is what makes chains of small
        non-contiguous requests expensive in practice — a block a few
        sectors ahead is missed while the completion is processed — and
        why the adjacency offset must include a matching margin.
    """

    rpm: float
    seek: SeekProfile
    head_switch_ms: float | None = None
    command_overhead_ms: float = 0.0

    def __post_init__(self) -> None:
        if self.rpm <= 0:
            raise GeometryError("rpm must be positive")
        if self.command_overhead_ms < 0:
            raise GeometryError("command_overhead_ms must be >= 0")
        if self.head_switch_ms is None:
            object.__setattr__(self, "head_switch_ms", self.seek.settle_ms)

    @property
    def rotation_ms(self) -> float:
        """Time of one full revolution, in milliseconds."""
        return 60_000.0 / self.rpm

    @property
    def settle_ms(self) -> float:
        return self.seek.settle_ms

    @property
    def settle_cylinders(self) -> int:
        return self.seek.settle_cylinders

    def seek_time(self, distance):
        """Arm seek time for a cylinder distance (scalar or array), in ms."""
        return self.seek.time(distance)

    def avg_rotational_latency_ms(self) -> float:
        """Expected rotational delay for a randomly placed target block."""
        return self.rotation_ms / 2.0

    def with_settle(self, settle_ms: float) -> "DiskMechanics":
        """Return a copy with a different settle time (used in ablations)."""
        seek = dataclasses.replace(
            self.seek,
            settle_ms=settle_ms,
            avg_seek_ms=max(self.seek.avg_seek_ms, settle_ms),
            full_stroke_ms=max(self.seek.full_stroke_ms, settle_ms),
        )
        return dataclasses.replace(self, seek=seek, head_switch_ms=settle_ms)
