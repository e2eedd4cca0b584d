"""Query classes of the paper's evaluation (§5.1) and random generators.

* **Beam queries** are 1-D queries retrieving cells along a line parallel
  to one dimension (e.g. velocity history of one point in the earthquake
  dataset).
* **Range queries** fetch an N-D equal-length cube with a selectivity of
  p% of the dataset, anchored at a random position.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import QueryError, _check_float, _check_int, _check_ints

__all__ = [
    "BeamQuery",
    "RangeQuery",
    "check_selectivity",
    "random_beam",
    "random_range_cube",
    "range_for_selectivity",
]


@dataclass(frozen=True)
class BeamQuery:
    """All cells along ``axis`` with the other coordinates pinned."""

    axis: int
    fixed: tuple[int, ...]
    lo: int = 0
    hi: int | None = None

    def __post_init__(self) -> None:
        # numpy integers are accepted but stored as Python ints, so
        # every downstream count and JSON field is a plain int
        set_ = object.__setattr__
        set_(self, "axis", _check_int("axis", self.axis))
        set_(self, "fixed", _check_ints("fixed", self.fixed))
        set_(self, "lo", _check_int("lo", self.lo))
        if self.hi is not None:
            set_(self, "hi", _check_int("hi", self.hi))

    @classmethod
    def from_ints(cls, axis: int, fixed: tuple[int, ...]) -> "BeamQuery":
        """A full-length beam from Python ints the caller has checked
        (``fixed`` a tuple), set in one step: the trusted constructor of
        the query draws, which skips ``__post_init__``'s checks and the
        frozen dataclass's field-by-field ``__setattr__``."""
        query = cls.__new__(cls)
        query.__dict__.update(axis=axis, fixed=fixed, lo=0, hi=None)
        return query

    def n_cells(self, dims) -> int:
        hi = dims[self.axis] if self.hi is None else self.hi
        return hi - self.lo


@dataclass(frozen=True)
class RangeQuery:
    """The half-open box [lo, hi)."""

    lo: tuple[int, ...]
    hi: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "lo", _check_ints("lo", self.lo))
        object.__setattr__(self, "hi", _check_ints("hi", self.hi))

    @classmethod
    def from_ints(cls, lo: tuple[int, ...], hi: tuple[int, ...]
                  ) -> "RangeQuery":
        """A box from tuples of Python ints the caller has checked, set
        in one step (see :meth:`BeamQuery.from_ints`)."""
        query = cls.__new__(cls)
        query.__dict__.update(lo=lo, hi=hi)
        return query

    def n_cells(self, dims=None) -> int:
        return int(
            np.prod(
                [b - a for a, b in zip(self.lo, self.hi)], dtype=np.int64
            )
        )

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(b - a for a, b in zip(self.lo, self.hi))


def random_beam(dims, axis: int, rng: np.random.Generator) -> BeamQuery:
    """Full-length beam along ``axis`` at a random position."""
    dims = tuple(int(s) for s in dims)
    axis = _check_int("axis", axis)
    if not 0 <= axis < len(dims):
        raise QueryError(f"axis {axis} out of range for dims {dims}")
    fixed = tuple(
        int(rng.integers(0, s)) if d != axis else 0
        for d, s in enumerate(dims)
    )
    return BeamQuery.from_ints(axis, fixed)


def check_selectivity(pct) -> float:
    """A range selectivity in percent as a float: a finite number in
    (0, 100], not a bool; anything else raises :class:`QueryError`."""
    pct = _check_float("selectivity", pct)
    if not 0 < pct <= 100:
        raise QueryError("selectivity must be in (0, 100]")
    return pct


def range_for_selectivity(dims, selectivity_pct: float) -> tuple[int, ...]:
    """Side lengths of an equal-length cube covering ~p% of the dataset.

    When a dimension is too short for the equal side, it is used fully and
    the remaining volume is redistributed over the other dimensions (so
    100% selectivity covers the whole dataset even for non-cubic grids).
    """
    dims = tuple(int(s) for s in dims)
    selectivity_pct = check_selectivity(selectivity_pct)
    target = selectivity_pct / 100.0 * float(np.prod(dims, dtype=np.float64))
    shape = [0] * len(dims)
    free = list(range(len(dims)))
    remaining = target
    while free:
        side = remaining ** (1.0 / len(free))
        clamped = [d for d in free if dims[d] <= side]
        if not clamped:
            w = max(1, round(side))
            for d in free:
                shape[d] = min(dims[d], w)
            break
        for d in clamped:
            shape[d] = dims[d]
            remaining /= dims[d]
            free.remove(d)
    return tuple(shape)


def random_range_cube(
    dims, selectivity_pct: float, rng: np.random.Generator
) -> RangeQuery:
    """Equal-length cube of ~p% selectivity at a random anchor (§5.1:
    "the borders of range queries are generated randomly")."""
    dims = tuple(int(s) for s in dims)
    shape = range_for_selectivity(dims, selectivity_pct)
    lo = tuple(
        int(rng.integers(0, s - w + 1)) for s, w in zip(dims, shape)
    )
    hi = tuple(a + w for a, w in zip(lo, shape))
    return RangeQuery.from_ints(lo, hi)
