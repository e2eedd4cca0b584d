"""Mapper API: how a multidimensional dataset turns into disk requests.

A :class:`Mapper` owns a dataset's grid ``dims`` and an :class:`Extent` on
one disk of a logical volume, and translates cells and queries into LBNs.
Its product is a :class:`RequestPlan` — runs of consecutive LBNs plus a
scheduling-policy hint — which the storage manager hands to the drive.

Cells occupy ``cell_blocks`` consecutive LBNs each (1 by default: the
paper's evaluation maps each cell to a single 512-byte block, §5.2).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.errors import (
    MappingError,
    QueryError,
    _check_count,
    _check_int,
    _check_ints,
    _check_shape,
)
from repro.lvm.volume import Extent

__all__ = ["RequestPlan", "Mapper", "box_columns", "coalesce_ranks",
           "enumerate_box", "sorted_unique"]


@dataclass
class RequestPlan:
    """Runs of consecutive LBNs plus an issue-order hint.

    ``policy`` is the order the storage manager issues the runs in:
    ``"sorted"`` (ascending LBN — what the paper's storage manager does for
    the linearised mappings), ``"fifo"`` (preserve the given order, e.g. a
    semi-sequential path), or ``"sptf"`` (let the drive's queue scheduler
    reorder within its window).

    ``merge_gap`` caps how large a hole (in blocks) the storage manager may
    read through when coalescing this plan: None defers to the manager's
    default (dense range scans), 0 restricts to exactly-touching runs
    (beams fetch sparse single blocks, per the paper's §5.2).
    """

    starts: np.ndarray
    lengths: np.ndarray
    policy: str = "sorted"
    merge_gap: int | None = None

    @property
    def n_runs(self) -> int:
        return int(self.starts.size)

    @property
    def n_blocks(self) -> int:
        return int(self.lengths.sum()) if self.lengths.size else 0

    def __post_init__(self) -> None:
        self.starts = np.asarray(self.starts, dtype=np.int64)
        self.lengths = np.asarray(self.lengths, dtype=np.int64)
        if self.starts.ndim != 1 or self.lengths.ndim != 1:
            raise MappingError("starts/lengths must be 1-D arrays")
        if self.starts.shape != self.lengths.shape:
            raise MappingError("starts/lengths shape mismatch")
        # empty plans are legal (a fully cache-resident query's miss
        # plan), but every present run must cover at least one block
        if self.lengths.size and int(self.lengths.min()) < 1:
            raise MappingError("run lengths must be >= 1")

    @classmethod
    def from_arrays(
        cls,
        starts: np.ndarray,
        lengths: np.ndarray,
        policy: str = "sorted",
        merge_gap: int | None = None,
    ) -> "RequestPlan":
        """Wrap already-valid int64 run arrays without re-validating.

        The trusted constructor of the preparation hot path (mappers,
        run merging, slice splitting): callers guarantee 1-D int64
        arrays of equal shape with all lengths >= 1.
        """
        plan = cls.__new__(cls)
        plan.starts = starts
        plan.lengths = lengths
        plan.policy = policy
        plan.merge_gap = merge_gap
        return plan


def coalesce_ranks(ranks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Collapse a sorted array of distinct ranks into (starts, lengths) of
    maximal consecutive runs."""
    ranks = np.asarray(ranks, dtype=np.int64)
    n = ranks.size
    # edge[i]: a run starts at i (i < n) or the last one ends (i == n);
    # a run's length is then the distance to the next edge
    edge = np.empty(n + 1, dtype=bool)
    edge[0] = edge[n] = True
    np.not_equal(ranks[1:], ranks[:-1] + 1, out=edge[1:n])
    bounds = np.flatnonzero(edge)
    return ranks[bounds[:-1]], bounds[1:] - bounds[:-1]


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """``np.unique`` of a 1-D int64 array, by one sort and a neighbour
    mask; equal to it element for element.

    On numpy 2.x a plain ``np.unique`` of integers takes a hash-based
    path: on one x86-64 core with numpy 2.4 it costs about 10 µs for 80
    values and 130 µs for 1,500, where this costs about 4 and 14 µs.
    Write batches deduplicate 80 to ~2,000 LBNs at a time.
    """
    out = np.sort(values)
    if out.size > 1:
        keep = np.empty(out.size, dtype=bool)
        keep[0] = True
        np.not_equal(out[1:], out[:-1], out=keep[1:])
        out = out[keep]
    return out


def enumerate_box(lo, hi) -> np.ndarray:
    """All integer coordinates of the half-open box [lo, hi) as an
    (n_cells, n_dims) array with dimension 0 varying fastest."""
    axes = [np.arange(int(a), int(b), dtype=np.int64) for a, b in zip(lo, hi)]
    grids = np.meshgrid(*axes, indexing="ij")
    # 'ij' indexing makes the *last* axis vary fastest when raveled; we
    # want dim 0 fastest, so transpose the stack order.
    stacked = np.stack([g.T.ravel() for g in grids], axis=1)
    return stacked


def box_columns(lo, hi) -> list[np.ndarray]:
    """One index vector per axis of the half-open box [lo, hi), shaped so
    that they broadcast together: axis d's vector lies along array axis
    ``-1 - d``, so the ravel of any broadcast sum lists the box's cells
    with dimension 0 varying fastest, in :func:`enumerate_box` order."""
    return [
        np.arange(a, b, dtype=np.int64).reshape((-1,) + (1,) * d)
        for d, (a, b) in enumerate(zip(lo, hi))
    ]


class Mapper(ABC):
    """Base class of every data-placement algorithm in this package."""

    #: short identifier used by benchmarks and reports
    name: str = "abstract"

    def __init__(
        self,
        dims,
        extent: Extent | None,
        cell_blocks: int = 1,
        disk: int | None = None,
    ):
        self.dims = _check_shape(dims, MappingError)
        self.extent = extent
        self.cell_blocks = _check_count("cell_blocks", cell_blocks,
                                        MappingError)
        if disk is None:
            disk = extent.disk if extent is not None else 0
        self.disk_index = int(disk)

    @property
    def n_dims(self) -> int:
        return len(self.dims)

    @property
    def n_cells(self) -> int:
        return int(np.prod(self.dims))

    # ------------------------------------------------------------------
    # to be provided by subclasses
    # ------------------------------------------------------------------

    @abstractmethod
    def lbns(self, coords) -> np.ndarray:
        """First LBN of each cell; ``coords`` is (n_cells, n_dims)."""

    @abstractmethod
    def range_plan(self, lo, hi) -> RequestPlan:
        """Plan fetching every cell of the half-open box [lo, hi)."""

    @abstractmethod
    def beam_plan(self, axis: int, fixed, lo: int = 0, hi: int | None = None
                  ) -> RequestPlan:
        """Plan a beam query: all cells along ``axis`` with the other
        coordinates pinned to ``fixed`` (whose ``axis`` entry is ignored)."""

    # ------------------------------------------------------------------
    # shared helpers
    # ------------------------------------------------------------------

    def _check_beam(self, axis, fixed, lo, hi
                    ) -> tuple[int, tuple[int, ...], int, int]:
        """A beam's ``(axis, fixed, lo, hi)`` as Python ints, ``hi``
        resolved; every entry must be an integer (numpy integers
        included, bools not), else :class:`QueryError`."""
        dims = self.dims
        axis = _check_int("axis", axis)
        if not 0 <= axis < len(dims):
            raise QueryError(f"axis {axis} out of range")
        lo = _check_int("lo", lo)
        hi = dims[axis] if hi is None else _check_int("hi", hi)
        if not 0 <= lo < hi <= dims[axis]:
            raise QueryError(f"beam span [{lo}, {hi}) invalid")
        fixed = _check_ints("fixed", fixed)
        if len(fixed) != len(dims):
            raise QueryError("fixed must have one entry per dimension")
        for d, (v, s) in enumerate(zip(fixed, dims)):
            if d != axis and not 0 <= v < s:
                raise QueryError(f"fixed[{d}]={v} out of range")
        return axis, fixed, lo, hi

    def _check_box(self, lo, hi) -> tuple[tuple[int, ...], tuple[int, ...]]:
        dims = self.dims
        lo = _check_ints("lo", lo)
        hi = _check_ints("hi", hi)
        if len(lo) != len(dims) or len(hi) != len(dims):
            raise QueryError("box rank does not match dataset rank")
        for d, (a, b, s) in enumerate(zip(lo, hi, dims)):
            if not 0 <= a < b <= s:
                raise QueryError(f"box [{a}, {b}) invalid on axis {d}")
        return lo, hi

    def _check_coords(self, coords) -> np.ndarray:
        arr = np.asarray(coords)
        if arr.dtype.kind not in "iu":
            # floats would truncate silently; bools would read as 0/1
            raise QueryError(
                f"coords must be integers, got dtype {arr.dtype}"
            )
        arr = arr.astype(np.int64, copy=False)
        if arr.ndim == 1:
            arr = arr[np.newaxis, :]
        if arr.ndim != 2 or arr.shape[1] != self.n_dims:
            raise QueryError("coords must be (n_cells, n_dims)")
        if arr.size:
            upper = np.asarray(self.dims, dtype=np.int64)
            if arr.min() < 0 or (arr >= upper).any():
                raise QueryError("coordinate out of dataset bounds")
        return arr

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(dims={self.dims})"
