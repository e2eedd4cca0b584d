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

from repro.errors import MappingError, QueryError
from repro.lvm.volume import Extent

__all__ = ["RequestPlan", "Mapper", "coalesce_ranks", "enumerate_box"]


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
    if ranks.size == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    breaks = np.flatnonzero(np.diff(ranks) != 1)
    starts_idx = np.concatenate(([0], breaks + 1))
    ends_idx = np.concatenate((breaks, [ranks.size - 1]))
    starts = ranks[starts_idx]
    lengths = ranks[ends_idx] - starts + 1
    return starts, lengths


def enumerate_box(lo, hi) -> np.ndarray:
    """All integer coordinates of the half-open box [lo, hi) as an
    (n_cells, n_dims) array with dimension 0 varying fastest."""
    axes = [np.arange(int(a), int(b), dtype=np.int64) for a, b in zip(lo, hi)]
    grids = np.meshgrid(*axes, indexing="ij")
    # 'ij' indexing makes the *last* axis vary fastest when raveled; we
    # want dim 0 fastest, so transpose the stack order.
    stacked = np.stack([g.T.ravel() for g in grids], axis=1)
    return stacked


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
        dims = tuple(int(s) for s in dims)
        if not dims or any(s < 1 for s in dims):
            raise MappingError(f"invalid dims {dims}")
        if cell_blocks < 1:
            raise MappingError("cell_blocks must be >= 1")
        self.dims = dims
        self.extent = extent
        self.cell_blocks = int(cell_blocks)
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

    def beam_plan(self, axis: int, fixed, lo: int = 0, hi: int | None = None
                  ) -> RequestPlan:
        """Plan a beam query: all cells along ``axis`` with the other
        coordinates pinned to ``fixed`` (whose ``axis`` entry is ignored).

        The default implementation maps each cell and issues the (sorted,
        coalesced) result; subclasses override to exploit their layout.
        """
        coords = self._beam_coords(axis, fixed, lo, hi)
        ranks_lbns = np.sort(self.lbns(coords))
        starts, lengths = coalesce_ranks(
            self._expand_cells(ranks_lbns)
        )
        return RequestPlan.from_arrays(starts, lengths, "sorted", 0)

    def lbns_batch(self, coords_groups) -> list[np.ndarray]:
        """Translate many coordinate groups in one vectorised pass.

        Returns one LBN array per group, identical to calling
        :meth:`lbns` per group; concatenating first amortises the
        per-call translation cost across the whole batch (the per-chunk
        loop of a scatter-gather query, a reorg's per-copy translation).
        """
        groups = [self._check_coords(g) for g in coords_groups]
        if not groups:
            return []
        if len(groups) == 1:
            return [self.lbns(groups[0])]
        lbns = self.lbns(np.concatenate(groups, axis=0))
        splits = np.cumsum([g.shape[0] for g in groups[:-1]])
        return np.split(lbns, splits)

    # ------------------------------------------------------------------
    # shared helpers
    # ------------------------------------------------------------------

    def _beam_coords(self, axis, fixed, lo, hi) -> np.ndarray:
        if not 0 <= axis < self.n_dims:
            raise QueryError(f"axis {axis} out of range")
        hi = self.dims[axis] if hi is None else int(hi)
        if not 0 <= lo < hi <= self.dims[axis]:
            raise QueryError(f"beam span [{lo}, {hi}) invalid")
        fixed = tuple(fixed)
        if len(fixed) != self.n_dims:
            raise QueryError("fixed must have one entry per dimension")
        for d, v in enumerate(fixed):
            if d != axis and not 0 <= int(v) < self.dims[d]:
                raise QueryError(f"fixed[{d}]={v} out of range")
        count = hi - lo
        coords = np.empty((count, self.n_dims), dtype=np.int64)
        for d, v in enumerate(fixed):
            coords[:, d] = 0 if d == axis else int(v)
        coords[:, axis] = np.arange(lo, hi)
        return coords

    def _check_box(self, lo, hi) -> tuple[tuple[int, ...], tuple[int, ...]]:
        lo = tuple(int(v) for v in lo)
        hi = tuple(int(v) for v in hi)
        if len(lo) != self.n_dims or len(hi) != self.n_dims:
            raise QueryError("box rank does not match dataset rank")
        for d in range(self.n_dims):
            if not 0 <= lo[d] < hi[d] <= self.dims[d]:
                raise QueryError(
                    f"box [{lo[d]}, {hi[d]}) invalid on axis {d}"
                )
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

    def _expand_cells(self, first_lbns: np.ndarray) -> np.ndarray:
        """Turn per-cell first-LBNs into per-block LBNs (cell_blocks > 1)."""
        if self.cell_blocks == 1:
            return first_lbns
        offs = np.arange(self.cell_blocks, dtype=np.int64)
        return (first_lbns[:, np.newaxis] + offs).ravel()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(dims={self.dims})"
