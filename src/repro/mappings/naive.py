"""Naive mapping: row-major linearisation along Dim0 (the paper's baseline).

The N-D space is linearised with dimension 0 varying fastest, so Dim0
enjoys sequential access and every other dimension strides.  Beam and
range plans are computed arithmetically — no per-cell enumeration — since
rows along Dim0 are contiguous by construction: a beam is one run, or
one ``arange`` of single-cell runs a stride apart, and a box lists its
runs (one per Dim0 row, or per block of rows where the box spans the
leading axes) from broadcast per-axis index vectors.
"""

from __future__ import annotations

import numpy as np

from repro.api.registry import register_layout
from repro.mappings.base import RequestPlan, box_columns
from repro.mappings.linear import LinearMapper

__all__ = ["NaiveMapper"]


@register_layout("naive")
class NaiveMapper(LinearMapper):
    """Row-major (Dim0-fastest) linearisation."""

    name = "naive"

    def flat_rank(self, flats: np.ndarray) -> np.ndarray:
        return flats

    def beam_plan(self, axis: int, fixed, lo: int = 0, hi: int | None = None
                  ) -> RequestPlan:
        first, step, count = self._beam_span(axis, fixed, lo, hi)
        cb = self.cell_blocks
        start = self.extent.start + first * cb
        if step == 1:
            # the beam is one contiguous row
            return RequestPlan.from_arrays(
                np.array([start], dtype=np.int64),
                np.array([count * cb], dtype=np.int64), "sorted", 0,
            )
        # cells a stride apart never touch: one run per cell
        return RequestPlan.from_arrays(
            np.arange(start, start + step * cb * count, step * cb,
                      dtype=np.int64),
            np.full(count, cb, dtype=np.int64), "sorted", 0,
        )

    def range_plan(self, lo, hi) -> RequestPlan:
        lo, hi = self._check_box(lo, hi)
        # Axes below k span the whole grid, so each run covers axis k's
        # span for one combination of the coordinates above it (k = 0
        # unless the box is full-width along Dim0): one run per such
        # combination, listed by broadcast index vectors in ascending
        # LBN order.
        k = 0
        while k < self.n_dims - 1 and hi[k] - lo[k] == self.dims[k]:
            k += 1
        cb = self.cell_blocks
        strides = self._strides
        starts = self.extent.start + lo[k] * strides[k] * cb
        for col, stride in zip(box_columns(lo[k + 1:], hi[k + 1:]),
                               strides[k + 1:]):
            starts = starts + col * (stride * cb)
        starts = np.ravel(starts)
        run_len = (hi[k] - lo[k]) * strides[k] * cb
        return RequestPlan.from_arrays(
            starts, np.full(starts.size, run_len, dtype=np.int64), "sorted"
        )
