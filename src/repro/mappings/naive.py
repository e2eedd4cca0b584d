"""Naive mapping: row-major linearisation along Dim0 (the paper's baseline).

The N-D space is linearised with dimension 0 varying fastest, so Dim0
enjoys sequential access and every other dimension strides.  Beam and
range plans are computed arithmetically — no per-cell enumeration — since
rows along Dim0 are contiguous by construction.
"""

from __future__ import annotations

import numpy as np

from repro.api.registry import register_layout
from repro.mappings.base import RequestPlan, enumerate_box
from repro.mappings.linear import LinearMapper

__all__ = ["NaiveMapper"]


@register_layout("naive")
class NaiveMapper(LinearMapper):
    """Row-major (Dim0-fastest) linearisation."""

    name = "naive"

    def rank(self, coords: np.ndarray) -> np.ndarray:
        return coords @ self._strides

    def range_plan(self, lo, hi) -> RequestPlan:
        lo, hi = self._check_box(lo, hi)
        # One run per row: the Dim0 extent is contiguous; enumerate only
        # the non-Dim0 coordinates.
        row_len = (hi[0] - lo[0]) * self.cell_blocks
        if self.n_dims == 1:
            rows = np.zeros((1, 1), dtype=np.int64)
        else:
            rows = enumerate_box(lo[1:], hi[1:])
        anchors = np.empty((rows.shape[0], self.n_dims), dtype=np.int64)
        anchors[:, 0] = lo[0]
        if self.n_dims > 1:
            anchors[:, 1:] = rows
        starts = self.extent.start + self.rank(anchors) * self.cell_blocks
        # Merge rows that happen to be contiguous (full-width spans).
        starts.sort()
        lengths = np.full(starts.shape, row_len, dtype=np.int64)
        merged = np.flatnonzero(starts[1:] != starts[:-1] + row_len)
        run_start_idx = np.concatenate(([0], merged + 1))
        run_end_idx = np.concatenate((merged, [starts.size - 1]))
        return RequestPlan.from_arrays(
            starts[run_start_idx],
            starts[run_end_idx] + row_len - starts[run_start_idx],
            "sorted",
        )
