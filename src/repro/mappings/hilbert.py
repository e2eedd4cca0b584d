"""Hilbert-curve mapping — the second space-filling-curve baseline.

The paper cites Moon et al.'s result that Hilbert clusters better than
Z-order, which its measurements confirm; ours reproduce the same ordering.
"""

from __future__ import annotations

import numpy as np

from repro.api.registry import register_layout
from repro.mappings import curves
from repro.mappings.linear import CurveMapper

__all__ = ["HilbertMapper"]


@register_layout("hilbert")
class HilbertMapper(CurveMapper):
    """Cells ordered by Hilbert index, rank-compacted to consecutive LBNs."""

    name = "hilbert"

    def encode(self, coords: np.ndarray) -> np.ndarray:
        return curves.hilbert_encode(coords, self.bits)

    def encode_box(self, lo, hi) -> np.ndarray:
        return curves.hilbert_encode_box(lo, hi, self.bits)
