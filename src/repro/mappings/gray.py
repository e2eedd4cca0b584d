"""Gray-coded curve mapping (Faloutsos 1986).

The paper lists the Gray-coded curve with Z-order and Hilbert among the
linearising approaches of prior work; it is included here as an extra
baseline (its clustering sits between Z-order and Hilbert).
"""

from __future__ import annotations

import numpy as np

from repro.api.registry import register_layout
from repro.mappings import curves
from repro.mappings.linear import CurveMapper

__all__ = ["GrayMapper"]


@register_layout("gray")
class GrayMapper(CurveMapper):
    """Cells ordered along the binary-reflected Gray-code curve."""

    name = "gray"

    def encode(self, coords: np.ndarray) -> np.ndarray:
        return curves.gray_rank(coords, self.bits)

    def encode_box(self, lo, hi) -> np.ndarray:
        return curves.gray_rank_box(lo, hi, self.bits)
