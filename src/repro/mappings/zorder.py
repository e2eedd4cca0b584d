"""Z-order (Morton) mapping — the first space-filling-curve baseline."""

from __future__ import annotations

import numpy as np

from repro.api.registry import register_layout
from repro.mappings import curves
from repro.mappings.linear import CurveMapper

__all__ = ["ZOrderMapper"]


@register_layout("zorder")
class ZOrderMapper(CurveMapper):
    """Cells ordered by Morton code, rank-compacted to consecutive LBNs."""

    name = "zorder"

    def encode(self, coords: np.ndarray) -> np.ndarray:
        return curves.morton_encode(coords, self.bits)

    def encode_box(self, lo, hi) -> np.ndarray:
        return curves.morton_encode_box(lo, hi, self.bits)
