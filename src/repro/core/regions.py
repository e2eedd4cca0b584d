"""Mapping non-grid (skewed) datasets — paper §4.5.

Skewed datasets cannot be gridded wholesale without destroying space
utilisation, so MultiMap is applied *locally*: find subareas with uniform
density (on an octree index: maximal subtrees whose leaves share a level),
grow them by merging neighbours of similar density, map each resulting
region's leaf grid with MultiMap, and fall back to a linear layout for
whatever does not fit a grid.

This module implements that pipeline for 3-D octree-indexed datasets:

* :func:`merge_uniform_octants` — greedy box-growing over the maximal
  uniform subtrees reported by the octree ("we grow the area by
  incorporating its neighbors of similar density; with the octree
  structure, we just need to compare the levels of the elements");
* :class:`RegionMapping` — one MultiMap mapper per merged region plus a
  row-major fallback extent, with a leaf-index -> LBN translation used by
  the query layer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.multimap import MultiMapMapper
from repro.errors import MappingError
from repro.index.octree import Octree
from repro.lvm.volume import LogicalVolume

__all__ = ["UniformRegion", "merge_uniform_octants", "RegionMapping"]


@dataclass(frozen=True)
class UniformRegion:
    """An axis-aligned box of equal-size leaves (a gridded subarea)."""

    origin: tuple[int, int, int]     # finest-grid cells
    shape: tuple[int, int, int]      # finest-grid cells
    leaf_level: int
    leaf_side: int                   # finest cells per leaf per axis
    grid: tuple[int, int, int]       # leaves per axis

    @property
    def n_leaves(self) -> int:
        return int(np.prod(self.grid, dtype=np.int64))

    def leaf_local_coords(self, origins: np.ndarray) -> np.ndarray:
        """Leaf-grid coordinates of leaves given their cell origins."""
        rel = origins - np.asarray(self.origin, dtype=np.int64)
        return rel // self.leaf_side


def merge_uniform_octants(octree: Octree, min_leaves: int = 8) -> list[UniformRegion]:
    """Grow maximal uniform octants into larger box regions.

    Octants of the same size and leaf level are arranged on their natural
    grid; a greedy sweep grows each unclaimed octant into the largest
    axis-aligned box of present octants (+x, then +y, then +z).  Returns
    regions ordered by descending leaf count.
    """
    octants = octree.uniform_regions()
    by_key: dict[tuple[int, int], dict[tuple[int, int, int], dict]] = {}
    for oct_ in octants:
        key = (oct_["side"], oct_["leaf_level"])
        pos = tuple(o // oct_["side"] for o in oct_["origin"])
        by_key.setdefault(key, {})[pos] = oct_

    regions: list[UniformRegion] = []
    for (side, leaf_level), cells in by_key.items():
        unused = set(cells)
        while unused:
            seed = min(unused)  # deterministic
            ext = [1, 1, 1]
            # grow greedily one axis at a time
            for axis in range(3):
                while True:
                    if axis == 0:
                        face = [
                            (seed[0] + ext[0], seed[1] + dy, seed[2] + dz)
                            for dy in range(ext[1])
                            for dz in range(ext[2])
                        ]
                    elif axis == 1:
                        face = [
                            (seed[0] + dx, seed[1] + ext[1], seed[2] + dz)
                            for dx in range(ext[0])
                            for dz in range(ext[2])
                        ]
                    else:
                        face = [
                            (seed[0] + dx, seed[1] + dy, seed[2] + ext[2])
                            for dx in range(ext[0])
                            for dy in range(ext[1])
                        ]
                    if face and all(p in unused for p in face):
                        ext[axis] += 1
                    else:
                        break
            claimed = [
                (seed[0] + dx, seed[1] + dy, seed[2] + dz)
                for dx in range(ext[0])
                for dy in range(ext[1])
                for dz in range(ext[2])
            ]
            for p in claimed:
                unused.discard(p)
            leaf_side = 1 << (octree.depth - leaf_level)
            per_oct = side // leaf_side
            region = UniformRegion(
                origin=(seed[0] * side, seed[1] * side, seed[2] * side),
                shape=(ext[0] * side, ext[1] * side, ext[2] * side),
                leaf_level=leaf_level,
                leaf_side=leaf_side,
                grid=(ext[0] * per_oct, ext[1] * per_oct, ext[2] * per_oct),
            )
            if region.n_leaves >= min_leaves:
                regions.append(region)
    regions.sort(key=lambda r: -r.n_leaves)
    return regions


class RegionMapping:
    """MultiMap applied per uniform region, linear fallback elsewhere.

    Parameters
    ----------
    octree:
        The dataset's index.
    regions:
        Output of :func:`merge_uniform_octants` (possibly truncated).
    volume, disk:
        Where the data lives; each region allocates its own basic cubes.
    """

    def __init__(
        self,
        octree: Octree,
        regions: list[UniformRegion],
        volume: LogicalVolume,
        disk: int = 0,
    ):
        self.octree = octree
        self.regions = list(regions)
        self.volume = volume
        self.disk = disk

        origins = octree.leaf_origins()
        n = octree.n_leaves
        self._region_of_leaf = np.full(n, -1, dtype=np.int64)
        self._local = np.zeros((n, 3), dtype=np.int64)

        self.mappers: list[MultiMapMapper] = []
        for ri, region in enumerate(self.regions):
            mapper = MultiMapMapper(region.grid, volume, disk)
            self.mappers.append(mapper)
            sel = self._leaves_of_region(origins, region)
            self._region_of_leaf[sel] = ri
            self._local[sel] = region.leaf_local_coords(origins[sel, :3])

        # fallback: whatever is not in a mapped region, in canonical leaf
        # order on a plain extent (§4.5 "revert to traditional linear
        # mapping techniques")
        fallback = np.flatnonzero(self._region_of_leaf == -1)
        self._fallback_rank = np.full(n, -1, dtype=np.int64)
        self._fallback_rank[fallback] = np.arange(fallback.size)
        if fallback.size:
            self.fallback_extent = volume.allocate_blocks(
                disk, int(fallback.size)
            )
        else:
            self.fallback_extent = None
        self.n_fallback = int(fallback.size)

    @staticmethod
    def _leaves_of_region(origins: np.ndarray, region: UniformRegion):
        mask = origins[:, 3] == region.leaf_side
        for d in range(3):
            mask &= origins[:, d] >= region.origin[d]
            mask &= origins[:, d] < region.origin[d] + region.shape[d]
        return np.flatnonzero(mask)

    @property
    def coverage(self) -> float:
        """Fraction of leaves living inside MultiMap regions."""
        n = self.octree.n_leaves
        return (n - self.n_fallback) / n if n else 0.0

    def leaf_lbns(self, leaf_indices: np.ndarray) -> np.ndarray:
        """LBN of each requested leaf (one block per leaf)."""
        leaf_indices = np.asarray(leaf_indices, dtype=np.int64)
        out = np.empty(leaf_indices.shape, dtype=np.int64)
        regions = self._region_of_leaf[leaf_indices]
        for ri in np.unique(regions):
            sel = regions == ri
            idx = leaf_indices[sel]
            if ri < 0:
                if self.fallback_extent is None:
                    raise MappingError("leaf outside regions, no fallback")
                out[sel] = (
                    self.fallback_extent.start + self._fallback_rank[idx]
                )
            else:
                out[sel] = self.mappers[int(ri)].lbns(self._local[idx])
        return out
