"""Region octree over a 3-D cell grid.

The paper's earthquake dataset (Tu & O'Hallaron's etree meshes) indexes
~114 M variable-resolution elements with an octree whose leaves are the
elements.  This module provides the equivalent substrate: a pointerless
region octree over a ``2^depth``-sided grid, built by recursive refinement
of a user-supplied level function, with the queries the evaluation needs —
leaf lookup along lines (beam queries), leaf collection within boxes
(range queries), and maximal-uniform-subtree detection (§4.5).

Leaves are stored as locational codes ``(level, ix, iy, iz)`` where the
index triple addresses the leaf's cell in the ``2^level`` grid of that
level.  A leaf at level L covers ``2^(depth-L)`` finest-grid cells per
axis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import DatasetError

__all__ = ["OctreeLeaf", "Octree"]


@dataclass(frozen=True)
class OctreeLeaf:
    """One octree leaf (an 'element' of the dataset)."""

    level: int
    ix: int
    iy: int
    iz: int

    def extent(self, depth: int) -> tuple[tuple[int, int, int], int]:
        """(origin in finest-grid cells, side length in finest cells)."""
        side = 1 << (depth - self.level)
        return (self.ix * side, self.iy * side, self.iz * side), side


class Octree:
    """Pointerless region octree with level-function construction.

    Parameters
    ----------
    depth:
        Maximum refinement level; the finest grid is ``2^depth`` per axis.
    level_fn:
        ``level_fn(x, y, z, side)`` -> desired refinement level for the
        cube with origin ``(x, y, z)`` (finest-grid units) and ``side``
        cells per axis.  A node splits while its level is below the
        demanded level of any point it covers; for efficiency the function
        receives whole boxes and must return the *maximum* level needed
        inside the box.
    """

    def __init__(self, depth: int, level_fn):
        if not 1 <= depth <= 12:
            raise DatasetError("depth must be in [1, 12]")
        self.depth = depth
        self.side = 1 << depth
        self._level_fn = level_fn
        leaves: list[tuple[int, int, int, int]] = []
        self._build(0, 0, 0, 0, leaves)
        arr = np.asarray(leaves, dtype=np.int64)
        # canonical order: by level then z-y-x for reproducibility
        order = np.lexsort((arr[:, 1], arr[:, 2], arr[:, 3], arr[:, 0]))
        self._leaves = arr[order]

    def _build(self, level, ix, iy, iz, out) -> None:
        side = 1 << (self.depth - level)
        x, y, z = ix * side, iy * side, iz * side
        needed = self._level_fn(x, y, z, side)
        if level >= needed or level == self.depth:
            out.append((level, ix, iy, iz))
            return
        for dz in (0, 1):
            for dy in (0, 1):
                for dx in (0, 1):
                    self._build(
                        level + 1,
                        ix * 2 + dx,
                        iy * 2 + dy,
                        iz * 2 + dz,
                        out,
                    )

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------

    @property
    def n_leaves(self) -> int:
        return int(self._leaves.shape[0])

    def leaves(self) -> np.ndarray:
        """All leaves as an (n, 4) array of (level, ix, iy, iz)."""
        return self._leaves

    def leaf_origins(self) -> np.ndarray:
        """Finest-grid origin of each leaf plus per-leaf side, (n, 4)."""
        lv = self._leaves[:, 0]
        side = 1 << (self.depth - lv)
        coords = self._leaves[:, 1:4] * side[:, None]
        return np.concatenate([coords, side[:, None]], axis=1)

    def levels_histogram(self) -> dict[int, int]:
        vals, counts = np.unique(self._leaves[:, 0], return_counts=True)
        return {int(v): int(c) for v, c in zip(vals, counts)}

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def find_leaf(self, x: int, y: int, z: int) -> OctreeLeaf:
        """The leaf containing finest-grid cell (x, y, z)."""
        for c in (x, y, z):
            if not 0 <= c < self.side:
                raise DatasetError(f"cell ({x},{y},{z}) outside the grid")
        origins = self.leaf_origins()
        inside = (
            (origins[:, 0] <= x) & (x < origins[:, 0] + origins[:, 3])
            & (origins[:, 1] <= y) & (y < origins[:, 1] + origins[:, 3])
            & (origins[:, 2] <= z) & (z < origins[:, 2] + origins[:, 3])
        )
        idx = np.flatnonzero(inside)
        if idx.size != 1:
            raise DatasetError("octree invariant violated: overlap/gap")
        return OctreeLeaf(*map(int, self._leaves[int(idx[0])]))

    def leaves_in_box(self, lo, hi) -> np.ndarray:
        """Indices of leaves intersecting the finest-grid box [lo, hi)."""
        lo = tuple(int(v) for v in lo)
        hi = tuple(int(v) for v in hi)
        origins = self.leaf_origins()
        mask = np.ones(self.n_leaves, dtype=bool)
        for d in range(3):
            mask &= origins[:, d] < hi[d]
            mask &= origins[:, d] + origins[:, 3] > lo[d]
        return np.flatnonzero(mask)

    def leaves_on_line(self, axis: int, fixed: tuple[int, int]) -> np.ndarray:
        """Indices of leaves crossed by a grid line along ``axis``.

        ``fixed`` holds the two pinned coordinates in axis order (the
        other two dimensions, ascending).
        """
        if axis not in (0, 1, 2):
            raise DatasetError("axis must be 0, 1 or 2")
        lo = [0, 0, 0]
        hi = [self.side, self.side, self.side]
        others = [d for d in range(3) if d != axis]
        for d, v in zip(others, fixed):
            lo[d] = int(v)
            hi[d] = int(v) + 1
        idx = self.leaves_in_box(lo, hi)
        # order along the axis for beam semantics
        origins = self.leaf_origins()[idx]
        return idx[np.argsort(origins[:, axis], kind="stable")]

    # ------------------------------------------------------------------
    # uniform subtree detection (input to §4.5 region mapping)
    # ------------------------------------------------------------------

    def uniform_regions(self, min_level: int = 1) -> list[dict]:
        """Maximal axis-aligned octants whose leaves all share one level.

        Walks the tree top-down; a subtree is *uniform* when every leaf
        under it has the same level.  Returns one record per maximal
        uniform subtree: origin/side in finest-grid cells, the leaf level,
        leaf-grid shape inside the region, and the indices of its leaves.

        The recursion carries each octant's leaf-index subset downward
        (leaves never straddle octant boundaries), so the walk is
        O(n_leaves * depth) rather than O(n_leaves * nodes).
        """
        origins = self.leaf_origins()
        levels_all = self._leaves[:, 0]
        out: list[dict] = []

        def rec(level, ix, iy, iz, idx):
            if idx.size == 0:
                return
            levels = np.unique(levels_all[idx])
            if levels.size == 1 and int(levels[0]) >= level:
                side = 1 << (self.depth - level)
                x, y, z = ix * side, iy * side, iz * side
                leaf_level = int(levels[0])
                per_axis = 1 << (leaf_level - level)
                out.append(
                    {
                        "origin": (x, y, z),
                        "side": side,
                        "leaf_level": leaf_level,
                        "grid": (per_axis, per_axis, per_axis),
                        "leaf_indices": idx,
                    }
                )
                return
            if level == self.depth:
                return
            half = 1 << (self.depth - level - 1)
            x0 = ix * 2 * half
            y0 = iy * 2 * half
            z0 = iz * 2 * half
            ox = origins[idx, 0] >= x0 + half
            oy = origins[idx, 1] >= y0 + half
            oz = origins[idx, 2] >= z0 + half
            for dz in (0, 1):
                for dy in (0, 1):
                    for dx in (0, 1):
                        mask = (
                            (ox == bool(dx))
                            & (oy == bool(dy))
                            & (oz == bool(dz))
                        )
                        rec(
                            level + 1,
                            ix * 2 + dx,
                            iy * 2 + dy,
                            iz * 2 + dz,
                            idx[mask],
                        )

        rec(0, 0, 0, 0, np.arange(self.n_leaves, dtype=np.int64))
        return [r for r in out if r["leaf_level"] >= min_level]
