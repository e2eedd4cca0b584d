"""Choosing basic-cube dimensions for a dataset (paper §4.4).

The paper leaves the choice of ``K_i`` to the system ("a system can choose
the best basic cube size based on the dimensions of its datasets"), noting
only that bigger cubes preserve more locality and that short-``S0``
datasets waste ``(T mod K0) / T`` of each track.  This module makes the
choice explicit:

* ``K0 = min(S0, T)`` — the track length is not tunable;
* inner dimensions are searched under the Equation 3 budget
  (``prod <= D``), with two strategies:

  - ``"compact"`` (default): minimise the total tracks the dataset
    allocates, counting cube-grid padding, track packing and zone-end
    fragmentation — what a space-conscious system would do;
  - ``"volume"``: maximise cube volume, the paper's "bigger is better"
    guidance, ignoring padding.

* ``K_{N-1} = min(S_{N-1}, zone_tracks / prod(K_1..K_{N-2}))`` (Eq. 2).

The planner also reports the §4.4 waste diagnostics, which the README's
"Deviations from the paper" section uses to explain the paper-scale
Fig. 6b deficit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.basic_cube import BasicCube
from repro.errors import MappingError
from repro.perf.memo import MEMO

__all__ = ["CubePlan", "plan_basic_cube", "track_waste_fraction"]


@dataclass(frozen=True)
class CubePlan:
    """A planned basic cube plus the allocation bookkeeping around it."""

    cube: BasicCube
    dims: tuple[int, ...]
    grid: tuple[int, ...]          # cubes per dimension (ceil(S_i / K_i))
    packing: int                   # cubes sharing one track group (T // K0)
    total_cubes: int
    total_track_groups: int
    total_tracks: int
    waste_fraction: float          # §4.4 track waste for this K0

    @property
    def K(self) -> tuple[int, ...]:
        return self.cube.K


def track_waste_fraction(track_length: int, k0: int, packing: int) -> float:
    """§4.4: fraction of each track left unmapped, (T mod K0)/T with
    packing, zero when the row spans the whole track."""
    used = packing * k0
    return (track_length - used) / track_length


def _inner_candidates(dims, depth: int):
    """Enumerate every (K1 .. K_{N-2}) tuple with prod <= depth.

    The Equation 3 budget keeps this space small (O(D polylog D) tuples),
    so exhaustive enumeration is affordable and avoids the greedy trap
    where a larger side pads the cube grid more than it helps.
    """
    inner_dims = dims[1:-1]
    if not inner_dims:
        yield ()
        return

    def rec(prefix: tuple[int, ...], budget: int, remaining):
        if not remaining:
            yield prefix
            return
        s = remaining[0]
        for k in range(1, min(s, budget) + 1):
            yield from rec(prefix + (k,), budget // k, remaining[1:])

    yield from rec((), depth, tuple(int(s) for s in inner_dims))


def _plan_cost(dims, K, track_length, zone_tracks, packing):
    """Total tracks the dataset would allocate under this cube shape.

    Counts cube-grid padding (ceil(S/K) rounding) and track-slot packing.
    Zone-end remainders are *not* charged: the allocator lays groups
    contiguously and the remainder stays available to other data.
    """
    grid = tuple(-(-s // k) for s, k in zip(dims, K))
    total_cubes = int(np.prod(grid, dtype=np.int64))
    tracks_per_cube = int(np.prod(K[1:], dtype=np.int64)) if len(K) > 1 else 1
    groups = -(-total_cubes // packing)
    return groups * tracks_per_cube, grid, total_cubes, groups


def plan_basic_cube(
    dims,
    track_length: int,
    zone_tracks: int,
    depth: int,
    strategy: str = "compact",
) -> CubePlan:
    """Choose basic-cube sides for a dataset in a zone.

    Parameters
    ----------
    dims:
        Dataset side lengths (S_i), in cells.
    track_length:
        Zone track length *T* in cells (callers divide by the cell size).
    zone_tracks:
        Tracks available per zone (Equation 2 bound).
    depth:
        Adjacency distance *D*.
    strategy:
        ``"compact"`` or ``"volume"`` (see module docstring).
    """
    dims = tuple(int(s) for s in dims)
    if not dims or any(s < 1 for s in dims):
        raise MappingError(f"invalid dataset dims {dims}")
    if strategy not in ("compact", "volume"):
        raise MappingError(f"unknown strategy {strategy!r}")
    n = len(dims)
    if n > 2 and depth < 1:
        raise MappingError("adjacency depth must be >= 1")

    # a pure function of its (validated) arguments returning a frozen
    # plan: memoize it, so with_layout/with_shards clones and the
    # cube_aligned granule probe share one copy instead of re-searching
    memo_key = (
        dims, int(track_length), int(zone_tracks), int(depth), strategy
    )
    cached = MEMO.get("cube_plan", memo_key)
    if cached is not None:
        return cached

    # K0 candidates: the natural min(S0, T) plus shorter rows that let
    # several cubes pack per track with little tail waste — splitting Dim0
    # is cheap because consecutive cubes share track groups, so rows stay
    # contiguous across the split.
    k0_set = {min(dims[0], track_length)}
    for p in range(2, 17):
        k0 = min(dims[0], track_length // p)
        if k0 >= 1:
            k0_set.add(k0)

    candidates = []
    for k0 in sorted(k0_set, reverse=True):
        packing = max(track_length // k0, 1)
        inner_tuples = [()] if n == 1 else _inner_candidates(dims, depth)
        for inner in inner_tuples:
            inner_vol = int(np.prod(inner, dtype=np.int64)) if inner else 1
            if n == 1:
                K = (k0,)
            else:
                k_last = max(1, min(dims[-1], zone_tracks // inner_vol))
                K = (k0,) + inner + (k_last,)
            tracks_per_cube = (
                int(np.prod(K[1:], dtype=np.int64)) if n > 1 else 1
            )
            if tracks_per_cube > zone_tracks:
                continue
            cost, grid, total_cubes, groups = _plan_cost(
                dims, K, track_length, zone_tracks, packing
            )
            candidates.append((cost, K, grid, total_cubes, groups, packing))

    if not candidates:
        raise MappingError(
            f"no basic cube fits dims {dims} in a zone of {zone_tracks}"
            f" tracks with D={depth}"
        )

    # Two-pass selection: space first, then locality among near-ties.
    # Within 10% of the minimum track count, prefer longer sides for
    # *later* dimensions (crossing a cube boundary along Dim_i jumps
    # prod(K1..K_{i-1}) tracks, so later dimensions pay the most for small
    # K_i), then larger cubes, then fewer tracks.
    min_cost = min(c[0] for c in candidates)
    if strategy == "compact":
        pool = [c for c in candidates if c[0] <= min_cost * 1.10]

        def rank(c):
            cost, K = c[0], c[1]
            later_first = tuple(-k for k in reversed(K[1:])) or (0,)
            return (later_first, -int(np.prod(K, dtype=np.int64)), cost)

    else:  # "volume": the paper's bigger-is-better guidance
        pool = candidates

        def rank(c):
            cost, K = c[0], c[1]
            later_first = tuple(-k for k in reversed(K[1:])) or (0,)
            return (-int(np.prod(K, dtype=np.int64)), cost, later_first)

    cost, K, grid, total_cubes, groups, packing = min(pool, key=rank)
    cube = BasicCube(K, track_length, zone_tracks, depth)
    plan = CubePlan(
        cube=cube,
        dims=dims,
        grid=grid,
        packing=packing,
        total_cubes=total_cubes,
        total_track_groups=groups,
        total_tracks=cost,
        waste_fraction=track_waste_fraction(track_length, K[0], packing),
    )
    MEMO.put("cube_plan", memo_key, plan)
    return plan
