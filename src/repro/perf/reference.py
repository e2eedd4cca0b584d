"""Pure-Python reference preparation the fast path is pinned against.

:func:`reference_prepare` rebuilds a :class:`PreparedQuery` the slow,
obviously-correct way: enumerate the query's cells one by one, translate
each individually, expand cell blocks in Python, and coalesce with plain
loops — then apply the §5.2 issue-order rules (per-policy merge gap,
SPTF clamp) by hand.  A curve-mapped cell is translated without the
mapper's rank table: its curve code is encoded and binary-searched among
the grid's sorted codes (:func:`reference_codes`, built once per curve
class and grid dims in a small bounded cache), so a wrong table cannot
agree with its own reference; every other layout's cell goes through
``mapper.lbns``.  The hypothesis suite under
``tests/perf`` asserts the vectorized preparation — a one-disk
dataset's single prepared sub-plan — is bit-identical to this for
every registered layout, and the perf sweep
times the two against each other for its ``speedup_vs_reference``
metric.

Parity is pinned at the *prepared* level (after the storage manager's
run merging) rather than on raw mapper plans: MultiMap's axis-0 beam
plans may legitimately contain touching-but-unmerged runs per basic-cube
column, which any honest per-cell reference would have merged already;
after ``merge_gap=0`` coalescing the two descriptions coincide exactly.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from repro.core.multimap import MultiMapMapper
from repro.errors import QueryError
from repro.mappings.base import RequestPlan, enumerate_box
from repro.mappings.linear import CurveMapper
from repro.query.executor import PreparedQuery
from repro.query.scheduler import COALESCE_GAP_BLOCKS, SPTF_RUN_LIMIT
from repro.query.workload import BeamQuery, RangeQuery

__all__ = ["reference_prepare", "reference_codes", "reference_intersections"]


@functools.lru_cache(maxsize=8)
def _sorted_codes(cls, dims: tuple[int, ...]) -> np.ndarray:
    encode = cls(dims, None).encode
    lo, hi = [0] * len(dims), list(dims)
    slabs = []
    for s in range(dims[-1]):
        lo[-1], hi[-1] = s, s + 1
        slabs.append(encode(enumerate_box(lo, hi)))
    codes = np.sort(np.concatenate(slabs))
    codes.flags.writeable = False
    return codes


def reference_codes(mapper) -> np.ndarray | None:
    """Sorted curve codes of every cell of a curve mapper's grid (None
    for other layouts); a cell's rank is its code's position here."""
    if not isinstance(mapper, CurveMapper):
        return None
    return _sorted_codes(type(mapper), mapper.dims)


def _reference_lbn(mapper, cell: tuple[int, ...]) -> int:
    arr = np.asarray([cell], dtype=np.int64)
    codes = reference_codes(mapper)
    if codes is None:
        return int(mapper.lbns(arr)[0])
    arr = mapper._check_coords(arr)
    rank = int(np.searchsorted(codes, mapper.encode(arr))[0])
    return mapper.extent.start + rank * mapper.cell_blocks


def _reference_cells(mapper, query) -> list[tuple[int, ...]]:
    """The query's cells in issue order: beams walk their axis
    ascending, ranges enumerate with dimension 0 varying fastest (the
    :func:`~repro.mappings.base.enumerate_box` convention)."""
    if isinstance(query, BeamQuery):
        hi = mapper.dims[query.axis] if query.hi is None else int(query.hi)
        cells = []
        for v in range(int(query.lo), hi):
            c = [int(x) for x in query.fixed]
            c[query.axis] = v
            cells.append(tuple(c))
        return cells
    spans = [
        range(int(a), int(b)) for a, b in zip(query.lo, query.hi)
    ]
    return [
        tuple(reversed(c)) for c in itertools.product(*reversed(spans))
    ]


def _reference_raw_policy(mapper, query) -> tuple[str, int | None]:
    """The (policy, merge_gap) the mapper's raw plan carries."""
    multimap = isinstance(mapper, MultiMapMapper)
    if isinstance(query, BeamQuery):
        if multimap and int(query.axis) != 0:
            return "fifo", 0  # semi-sequential path, coordinate order
        return "sorted", 0
    if multimap and mapper.n_dims > 1:
        return "sptf", None
    return "sorted", None


def reference_prepare(storage, mapper, query) -> PreparedQuery:
    """Prepare ``query`` per-cell in pure Python (uncached path only)."""
    if getattr(storage, "cache", None) is not None:
        raise QueryError("reference_prepare models the uncached path")
    cells = _reference_cells(mapper, query)
    policy, merge_gap = _reference_raw_policy(mapper, query)
    cb = int(mapper.cell_blocks)
    lbns = [_reference_lbn(mapper, c) for c in cells]
    if policy == "fifo":
        # one cell per request, given order, never merged or clamped
        plan = RequestPlan(
            np.asarray(lbns, dtype=np.int64),
            np.full(len(lbns), cb, dtype=np.int64),
            policy="fifo",
            merge_gap=0,
        )
    else:
        blocks = sorted({b + i for b in lbns for i in range(cb)})
        gap = COALESCE_GAP_BLOCKS if merge_gap is None else merge_gap
        runs: list[list[int]] = []
        for b in blocks:
            if runs and b <= runs[-1][1] + gap:
                runs[-1][1] = b + 1  # read through the hole
            else:
                runs.append([b, b + 1])
        plan = RequestPlan(
            np.asarray([r[0] for r in runs], dtype=np.int64),
            np.asarray([r[1] - r[0] for r in runs], dtype=np.int64),
            policy=policy,
            merge_gap=merge_gap,
        )
    effective = plan.policy
    if effective == "sptf" and plan.n_runs > SPTF_RUN_LIMIT:
        effective = "sorted"
    n_cells = (
        query.n_cells(mapper.dims)
        if isinstance(query, BeamQuery)
        else query.n_cells()
    )
    return PreparedQuery(
        mapper_name=mapper.name,
        disk_index=mapper.disk_index,
        plan=plan,
        policy=effective,
        n_cells=int(n_cells),
    )


def reference_intersections(shard_map, lo, hi) -> list[tuple]:
    """The pre-vectorization per-chunk intersection loop, for pinning
    :meth:`~repro.shard.map.ShardMap.intersections`."""
    out = []
    ndim = len(shard_map.dims)
    for chunk in shard_map.chunks:
        llo, lhi = [], []
        for d in range(ndim):
            a = max(int(lo[d]), chunk.origin[d])
            b = min(int(hi[d]), chunk.origin[d] + chunk.shape[d])
            if a >= b:
                break
            llo.append(a - chunk.origin[d])
            lhi.append(b - chunk.origin[d])
        else:
            out.append((chunk, tuple(llo), tuple(lhi)))
    return out
