"""Request-batch preparation between the mapper and the drive.

The storage manager of the paper sorts the LBNs of linearised mappings in
ascending order before issuing them ("an easy optimization ... that
significantly improves performance in practice", §5.2) and issues
semi-sequential batches all at once for the drive's internal scheduler to
order.  This module holds those batch transforms plus the policy clamp
that keeps windowed SPTF off absurdly large batches (positioning is
irrelevant once a batch is thousands of near-sequential runs, and the
scheduler's step per request would dominate simulation time).
"""

from __future__ import annotations

import numpy as np

from repro.errors import QueryError
from repro.mappings.base import RequestPlan, coalesce_ranks

__all__ = [
    "COALESCE_GAP_BLOCKS",
    "DEFAULT_WINDOW",
    "SPTF_RUN_LIMIT",
    "coalesce_lbns",
    "merge_plan_runs",
    "effective_policy",
    "slice_plan",
]

#: beyond this many runs, SPTF batches degrade to an elevator pass.  The
#: drive takes one scheduling step per request, ~3-4 µs each on the
#: planner's semi-sequential plans at window 128, so a batch at the limit
#: costs about half a second of host time.  The limit stays where the
#: simulated figures were produced: moving it moves them.
SPTF_RUN_LIMIT = 150_000

#: default drive command-queue depth for SPTF batches (real drives of the
#: paper's era exposed 32-256 tagged commands)
DEFAULT_WINDOW = 128

#: the largest hole, in blocks, that a sortable plan without its own
#: ``merge_gap`` (a range plan) reads through when its runs are
#: coalesced, since reading a short hole costs less than positioning for
#: the next run.  Like the run limit, moving it moves the figures.
COALESCE_GAP_BLOCKS = 24


def coalesce_lbns(lbns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort distinct block addresses and merge consecutive ones into runs."""
    lbns = np.unique(np.asarray(lbns, dtype=np.int64))
    return coalesce_ranks(lbns)


def merge_plan_runs(plan: RequestPlan, max_gap: int = 0) -> RequestPlan:
    """Merge nearby runs of a sorted plan into larger reads.

    ``max_gap`` is the largest hole (in blocks) worth reading through and
    discarding: re-positioning across a small gap costs at least the
    per-command overhead and risks a full missed revolution, while
    streaming through it costs only the gap's transfer time.  Real storage
    managers (and drive firmware read-ahead) do exactly this coalescing for
    skip-sequential patterns.  ``max_gap=0`` merges only touching runs.
    A plan with nothing to merge is returned as it is, not copied.
    """
    starts = plan.starts
    n = starts.size
    if n <= 1:
        return plan
    lengths = plan.lengths
    prev = starts[:-1]
    if max_gap >= 0 and (starts[1:] > prev + lengths[:-1] + max_gap).all():
        # Every run starts more than the gap past the previous run's
        # end, so the runs are sorted, disjoint and none merges: the
        # common case of plans whose runs coalesce_ranks already made
        # maximal.  (A negative gap could pass overlapping runs here.)
        return plan
    if not (starts[1:] >= prev).all():
        # a stable sort of already-ordered starts is the identity, so
        # only unordered plans pay for it
        order = np.argsort(starts, kind="stable")
        starts = starts[order]
        lengths = lengths[order]
    # Runs may overlap after mapping (never in practice, but be safe):
    # extend each end monotonically before measuring gaps.
    ends = np.maximum.accumulate(starts + lengths)
    # a run opens a new read when it starts beyond the previous reads'
    # end plus the gap; the read before it closes there
    opens = np.empty(n, dtype=bool)
    opens[0] = True
    np.greater(starts[1:], ends[:-1] + max_gap, out=opens[1:])
    closes = np.empty(n, dtype=bool)
    closes[:-1] = opens[1:]
    closes[-1] = True
    merged = starts[opens]
    return RequestPlan.from_arrays(
        merged, ends[closes] - merged, plan.policy, plan.merge_gap,
    )


def effective_policy(plan: RequestPlan, limit: int = SPTF_RUN_LIMIT) -> str:
    """Clamp 'sptf' to 'sorted' for very large batches."""
    if plan.policy == "sptf" and plan.n_runs > limit:
        return "sorted"
    return plan.policy


def slice_plan(plan: RequestPlan, max_runs: int | None) -> list[RequestPlan]:
    """Split a prepared plan into consecutive service slices.

    Slices are the scheduling unit of the traffic simulator: a drive
    services one slice at a time and requests from other clients may be
    interleaved between a query's slices, resuming from wherever the head
    ended up.  The split preserves run order, so for ``"fifo"``/``"sorted"``
    plans (whose merged runs are already in issue order) servicing the
    slices back-to-back is timing-identical to servicing the whole plan in
    one batch.  ``"sptf"`` slices clamp the drive's lookahead window to the
    slice, modelling a command queue that only holds admitted requests.

    ``max_runs=None`` (or a plan no larger than ``max_runs``) yields the
    plan unsplit; a ``max_runs`` below 1 raises :class:`QueryError`.
    """
    if max_runs is not None and max_runs < 1:
        raise QueryError(f"max_runs must be >= 1, got {max_runs}")
    if max_runs is None or plan.n_runs <= max_runs:
        return [plan]
    return [
        RequestPlan.from_arrays(
            plan.starts[i:i + max_runs],
            plan.lengths[i:i + max_runs],
            plan.policy,
            plan.merge_gap,
        )
        for i in range(0, plan.n_runs, max_runs)
    ]
