"""Request-batch preparation between the mapper and the drive.

The storage manager of the paper sorts the LBNs of linearised mappings in
ascending order before issuing them ("an easy optimization ... that
significantly improves performance in practice", §5.2) and issues
semi-sequential batches all at once for the drive's internal scheduler to
order.  This module holds those batch transforms plus the policy clamp
that keeps windowed SPTF off absurdly large batches (positioning is
irrelevant once a batch is thousands of near-sequential runs, and the
O(n·window) scheduler would dominate simulation time).
"""

from __future__ import annotations

import numpy as np

from repro.mappings.base import RequestPlan, coalesce_ranks

__all__ = [
    "coalesce_lbns",
    "merge_plan_runs",
    "effective_policy",
    "slice_plan",
]

#: beyond this many runs, SPTF batches degrade to an elevator pass
SPTF_RUN_LIMIT = 150_000


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
    """
    starts = plan.starts
    n = starts.size
    if n <= 1:
        return plan
    lengths = plan.lengths
    if not (starts[1:] >= starts[:-1]).all():
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
    plan unsplit.
    """
    if max_runs is None or plan.n_runs <= max_runs:
        return [plan]
    if max_runs < 1:
        raise ValueError("max_runs must be >= 1")
    return [
        RequestPlan.from_arrays(
            plan.starts[i:i + max_runs],
            plan.lengths[i:i + max_runs],
            plan.policy,
            plan.merge_gap,
        )
        for i in range(0, plan.n_runs, max_runs)
    ]
