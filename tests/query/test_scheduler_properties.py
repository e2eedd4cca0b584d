"""Property-based tests (hypothesis) for the batch transforms.

The storage manager trusts :func:`coalesce_lbns` /
:func:`merge_plan_runs` / :func:`slice_plan` to reshape batches without
ever losing or inventing work; these properties pin that for random
plans and gaps:

* ``coalesce_lbns``: output runs are sorted, disjoint, and cover
  exactly the (de-duplicated) input LBN set;
* ``merge_plan_runs``: no input LBN is dropped or duplicated, merged
  runs are sorted and disjoint, and any extra blocks read lie only in
  holes of at most ``max_gap`` between covered blocks;
* ``slice_plan``: concatenating the slices reproduces the plan exactly.

``reference_merge_plan_runs`` is ``merge_plan_runs`` as it stood before
it learned to return a plan with nothing to merge unchanged, kept
verbatim; the function must equal it on sorted, unsorted, overlapping
and touching plans.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mappings.base import RequestPlan
from repro.query.scheduler import coalesce_lbns, merge_plan_runs, slice_plan

lbn_arrays = st.lists(
    st.integers(min_value=0, max_value=5_000), min_size=0, max_size=300
).map(lambda xs: np.asarray(xs, dtype=np.int64))


@st.composite
def plans(draw):
    n = draw(st.integers(min_value=0, max_value=60))
    starts = draw(st.lists(
        st.integers(min_value=0, max_value=10_000),
        min_size=n, max_size=n,
    ))
    lengths = draw(st.lists(
        st.integers(min_value=1, max_value=50),
        min_size=n, max_size=n,
    ))
    return RequestPlan(
        np.asarray(starts, dtype=np.int64),
        np.asarray(lengths, dtype=np.int64),
    )


def reference_merge_plan_runs(plan: RequestPlan,
                              max_gap: int = 0) -> RequestPlan:
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


@st.composite
def shaped_plans(draw):
    """Sorted runs, apart by more than 4 blocks or by 0-4 (touching at
    0), then maybe shuffled, with some runs moved back onto their
    predecessor so they overlap it."""
    n = draw(st.integers(min_value=0, max_value=40))
    lengths = draw(st.lists(st.integers(1, 20), min_size=n, max_size=n))
    far = draw(st.booleans())
    holes = draw(st.lists(
        st.integers(5, 30) if far else st.integers(0, 8),
        min_size=n, max_size=n,
    ))
    starts, at = [], draw(st.integers(0, 1_000))
    for length, hole in zip(lengths, holes):
        starts.append(at)
        at += length + hole
    overlaps = draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
    for i in range(1, n):
        if overlaps[i] and not far:
            starts[i] = max(starts[i] - overlaps[i] - holes[i - 1], 0)
    if draw(st.booleans()):
        order = draw(st.permutations(range(n)))
        starts = [starts[i] for i in order]
        lengths = [lengths[i] for i in order]
    return RequestPlan(
        np.asarray(starts, dtype=np.int64),
        np.asarray(lengths, dtype=np.int64),
        policy=draw(st.sampled_from(["sorted", "sptf"])),
        merge_gap=draw(st.sampled_from([None, 0, 3])),
    )


def covered(plan: RequestPlan) -> set[int]:
    out: set[int] = set()
    for s, ln in zip(plan.starts.tolist(), plan.lengths.tolist()):
        out.update(range(s, s + ln))
    return out


def assert_sorted_disjoint(plan: RequestPlan) -> None:
    starts = plan.starts
    ends = plan.starts + plan.lengths
    assert (np.diff(starts) > 0).all()
    assert (starts[1:] >= ends[:-1]).all()


class TestCoalesceLbns:
    @given(lbn_arrays)
    @settings(max_examples=200, deadline=None)
    def test_exact_cover_sorted_disjoint(self, lbns):
        starts, lengths = coalesce_lbns(lbns)
        assert starts.shape == lengths.shape
        if starts.size:
            assert (lengths >= 1).all()
            # strictly separated: touching runs must have been merged
            assert (starts[1:] > starts[:-1] + lengths[:-1]).all()
        out = set()
        for s, ln in zip(starts.tolist(), lengths.tolist()):
            out.update(range(s, s + ln))
        assert out == set(lbns.tolist())

    @given(lbn_arrays)
    @settings(max_examples=50, deadline=None)
    def test_duplicates_are_collapsed(self, lbns):
        doubled = np.concatenate([lbns, lbns])
        s1, l1 = coalesce_lbns(lbns)
        s2, l2 = coalesce_lbns(doubled)
        assert np.array_equal(s1, s2) and np.array_equal(l1, l2)


class TestMergePlanRuns:
    @given(plans(), st.integers(min_value=0, max_value=100))
    @settings(max_examples=200, deadline=None)
    def test_never_drops_or_duplicates(self, plan, max_gap):
        merged = merge_plan_runs(plan, max_gap)
        before = covered(plan)
        after = covered(merged)
        # every requested LBN is still read exactly once
        assert before <= after
        assert sum(merged.lengths.tolist()) == len(after)
        if merged.n_runs > 1:
            assert_sorted_disjoint(merged)

    @given(plans(), st.integers(min_value=0, max_value=100))
    @settings(max_examples=200, deadline=None)
    def test_extra_blocks_only_in_small_gaps(self, plan, max_gap):
        merged = merge_plan_runs(plan, max_gap)
        extra = sorted(covered(merged) - covered(plan))
        before = covered(plan)
        # each extra block sits in a read-through hole: the nearest
        # requested blocks on both sides are at most max_gap + 1 apart
        for b in extra:
            left = b - 1
            while left not in before:
                left -= 1
            right = b + 1
            while right not in before:
                right += 1
            assert right - left - 1 <= max_gap

    @given(plans())
    @settings(max_examples=100, deadline=None)
    def test_gap_zero_merges_only_touching(self, plan):
        merged = merge_plan_runs(plan, 0)
        assert covered(merged) == covered(plan)

    @given(plans(), st.integers(min_value=0, max_value=100))
    @settings(max_examples=100, deadline=None)
    def test_idempotent(self, plan, max_gap):
        once = merge_plan_runs(plan, max_gap)
        twice = merge_plan_runs(once, max_gap)
        assert np.array_equal(once.starts, twice.starts)
        assert np.array_equal(once.lengths, twice.lengths)

    @given(plans(), st.integers(min_value=0, max_value=100))
    @settings(max_examples=100, deadline=None)
    def test_preserves_policy_and_gap(self, plan, max_gap):
        plan = RequestPlan(plan.starts, plan.lengths, policy="sptf",
                           merge_gap=7)
        merged = merge_plan_runs(plan, max_gap)
        assert merged.policy == "sptf"
        assert merged.merge_gap == 7


class TestMergeMatchesReference:
    # negative gaps too: there an overlapping run can start past the
    # previous end plus the gap, so a plan that skipped the merge would
    # differ from the reference
    @given(shaped_plans(), st.integers(min_value=-4, max_value=4))
    @settings(max_examples=400, deadline=None)
    def test_equal_output(self, plan, max_gap):
        got = merge_plan_runs(plan, max_gap)
        want = reference_merge_plan_runs(plan, max_gap)
        for name in ("starts", "lengths"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        assert (got.policy, got.merge_gap) == (want.policy, want.merge_gap)

    @given(plans(), st.integers(min_value=0, max_value=4))
    @settings(max_examples=200, deadline=None)
    def test_equal_output_on_random_plans(self, plan, max_gap):
        got = merge_plan_runs(plan, max_gap)
        want = reference_merge_plan_runs(plan, max_gap)
        assert np.array_equal(got.starts, want.starts)
        assert np.array_equal(got.lengths, want.lengths)

    def test_negative_gap_with_a_contained_run(self):
        """[5, 6) lies inside [0, 10) yet starts past 10 - 10: only the
        full merge extends it to the running end."""
        plan = RequestPlan(np.array([0, 5]), np.array([10, 1]))
        got = merge_plan_runs(plan, -10)
        want = reference_merge_plan_runs(plan, -10)
        assert got.starts.tolist() == want.starts.tolist()
        assert got.lengths.tolist() == want.lengths.tolist()

    def test_nothing_to_merge_returns_the_plan(self):
        plan = RequestPlan(np.array([0, 10, 30]), np.array([2, 3, 1]))
        assert merge_plan_runs(plan, 7) is plan
        assert merge_plan_runs(plan, 8).n_runs == 2


class TestSlicePlan:
    @given(plans(), st.integers(min_value=1, max_value=64))
    @settings(max_examples=200, deadline=None)
    def test_concat_reproduces_plan(self, plan, max_runs):
        slices = slice_plan(plan, max_runs)
        assert all(sl.n_runs <= max_runs for sl in slices)
        assert all(sl.policy == plan.policy for sl in slices)
        if plan.n_runs:
            starts = np.concatenate([sl.starts for sl in slices])
            lengths = np.concatenate([sl.lengths for sl in slices])
            assert np.array_equal(starts, plan.starts)
            assert np.array_equal(lengths, plan.lengths)

    @given(plans())
    @settings(max_examples=50, deadline=None)
    def test_none_returns_whole_plan(self, plan):
        slices = slice_plan(plan, None)
        assert len(slices) == 1 and slices[0] is plan
