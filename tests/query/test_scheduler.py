"""Tests for batch preparation: coalescing, merging, policy clamping."""

import inspect

import numpy as np
import pytest

from repro.mappings.base import RequestPlan
from repro.query import coalesce_lbns, effective_policy, merge_plan_runs
from repro.query.scheduler import SPTF_RUN_LIMIT


def plan(starts, lengths, policy="sorted", merge_gap=None):
    return RequestPlan(
        np.asarray(starts, dtype=np.int64),
        np.asarray(lengths, dtype=np.int64),
        policy=policy,
        merge_gap=merge_gap,
    )


class TestCoalesceLbns:
    def test_sorts_and_merges(self):
        s, l = coalesce_lbns(np.array([5, 3, 4, 10]))
        assert s.tolist() == [3, 10]
        assert l.tolist() == [3, 1]

    def test_deduplicates(self):
        s, l = coalesce_lbns(np.array([1, 1, 2, 2]))
        assert s.tolist() == [1]
        assert l.tolist() == [2]


class TestMergePlanRuns:
    def test_touching_runs_merge(self):
        p = merge_plan_runs(plan([0, 5], [5, 5]))
        assert p.n_runs == 1
        assert p.lengths[0] == 10

    def test_gap_blocks_merge_within_threshold(self):
        p = merge_plan_runs(plan([0, 8], [4, 4]), max_gap=4)
        assert p.n_runs == 1
        # the merged run reads through the hole
        assert p.lengths[0] == 12

    def test_gap_beyond_threshold_stays_split(self):
        p = merge_plan_runs(plan([0, 8], [4, 4]), max_gap=3)
        assert p.n_runs == 2

    def test_unsorted_input_is_sorted(self):
        p = merge_plan_runs(plan([100, 0], [5, 5]))
        assert p.starts.tolist() == [0, 100]

    def test_idempotent(self):
        p1 = merge_plan_runs(plan([0, 5, 20], [5, 5, 3]), max_gap=2)
        p2 = merge_plan_runs(p1, max_gap=2)
        assert p1.starts.tolist() == p2.starts.tolist()
        assert p1.lengths.tolist() == p2.lengths.tolist()

    def test_overlapping_runs_safe(self):
        p = merge_plan_runs(plan([0, 2], [5, 2]))
        assert p.n_runs == 1
        assert p.lengths[0] == 5

    def test_preserves_policy_and_gap(self):
        p = merge_plan_runs(plan([0, 5], [2, 2], "sptf", 7), max_gap=0)
        assert p.policy == "sptf"
        assert p.merge_gap == 7

    def test_single_run_passthrough(self):
        p = plan([4], [4])
        assert merge_plan_runs(p) is p


class TestEffectivePolicy:
    def test_small_sptf_stays(self):
        p = plan(np.arange(10), np.ones(10), "sptf")
        assert effective_policy(p, limit=100) == "sptf"

    def test_large_sptf_clamps(self):
        p = plan(np.arange(200), np.ones(200), "sptf")
        assert effective_policy(p, limit=100) == "sorted"

    def test_sorted_never_clamps(self):
        p = plan(np.arange(200), np.ones(200), "sorted")
        assert effective_policy(p, limit=100) == "sorted"

    def test_fifo_untouched(self):
        p = plan(np.arange(200), np.ones(200), "fifo")
        assert effective_policy(p, limit=100) == "fifo"

    def test_one_clamp_default_everywhere(self):
        # the storage manager reads the constant itself; that it takes
        # no limit setting is pinned by tests/api/test_settings_surface.py
        assert SPTF_RUN_LIMIT == 150_000
        limit = inspect.signature(effective_policy).parameters["limit"]
        assert limit.default == SPTF_RUN_LIMIT
