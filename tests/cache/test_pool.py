"""BufferPool invariants: occupancy, stats accounting, plan filtering.

The hypothesis suites drive pools with random plan streams and pin the
invariants: occupancy never exceeds
capacity, ``hits + misses == accesses``, and the filter partitions each
plan exactly (hit blocks + miss-plan blocks == plan blocks, disjoint,
order preserved).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import BufferPool, expand_plan
from repro.disk.drive import DiskDrive
from repro.errors import CacheError
from repro.mappings.base import RequestPlan


def plan_of(starts, lengths, policy="sorted"):
    return RequestPlan(
        np.asarray(starts, dtype=np.int64),
        np.asarray(lengths, dtype=np.int64),
        policy=policy,
    )


plans = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=400),
        st.integers(min_value=1, max_value=12),
    ),
    min_size=0,
    max_size=12,
).map(lambda rl: plan_of([r for r, _ in rl], [n for _, n in rl]))

plan_streams = st.lists(plans, min_size=1, max_size=8)


class TestExpandPlan:
    def test_empty(self):
        assert expand_plan(plan_of([], [])).size == 0

    def test_order_preserved(self):
        plan = plan_of([10, 3, 10], [2, 1, 3], policy="fifo")
        assert expand_plan(plan).tolist() == [10, 11, 3, 10, 11, 12]


class TestConstruction:
    def test_negative_capacity_rejected(self):
        with pytest.raises(CacheError):
            BufferPool(-1)

    @pytest.mark.parametrize("capacity", [0, 2.5, True, "8"])
    def test_capacity_must_be_a_positive_integer(self, capacity):
        """No pool is ``None``, never an empty one; a fractional
        capacity is not truncated."""
        with pytest.raises(CacheError, match="capacity_blocks"):
            BufferPool(capacity)

    def test_describe_layout(self):
        pool = BufferPool(8, prefetch="track")
        d = pool.describe()
        assert d["policy"] == "lru"
        assert d["prefetch"] == "track"
        assert d["service_ms_per_block"] == DiskDrive.CACHE_BLOCK_MS
        assert d["stats"]["accesses"] == 0


class TestFilterPartition:
    def test_cold_pool_returns_same_object(self):
        pool = BufferPool(64)
        plan = plan_of([5, 30], [4, 2])
        out, hits, runs = pool.filter_plan(0, plan)
        assert out is plan
        assert (hits, runs) == (0, 0)
        assert pool.stats.misses == 6

    def test_full_hit_gives_empty_miss_plan(self):
        pool = BufferPool(64)
        plan = plan_of([5], [4])
        pool.admit_plan(None, 0, plan_of([5], [4], policy="fifo"))
        out, hits, runs = pool.filter_plan(0, plan)
        assert out.n_runs == 0 and out.n_blocks == 0
        assert hits == 4 and runs == 1
        assert out.policy == plan.policy

    def test_partial_hit_preserves_order_and_policy(self):
        pool = BufferPool(64)
        pool.admit_plan(None, 0, plan_of([11], [2]))  # cache 11,12
        plan = plan_of([20, 10, 30], [2, 4, 1], policy="fifo")
        out, hits, runs = pool.filter_plan(0, plan)
        assert hits == 2 and runs == 1
        assert out.policy == "fifo"
        assert expand_plan(out).tolist() == [20, 21, 10, 13, 30]

    @given(plan_streams, st.integers(min_value=1, max_value=64))
    @settings(max_examples=60, deadline=None)
    def test_invariants(self, stream, capacity):
        pool = BufferPool(capacity)
        for plan in stream:
            before = pool.stats.accesses
            miss, hits, hit_runs = pool.filter_plan(0, plan)
            blocks = expand_plan(plan)
            miss_blocks = expand_plan(miss)
            # partition: hits + miss blocks == plan blocks
            assert hits + miss_blocks.size == blocks.size
            assert hits >= 0 and hit_runs >= 0
            if hits == 0:
                assert miss is plan
            else:
                # miss blocks appear in plan order as a subsequence
                it = iter(blocks.tolist())
                assert all(b in it for b in miss_blocks.tolist())
            # accounting
            s = pool.stats
            assert s.accesses == before + blocks.size
            assert s.hits + s.misses == s.accesses
            pool.admit_plan(None, 0, miss)
            # occupancy bounded, always
            assert pool.occupancy <= pool.capacity
            assert s.prefetch_hits <= s.prefetch_issued
        # resident set is exactly what the policy tracks, and the
        # per-disk mirror used for vectorized membership agrees
        assert len(pool.policy) == pool.occupancy
        assert sum(len(s) for s in pool._resident.values()) \
            == pool.occupancy


class TestMaintenance:
    def test_invalidate_and_clear(self):
        pool = BufferPool(16)
        pool.admit_plan(None, 0, plan_of([0], [4]))
        assert pool.contains(0, 2)
        pool.invalidate(0, [2])
        assert not pool.contains(0, 2)
        assert pool.contains(0, 3)
        pool.clear()
        assert pool.occupancy == 0

    def test_reset_stats_keeps_contents(self):
        pool = BufferPool(16)
        pool.admit_plan(None, 0, plan_of([0], [4]))
        pool.filter_plan(0, plan_of([0], [4]))
        assert pool.stats.hits == 4
        pool.reset_stats()
        assert pool.stats.accesses == 0
        assert pool.contains(0, 0)

    def test_disk_is_part_of_the_key(self):
        pool = BufferPool(16)
        pool.admit_plan(None, 0, plan_of([0], [2]))
        assert pool.contains(0, 1)
        assert not pool.contains(1, 1)

    def test_eviction_counts(self):
        pool = BufferPool(4)
        pool.admit_plan(None, 0, plan_of([0], [10]))
        assert pool.occupancy == 4
        assert pool.stats.evictions == 6

    def test_prefetch_readmission_does_not_promote(self):
        """A speculative prefetch landing on a resident block is not a
        reference: the block keeps its place in the eviction order."""
        pool = BufferPool(16)
        pool.admit_plan(None, 0, plan_of([5, 6], [1, 1]))
        assert pool.policy.keys() == ((0, 5), (0, 6))
        pool._admit((0, 5), prefetch=True)
        assert pool.policy.keys() == ((0, 5), (0, 6))
        # a demand re-fetch of the same block IS a reference
        pool._admit((0, 5), prefetch=False)
        assert pool.policy.keys() == ((0, 6), (0, 5))
