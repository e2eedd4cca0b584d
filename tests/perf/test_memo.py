"""The mapper memo: shared rank tables and basic-cube plans."""

import numpy as np
import pytest

from repro.api import Dataset
from repro.core.planner import plan_basic_cube
from repro.perf.memo import MEMO, MapperMemo


@pytest.fixture()
def fresh_memo():
    """Run against a clean global memo, restoring prior contents."""
    MEMO.clear()
    MEMO.reset_stats()
    MEMO.enabled = True
    yield MEMO
    MEMO.clear()
    MEMO.reset_stats()
    MEMO.enabled = True


def test_rank_table_shared_across_instances(fresh_memo, make_dataset):
    a = make_dataset(layout="zorder", shape=(8, 8, 4))
    b = make_dataset(layout="zorder", shape=(8, 8, 4))
    ta = a.mapper.rank_table()
    tb = b.mapper.rank_table()
    assert ta is tb
    assert not ta.flags.writeable
    assert fresh_memo.stats()["hits"] >= 1


def test_different_dims_get_different_tables(fresh_memo, make_dataset):
    a = make_dataset(layout="hilbert", shape=(8, 8, 4))
    b = make_dataset(layout="hilbert", shape=(8, 4, 4))
    assert a.mapper.rank_table() is not b.mapper.rank_table()


def test_drop_cache_evicts_memo_entry(fresh_memo, make_dataset):
    m = make_dataset(layout="zorder", shape=(8, 8, 4)).mapper
    t1 = m.rank_table()
    m.drop_cache()
    t2 = m.rank_table()
    assert t2 is not t1
    assert np.array_equal(t1, t2)


def test_disabled_memo_builds_fresh_per_instance(fresh_memo,
                                                 make_dataset):
    fresh_memo.enabled = False
    a = make_dataset(layout="zorder", shape=(8, 8, 4))
    b = make_dataset(layout="zorder", shape=(8, 8, 4))
    ta = a.mapper.rank_table()
    tb = b.mapper.rank_table()
    assert ta is not tb
    assert np.array_equal(ta, tb)
    # each instance still reuses its own table across calls
    assert a.mapper.rank_table() is ta


def test_basic_cube_plan_memoized(fresh_memo):
    args = ((64, 64, 32), 686, 800, 128, "compact")
    p1 = plan_basic_cube(*args)
    p2 = plan_basic_cube(*args)
    assert p1 is p2
    assert plan_basic_cube((64, 64, 32), 686, 800, 128, "volume") is not p1


def test_stats_clear_and_reset():
    memo = MapperMemo()
    assert memo.get("k", 1) is None  # miss
    memo.put("k", 1, "v")
    assert memo.get("k", 1) == "v"  # hit
    stats = memo.stats()
    assert stats["hits"] == 1
    assert stats["misses"] == 1
    assert stats["entries"] == {"k": 1}
    memo.clear()
    assert memo.stats()["entries"] == {}
    assert memo.stats()["hits"] == 1  # counters survive clear
    memo.reset_stats()
    assert memo.stats()["hits"] == 0


def test_get_or_build_and_evict():
    memo = MapperMemo()
    built = []

    def builder():
        built.append(1)
        return object()

    v1 = memo.get_or_build("k", "key", builder)
    v2 = memo.get_or_build("k", "key", builder)
    assert v1 is v2
    assert built == [1]
    memo.evict("k", "key")
    memo.evict("k", "missing")  # idempotent
    v3 = memo.get_or_build("k", "key", builder)
    assert v3 is not v1
    assert built == [1, 1]


def test_with_layout_clone_shares_table(fresh_memo):
    ds = Dataset.create((8, 8, 4), layout="zorder", drive="minidrive",
                        seed=3)
    clone = ds.with_layout("zorder")
    assert ds.mapper.rank_table() is clone.mapper.rank_table()
