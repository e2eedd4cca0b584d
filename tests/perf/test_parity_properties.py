"""Hypothesis properties pinning the vectorized plan-preparation fast
path bit-identical to the pure-Python per-cell reference."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.api import Dataset
from repro.mappings.base import Mapper
from repro.perf.reference import reference_intersections, reference_prepare
from repro.query.workload import BeamQuery, RangeQuery
from repro.shard.map import ShardMap

LAYOUTS = ("naive", "zorder", "hilbert", "multimap")
SHAPE = (16, 8, 8)

# datasets are pure under queries, so one per (layout, cell_blocks)
# serves every hypothesis example
_DATASETS: dict = {}


def dataset_for(layout: str, cell_blocks: int) -> Dataset:
    key = (layout, cell_blocks)
    if key not in _DATASETS:
        _DATASETS[key] = Dataset.create(
            SHAPE, layout=layout, drive="minidrive", seed=7,
            cell_blocks=cell_blocks,
        )
    return _DATASETS[key]


@st.composite
def beam_queries(draw):
    axis = draw(st.integers(0, len(SHAPE) - 1))
    fixed = tuple(
        0 if d == axis else draw(st.integers(0, s - 1))
        for d, s in enumerate(SHAPE)
    )
    lo = draw(st.integers(0, SHAPE[axis] - 1))
    hi = draw(st.integers(lo + 1, SHAPE[axis]))
    return BeamQuery(axis=axis, fixed=fixed, lo=lo, hi=hi)


@st.composite
def range_queries(draw):
    lo, hi = [], []
    for s in SHAPE:
        a = draw(st.integers(0, s - 1))
        b = draw(st.integers(a + 1, s))
        lo.append(a)
        hi.append(b)
    return RangeQuery(tuple(lo), tuple(hi))


def assert_prepared_equal(prepared, ref):
    # a one-disk dataset prepares every query as exactly one sub-plan
    assert len(prepared.subs) == 1
    fast = prepared.subs[0]
    assert fast.mapper_name == ref.mapper_name
    assert fast.disk_index == ref.disk_index
    assert fast.policy == ref.policy
    assert fast.n_cells == ref.n_cells
    assert fast.plan.policy == ref.plan.policy
    assert fast.plan.merge_gap == ref.plan.merge_gap
    assert np.array_equal(fast.plan.starts, ref.plan.starts)
    assert np.array_equal(fast.plan.lengths, ref.plan.lengths)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(layout=st.sampled_from(LAYOUTS),
       cell_blocks=st.sampled_from([1, 2]),
       query=st.one_of(beam_queries(), range_queries()))
def test_prepare_matches_reference(layout, cell_blocks, query):
    ds = dataset_for(layout, cell_blocks)
    fast = ds.storage.prepare(ds.mapper, query)
    ref = reference_prepare(ds.storage, ds.mapper, query)
    assert_prepared_equal(fast, ref)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(layout=st.sampled_from(("naive", "zorder", "hilbert")),
       query=beam_queries())
def test_linear_beam_override_matches_generic(layout, query):
    # LinearMapper.beam_plan short-circuits through plan_from_ranks;
    # the generic base implementation must describe the same runs
    mapper = dataset_for(layout, 1).mapper
    fast = mapper.beam_plan(query.axis, query.fixed, query.lo, query.hi)
    generic = Mapper.beam_plan(mapper, query.axis, query.fixed,
                               query.lo, query.hi)
    assert fast.policy == generic.policy
    assert fast.merge_gap == generic.merge_gap
    assert np.array_equal(fast.starts, generic.starts)
    assert np.array_equal(fast.lengths, generic.lengths)


@pytest.fixture(scope="module")
def shard_map():
    return ShardMap.build((12, 10, 8), 3, chunk_shape=(5, 4, 3))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_intersections_match_reference(shard_map, data):
    dims = shard_map.dims
    lo, hi = [], []
    for s in dims:
        a = data.draw(st.integers(0, s - 1))
        b = data.draw(st.integers(a + 1, s))
        lo.append(a)
        hi.append(b)
    got = list(shard_map.intersections(lo, hi))
    want = reference_intersections(shard_map, lo, hi)
    assert len(got) == len(want)
    for (gc, glo, ghi), (wc, wlo, whi) in zip(got, want):
        assert gc is wc
        assert glo == wlo
        assert ghi == whi


def test_reference_refuses_cached_storage():
    from repro.errors import QueryError

    ds = Dataset.create((8, 6, 6), layout="naive", drive="minidrive",
                        seed=7).with_cache(1024)
    with pytest.raises(QueryError, match="uncached"):
        reference_prepare(ds.storage, ds.mapper,
                          BeamQuery(axis=1, fixed=(0, 0, 0)))


def test_intersections_empty_box_edge(shard_map):
    dims = shard_map.dims
    # a box hugging the far corner touches exactly one chunk
    lo = tuple(s - 1 for s in dims)
    hi = dims
    got = list(shard_map.intersections(lo, hi))
    assert got == reference_intersections(shard_map, lo, hi)
    assert len(got) == 1
