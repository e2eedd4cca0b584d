"""Hypothesis property suites for the ingest invariants.

The contracts the write path leans on:

* **conservation** — buffered + flushed == streamed for any batch
  split: the final drain acknowledges every point exactly once, and
  the per-chunk stores hold precisely the points routed to them;
* **routing** — flushing one disk flushes only the chunks that disk
  owns and acknowledges exactly the staged points routed to it;
* **placement** — a flush's write blocks are exactly the home blocks
  the chunk mappers assign to the staged cells (plus overflow pages),
  so no byte lands outside the mapper's own placement;
* **replication** — every live copy of a chunk receives a write
  sub-plan of identical shape (same block count, same acknowledged
  points), the byte-equal-copies condition ``fail_disk`` relies on.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Dataset
from repro.ingest.loader import resolve_loader
from repro.ingest.pipeline import IngestPipeline
from repro.ingest.streams import UniformStream

SHAPE = (16, 8, 8)

coords_lists = st.lists(
    st.tuples(
        st.integers(0, SHAPE[0] - 1),
        st.integers(0, SHAPE[1] - 1),
        st.integers(0, SHAPE[2] - 1),
    ),
    min_size=1,
    max_size=80,
)


def build(small_model, *, shards=0, k=0, ppc=64, chunk_shape=None):
    ds = Dataset.create(SHAPE, layout="zorder", drive=small_model,
                        seed=5)
    if shards:
        ds = ds.with_shards(shards, chunk_shape=chunk_shape)
    if k:
        ds = ds.with_replication(k)
    stream = UniformStream(SHAPE, n_points=8, seed=1)
    plan = resolve_loader("fixed").fn(ds, stream, points_per_cell=ppc)
    return ds, IngestPipeline(ds, stream, plan, flush_points=10**9)


def plan_blocks(sub) -> np.ndarray:
    starts = np.asarray(sub.plan.starts, dtype=np.int64)
    lengths = np.asarray(sub.plan.lengths, dtype=np.int64)
    if starts.size == 0:
        return np.empty(0, dtype=np.int64)
    return np.concatenate([
        np.arange(s, s + n, dtype=np.int64)
        for s, n in zip(starts.tolist(), lengths.tolist())
    ])


@settings(max_examples=25, deadline=None)
@given(coords=coords_lists, split=st.integers(1, 5))
def test_no_point_lost_or_duplicated(small_model, coords, split):
    """buffered + flushed == streamed across any batch split, and the
    stores hold exactly the points each chunk was routed."""
    _, pipe = build(small_model, shards=2)
    arr = np.asarray(coords, dtype=np.int64)
    for part in np.array_split(arr, split):
        if len(part):
            pipe.stage(part)
    assert pipe.stats.streamed_points == len(arr)
    assert pipe.stats.buffered_points == len(arr)
    pipe.build_flush(pipe.drain_disks())
    assert pipe.stats.buffered_points == 0
    assert pipe.stats.flushed_points == len(arr)
    # per-chunk conservation against an independent count
    cid = (arr // np.asarray(pipe.chunks[0].shape)) @ pipe._grid_strides
    for ci, store in enumerate(pipe.stores):
        assert store.stats().n_points == int((cid == ci).sum())


@settings(max_examples=25, deadline=None)
@given(coords=coords_lists,
       chunk_shape=st.sampled_from([None, (8, 4, 4), (6, 8, 3)]))
def test_buffers_only_hold_their_own_disks_chunks(small_model, coords,
                                                  chunk_shape):
    """Routing through public output: ``build_flush([d])`` flushes only
    chunks disk ``d`` owns and acknowledges exactly the staged points
    whose cell lies in one of them.  Chunk shapes (6, 8, 3) leave
    smaller edge chunks and give a disk several chunks."""
    _, pipe = build(small_model, shards=2, chunk_shape=chunk_shape)
    arr = np.asarray(coords, dtype=np.int64)
    pipe.stage(arr)
    origins = np.array([c.origin for c in pipe.chunks])
    ends = origins + np.array([c.shape for c in pipe.chunks])
    inside = ((arr[:, None, :] >= origins) & (arr[:, None, :] < ends)).all(-1)
    assert (inside.sum(axis=1) == 1).all()
    chunk_of = inside.argmax(axis=1)
    owner = np.array([c.disk for c in pipe.chunks])[chunk_of]
    acked = 0
    for disk in range(pipe.storage.shard_map.n_disks):
        routed = owner == disk
        flush = pipe.build_flush([disk])
        if flush is None:
            assert not routed.any()
            continue
        chunks = {s.chunk for s in flush.sources}
        assert all(pipe.chunks[ci].disk == disk for ci in chunks)
        assert chunks == set(chunk_of[routed].tolist())
        assert flush.n_cells == int(routed.sum())
        acked += flush.n_cells
    assert acked == len(coords)


@settings(max_examples=25, deadline=None)
@given(coords=coords_lists)
def test_flush_blocks_are_the_mappers_cells(small_model, coords):
    """With no overflow, the flushed blocks per chunk are exactly the
    chunk mapper's home blocks for the staged cells."""
    _, pipe = build(small_model, shards=2, ppc=512)
    arr = np.asarray(coords, dtype=np.int64)
    pipe.stage(arr)
    flush = pipe.build_flush(pipe.drain_disks())
    assert flush is not None
    got: dict[int, np.ndarray] = {}
    for sub, source in zip(flush.subs, flush.sources):
        got[source.chunk] = np.union1d(
            got.get(source.chunk, np.empty(0, dtype=np.int64)),
            plan_blocks(sub),
        )
    cid = (arr // np.asarray(pipe.chunks[0].shape)) @ pipe._grid_strides
    for ci in np.unique(cid).tolist():
        chunk = pipe.chunks[ci]
        mapper = pipe._chunk_mappers[ci]
        local = np.unique(
            arr[cid == ci] - np.asarray(chunk.origin, dtype=np.int64),
            axis=0,
        )
        cb = int(mapper.cell_blocks)
        home = np.asarray(mapper.lbns(local), dtype=np.int64)
        expected = np.unique(
            (home[:, None] + np.arange(cb, dtype=np.int64)).ravel()
        )
        assert np.array_equal(got[ci], expected)
    assert set(got) == set(np.unique(cid).tolist())


@settings(max_examples=20, deadline=None)
@given(coords=coords_lists, ppc=st.integers(1, 8))
def test_replica_copies_get_identical_write_shapes(small_model, coords,
                                                   ppc):
    """k=2: every chunk's flush fans out to both copies with the same
    block count and acknowledged points — even when chains spill."""
    _, pipe = build(small_model, shards=2, k=2, ppc=ppc)
    pipe.stage(np.asarray(coords, dtype=np.int64))
    flush = pipe.build_flush(pipe.drain_disks())
    assert flush is not None
    by_chunk: dict[int, list] = {}
    for sub, source in zip(flush.subs, flush.sources):
        by_chunk.setdefault(source.chunk, []).append((source, sub))
    for pairs in by_chunk.values():
        assert sorted(s.copy for s, _ in pairs) == [0, 1]
        assert len({s.disk for s, _ in pairs}) == 2
        assert len({plan_blocks(sub).size for _, sub in pairs}) == 1
        assert len({sub.n_cells for _, sub in pairs}) == 1
