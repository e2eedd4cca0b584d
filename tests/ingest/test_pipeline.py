"""The staged pipeline: buffering, flush packing, replica fan-out."""

import numpy as np
import pytest

from repro.api import Dataset
from repro.errors import IngestError
from repro.ingest.pipeline import IngestPipeline, IngestPrepared
from repro.ingest.streams import ReplayStream, UniformStream
from repro.query.executor import WritePrepared

SHAPE = (16, 8, 8)


def make_stream(n_points=64, batch_points=32, seed=1):
    return UniformStream(SHAPE, n_points=n_points,
                         batch_points=batch_points, seed=seed)


def plan_blocks(sub) -> np.ndarray:
    """Every LBN a prepared write sub-plan touches."""
    starts = np.asarray(sub.plan.starts, dtype=np.int64)
    lengths = np.asarray(sub.plan.lengths, dtype=np.int64)
    if starts.size == 0:
        return np.empty(0, dtype=np.int64)
    return np.concatenate([
        np.arange(s, s + n, dtype=np.int64)
        for s, n in zip(starts.tolist(), lengths.tolist())
    ])


@pytest.fixture()
def plain(small_model):
    return Dataset.create(SHAPE, layout="zorder", drive=small_model,
                          seed=5)


@pytest.fixture()
def sharded(small_model):
    return Dataset.create(SHAPE, layout="zorder", drive=small_model,
                          seed=5).with_shards(2)


class TestValidation:
    def test_rejects_stream_dims_mismatch(self, plain):
        bad = UniformStream((4, 4), n_points=8)
        with pytest.raises(IngestError, match="dims"):
            IngestPipeline(plain, bad)

    def test_rejects_bad_flush_points(self, plain):
        with pytest.raises(IngestError, match="flush_points"):
            IngestPipeline(plain, make_stream(), flush_points=0)

    def test_stage_rejects_wrong_rank(self, plain):
        pipe = IngestPipeline(plain, make_stream())
        with pytest.raises(IngestError, match="rank"):
            pipe.stage(np.zeros((3, 2), dtype=np.int64))

    def test_stage_rejects_out_of_bounds(self, plain):
        pipe = IngestPipeline(plain, make_stream())
        with pytest.raises(IngestError, match="bounds"):
            pipe.stage([[16, 0, 0]])
        with pytest.raises(IngestError, match="bounds"):
            pipe.stage([[0, -1, 0]])


class TestStaging:
    def test_below_threshold_buffers_quietly(self, plain):
        pipe = IngestPipeline(plain, make_stream(), flush_points=100)
        ready = pipe.stage([[0, 0, 0], [1, 1, 1]])
        assert ready == []
        assert pipe.stats.streamed_points == 2
        assert pipe.stats.buffered_points == 2
        assert pipe.drain_disks() == [plain.mapper.disk_index]

    def test_crossing_threshold_names_the_disk(self, plain):
        pipe = IngestPipeline(plain, make_stream(), flush_points=3)
        assert pipe.stage([[0, 0, 0], [1, 0, 0]]) == []
        assert pipe.stage([[2, 0, 0]]) == [plain.mapper.disk_index]

    def test_sharded_thresholds_are_per_disk(self, sharded):
        """One disk's backlog crossing must not flush the other's."""
        chunks = sharded.storage.shard_map.chunks
        hot = chunks[0]
        target = np.asarray(hot.origin, dtype=np.int64)
        pipe = IngestPipeline(sharded, make_stream(), flush_points=4)
        other = next(c for c in chunks if c.disk != hot.disk)
        pipe.stage([np.asarray(other.origin, dtype=np.int64)])
        ready = pipe.stage([target, target, target, target])
        assert ready == [hot.disk]

    def test_single_coordinate_row_accepted(self, plain):
        pipe = IngestPipeline(plain, make_stream(), flush_points=100)
        pipe.stage([0, 0, 0])
        assert pipe.stats.streamed_points == 1


class TestFlush:
    def test_flush_of_nothing_is_none(self, plain):
        pipe = IngestPipeline(plain, make_stream())
        assert pipe.build_flush([plain.mapper.disk_index]) is None
        assert pipe.build_flush([]) is None

    def test_flush_covers_exactly_the_mapped_cells(self, plain):
        """No overflow: the write blocks are precisely the cells'
        home blocks under the dataset's own mapper."""
        coords = np.array([[0, 0, 0], [3, 1, 2], [15, 7, 7], [3, 1, 2]])
        pipe = IngestPipeline(
            plain, make_stream(),
            plan=None, flush_points=1,
            loader_opts={"points_per_cell": 64},
        )
        pipe.stage(coords)
        flush = pipe.build_flush(pipe.drain_disks())
        assert flush is not None and flush.n_points == 4
        cb = int(plain.mapper.cell_blocks)
        home = np.asarray(
            plain.mapper.lbns(np.unique(coords, axis=0)), dtype=np.int64
        )
        expected = np.unique(
            (home[:, None] + np.arange(cb, dtype=np.int64)).ravel()
        )
        got = np.unique(np.concatenate(
            [plan_blocks(s) for s in flush.prepared.subs]
        ))
        assert np.array_equal(got, expected)
        assert pipe.stats.home_blocks == expected.size

    def test_overflow_spills_into_the_overflow_extent(self, plain):
        coords = np.repeat([[2, 2, 2]], 10, axis=0)
        pipe = IngestPipeline(
            plain, make_stream(), flush_points=1,
            loader_opts={"points_per_cell": 2},
        )
        pipe.stage(coords)
        flush = pipe.build_flush(pipe.drain_disks())
        assert pipe.stats.overflow_points == 8
        store = pipe.stores[0]
        ext = store.overflow_extent
        blocks = np.concatenate(
            [plan_blocks(s) for s in flush.prepared.subs]
        )
        chain = blocks[(blocks >= ext.start)
                       & (blocks < ext.start + ext.nblocks)]
        assert chain.size > 0

    def test_flush_clears_the_buffers(self, plain):
        pipe = IngestPipeline(plain, make_stream(), flush_points=1)
        pipe.stage([[1, 2, 3], [4, 5, 6]])
        pipe.build_flush(pipe.drain_disks())
        assert pipe.drain_disks() == []
        assert pipe.stats.buffered_points == 0
        assert pipe.stats.flushes == 1
        assert pipe.stats.flushed_points == 2

    def test_sharded_subs_stay_on_their_owning_disks(self, sharded):
        rng = np.random.default_rng(3)
        coords = np.stack(
            [rng.integers(0, s, size=40) for s in SHAPE], axis=1
        )
        pipe = IngestPipeline(sharded, make_stream(), flush_points=1)
        pipe.stage(coords)
        flush = pipe.build_flush(pipe.drain_disks())
        for sub, source in zip(flush.prepared.subs,
                               flush.prepared.sources):
            assert sub.disk_index == source.disk
            assert pipe.chunks[source.chunk].disk == source.disk
            assert source.copy == 0


class TestReplicaFanOut:
    @pytest.fixture()
    def replicated(self, small_model):
        return Dataset.create(SHAPE, layout="zorder", drive=small_model,
                              seed=5).with_shards(2).with_replication(2)

    def test_every_chunk_writes_every_live_copy(self, replicated):
        rng = np.random.default_rng(4)
        coords = np.stack(
            [rng.integers(0, s, size=40) for s in SHAPE], axis=1
        )
        pipe = IngestPipeline(replicated, make_stream(), flush_points=1,
                              loader_opts={"points_per_cell": 2})
        pipe.stage(coords)
        flush = pipe.build_flush(pipe.drain_disks())
        by_chunk: dict = {}
        for sub, source in zip(flush.prepared.subs,
                               flush.prepared.sources):
            by_chunk.setdefault(source.chunk, []).append((source, sub))
        for ci, pairs in by_chunk.items():
            assert sorted(s.copy for s, _ in pairs) == [0, 1]
            disks = {s.disk for s, _ in pairs}
            assert len(disks) == 2  # copies live on distinct disks
            # same layout on every copy: byte-identical write shapes
            counts = {plan_blocks(sub).size for _, sub in pairs}
            assert len(counts) == 1

    def test_twin_overflow_extents_match_the_primary(self, replicated):
        pipe = IngestPipeline(replicated, make_stream())
        for ci, store in enumerate(pipe.stores):
            exts = pipe._copy_extents[ci]
            assert set(exts) == {0, 1}
            assert exts[0] is store.overflow_extent
            assert exts[1].nblocks == store.overflow_extent.nblocks

    def test_dead_copy_is_skipped_and_counted(self, replicated):
        replicated.storage.fail_disk(1)
        pipe = IngestPipeline(replicated, make_stream(), flush_points=1)
        pipe.stage([[0, 0, 0], [15, 7, 7]])
        flush = pipe.build_flush(pipe.drain_disks())
        assert all(s.disk != 1 for s in flush.prepared.sources)
        assert pipe.stats.skipped_copy_writes > 0


class TestCubePacking:
    def test_multimap_write_extents_cover_the_cells(self, small_model):
        ds = Dataset.create(SHAPE, layout="multimap", drive=small_model,
                            seed=5)
        mapper = ds.mapper
        rng = np.random.default_rng(6)
        coords = np.stack(
            [rng.integers(0, s, size=30) for s in SHAPE], axis=1
        )
        starts, lengths = mapper.write_extents(coords)
        assert starts.size == lengths.size > 0
        assert (lengths > 0).all()
        assert np.array_equal(starts, np.unique(starts))
        cell_lbns = np.asarray(mapper.lbns(coords), dtype=np.int64)
        for lbn in cell_lbns.tolist():
            inside = (starts <= lbn) & (lbn < starts + lengths)
            assert inside.sum() == 1

    def test_multimap_flush_writes_whole_cubes(self, small_model):
        """The packing path lays down more than the touched cells —
        whole track groups — in a handful of sequential runs."""
        ds = Dataset.create(SHAPE, layout="multimap", drive=small_model,
                            seed=5)
        pipe = IngestPipeline(ds, make_stream(), flush_points=1,
                              loader_opts={"points_per_cell": 64})
        coords = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]])
        pipe.stage(coords)
        flush = pipe.build_flush(pipe.drain_disks())
        starts, lengths = ds.mapper.write_extents(coords)
        expected = np.concatenate([
            np.arange(s, s + n, dtype=np.int64)
            for s, n in zip(starts.tolist(), lengths.tolist())
        ])
        got = np.unique(np.concatenate(
            [plan_blocks(s) for s in flush.prepared.subs]
        ))
        assert np.array_equal(got, np.unique(expected))
        cb = int(ds.mapper.cell_blocks)
        assert got.size >= np.unique(coords, axis=0).shape[0] * cb


class TestPrepareBatch:
    def test_stage_only_batch_is_memory_only(self, plain):
        pipe = IngestPipeline(plain, make_stream(), flush_points=100,
                              stage_ms_per_point=0.5)
        prepared = pipe.prepare_batch([[0, 0, 0], [1, 1, 1]])
        # no flush rides along: the staging sub is the only sub-plan
        assert isinstance(prepared, IngestPrepared)
        assert prepared.sources == (None,)
        (stage,) = prepared.subs
        assert isinstance(stage, WritePrepared)
        assert len(stage.plan.starts) == 0
        assert prepared.cache_ms == stage.cache_ms == pytest.approx(1.0)
        assert prepared.n_cells == stage.n_cells == 2

    def test_triggered_flush_rides_along(self, plain):
        pipe = IngestPipeline(plain, make_stream(), flush_points=2)
        prepared = pipe.prepare_batch([[0, 0, 0], [1, 1, 1]])
        assert isinstance(prepared, IngestPrepared)
        assert prepared.is_write
        assert prepared.sources[0] is None  # the staging sub
        assert len(prepared.subs) == len(prepared.sources)
        assert all(s is not None for s in prepared.sources[1:])

    def test_final_batch_drains_everything(self, plain):
        pipe = IngestPipeline(plain, make_stream(), flush_points=1000)
        pipe.prepare_batch([[0, 0, 0]])
        prepared = pipe.prepare_batch([[1, 1, 1]], final=True)
        assert isinstance(prepared, IngestPrepared)
        assert pipe.stats.buffered_points == 0
        assert prepared.n_points == 2


class TestSummaries:
    def test_store_summary_aggregates_chunks(self, sharded):
        pipe = IngestPipeline(sharded, make_stream(), flush_points=1)
        pipe.stage([[0, 0, 0], [15, 7, 7]])
        pipe.build_flush(pipe.drain_disks())
        out = pipe.store_summary()
        assert out["n_chunks"] == len(pipe.chunks)
        assert out["n_points"] == 2
        assert out["points_per_cell"] == pipe.plan.points_per_cell

    def test_describe_carries_stream_loader_and_stats(self, plain):
        pipe = IngestPipeline(plain, make_stream())
        out = pipe.describe()
        assert out["loader"] == "fixed"
        assert out["stream"]["stream"] == "uniform"
        assert out["stats"]["streamed_points"] == 0
        assert out["n_copies"] == 1

    def test_replay_stream_through_pipeline(self, plain):
        coords = np.array([[1, 1, 1]] * 5 + [[2, 2, 2]] * 3)
        stream = ReplayStream(SHAPE, coords=coords, batch_points=4)
        pipe = IngestPipeline(plain, stream, flush_points=4)
        for batch in stream.batches():
            ready = pipe.stage(batch)
            if ready:
                pipe.build_flush(ready)
        pipe.build_flush(pipe.drain_disks())
        assert pipe.stats.streamed_points == 8
        assert pipe.stats.buffered_points == 0
        assert pipe.stores[0].stats().n_points == 8
