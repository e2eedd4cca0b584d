"""The staged pipeline: buffering, flush packing, replica fan-out."""

import numpy as np
import pytest

from repro.api import Dataset
from repro.errors import IngestError
from repro.ingest.loader import resolve_loader
from repro.ingest.pipeline import IngestPipeline
from repro.ingest.streams import UniformStream

SHAPE = (16, 8, 8)


def make_stream(n_points=64, batch_points=32, seed=1):
    return UniformStream(SHAPE, n_points=n_points,
                         batch_points=batch_points, seed=seed)


def make_pipeline(ds, stream=None, *, flush_points=1024, **loader_opts):
    """A pipeline under the fixed loader's plan for ``loader_opts``."""
    stream = make_stream() if stream is None else stream
    plan = resolve_loader("fixed").fn(ds, stream, **loader_opts)
    return IngestPipeline(ds, stream, plan, flush_points=flush_points)


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
            make_pipeline(plain, bad)

    def test_rejects_bad_flush_points(self, plain):
        with pytest.raises(IngestError, match="flush_points"):
            make_pipeline(plain, flush_points=0)

    def test_stage_rejects_wrong_rank(self, plain):
        pipe = make_pipeline(plain)
        with pytest.raises(IngestError, match="rank"):
            pipe.stage(np.zeros((3, 2), dtype=np.int64))

    def test_stage_rejects_out_of_bounds(self, plain):
        pipe = make_pipeline(plain)
        with pytest.raises(IngestError, match="bounds"):
            pipe.stage([[16, 0, 0]])
        with pytest.raises(IngestError, match="bounds"):
            pipe.stage([[0, -1, 0]])

    @pytest.mark.parametrize("coords, dtype", [
        ([[1.7, 2.2, 3.9]], "float64"),
        ([[True, False, True]], "bool"),
        ([["a", "b", "c"]], "<U1"),
    ])
    def test_stage_rejects_non_integer_coords(self, plain, coords, dtype):
        """Floats are not truncated onto cells, bools are not 0/1 and
        strings fail as an IngestError, not numpy's bare ValueError."""
        pipe = make_pipeline(plain)
        with pytest.raises(IngestError,
                           match=f"coords must be integers.*{dtype}"):
            pipe.stage(coords)
        assert pipe.stats.streamed_points == 0
        assert pipe.drain_disks() == []

    @pytest.mark.parametrize("coords, match", [
        ([[True, 0, 0]], "bools"),
        ([[0, 0, 0], [1, 1]], "rectangular"),
    ], ids=["bool in a list", "ragged"])
    def test_stage_checks_coords_as_the_mapper_does(self, plain, coords,
                                                    match):
        """A bool mixed into a list used to stage cell (1, 0, 0), and a
        ragged list escaped as numpy's bare ValueError; the pipeline
        and the mapper share one check now."""
        pipe = make_pipeline(plain)
        with pytest.raises(IngestError, match=match):
            pipe.stage(coords)
        assert pipe.stats.streamed_points == 0
        assert pipe.drain_disks() == []

    @pytest.mark.parametrize("flush_points", [2.5, 4.0, True])
    def test_rejects_non_integer_flush_points(self, plain, flush_points):
        with pytest.raises(IngestError, match="flush_points must be an "
                           "integer"):
            make_pipeline(plain, flush_points=flush_points)


class TestStaging:
    def test_below_threshold_buffers_quietly(self, plain):
        pipe = make_pipeline(plain, flush_points=100)
        ready = pipe.stage([[0, 0, 0], [1, 1, 1]])
        assert ready == []
        assert pipe.stats.streamed_points == 2
        assert pipe.stats.buffered_points == 2
        assert pipe.drain_disks() == [plain.mapper.disk_index]

    def test_crossing_threshold_names_the_disk(self, plain):
        pipe = make_pipeline(plain, flush_points=3)
        assert pipe.stage([[0, 0, 0], [1, 0, 0]]) == []
        assert pipe.stage([[2, 0, 0]]) == [plain.mapper.disk_index]

    def test_sharded_thresholds_are_per_disk(self, sharded):
        """One disk's backlog crossing must not flush the other's."""
        chunks = sharded.storage.shard_map.chunks
        hot = chunks[0]
        target = np.asarray(hot.origin, dtype=np.int64)
        pipe = make_pipeline(sharded, flush_points=4)
        other = next(c for c in chunks if c.disk != hot.disk)
        pipe.stage([np.asarray(other.origin, dtype=np.int64)])
        ready = pipe.stage([target, target, target, target])
        assert ready == [hot.disk]

    def test_single_coordinate_row_accepted(self, plain):
        pipe = make_pipeline(plain, flush_points=100)
        pipe.stage([0, 0, 0])
        assert pipe.stats.streamed_points == 1


class TestFlush:
    def test_flush_of_nothing_is_none(self, plain):
        pipe = make_pipeline(plain)
        assert pipe.build_flush([plain.mapper.disk_index]) is None
        assert pipe.build_flush([]) is None

    def test_flushing_a_disk_without_chunks_changes_nothing(self,
                                                            small_model):
        """One chunk on a 3-disk volume: disks 1 and 2 own nothing, and
        -1 and 3 are off the volume; flushing them flushes nothing and
        leaves disk 0's backlog (and its threshold count) alone."""
        ds = Dataset.create(SHAPE, layout="zorder", drive=small_model,
                            seed=5).with_shards(3, chunk_shape=SHAPE)
        pipe = make_pipeline(ds, flush_points=3)
        assert pipe.stage([[0, 0, 0], [1, 1, 1]]) == []
        assert pipe.build_flush([-1, 1, 2, 3]) is None
        assert pipe.drain_disks() == [0]
        assert pipe.stage([[2, 2, 2]]) == [0]
        flush = pipe.build_flush([0, -1])
        assert flush.n_cells == 3
        assert {source.chunk for source in flush.sources} == {0}

    def test_flush_covers_exactly_the_mapped_cells(self, plain):
        """No overflow: the write blocks are precisely the cells'
        home blocks under the dataset's own mapper."""
        coords = np.array([[0, 0, 0], [3, 1, 2], [15, 7, 7], [3, 1, 2]])
        pipe = make_pipeline(plain, flush_points=1, points_per_cell=64)
        pipe.stage(coords)
        flush = pipe.build_flush(pipe.drain_disks())
        assert flush is not None and flush.n_cells == 4
        cb = int(plain.mapper.cell_blocks)
        home = np.asarray(
            plain.mapper.lbns(np.unique(coords, axis=0)), dtype=np.int64
        )
        expected = np.unique(
            (home[:, None] + np.arange(cb, dtype=np.int64)).ravel()
        )
        got = np.unique(np.concatenate(
            [plan_blocks(s) for s in flush.subs]
        ))
        assert np.array_equal(got, expected)
        assert pipe.stats.home_blocks == expected.size

    def test_overflow_spills_into_the_overflow_extent(self, plain):
        coords = np.repeat([[2, 2, 2]], 10, axis=0)
        pipe = make_pipeline(plain, flush_points=1, points_per_cell=2)
        pipe.stage(coords)
        flush = pipe.build_flush(pipe.drain_disks())
        assert pipe.stats.overflow_points == 8
        store = pipe.stores[0]
        ext = store.overflow_extent
        blocks = np.concatenate(
            [plan_blocks(s) for s in flush.subs]
        )
        chain = blocks[(blocks >= ext.start)
                       & (blocks < ext.start + ext.nblocks)]
        assert chain.size > 0

    def test_flush_clears_the_buffers(self, plain):
        pipe = make_pipeline(plain, flush_points=1)
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
        pipe = make_pipeline(sharded, flush_points=1)
        pipe.stage(coords)
        flush = pipe.build_flush(pipe.drain_disks())
        for sub, source in zip(flush.subs,
                               flush.sources):
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
        pipe = make_pipeline(replicated, flush_points=1,
                             points_per_cell=2)
        pipe.stage(coords)
        flush = pipe.build_flush(pipe.drain_disks())
        by_chunk: dict = {}
        for sub, source in zip(flush.subs,
                               flush.sources):
            by_chunk.setdefault(source.chunk, []).append((source, sub))
        for ci, pairs in by_chunk.items():
            assert sorted(s.copy for s, _ in pairs) == [0, 1]
            disks = {s.disk for s, _ in pairs}
            assert len(disks) == 2  # copies live on distinct disks
            # same layout on every copy: byte-identical write shapes
            counts = {plan_blocks(sub).size for _, sub in pairs}
            assert len(counts) == 1

    def test_twin_overflow_extents_match_the_primary(self, replicated):
        pipe = make_pipeline(replicated)
        for ci, store in enumerate(pipe.stores):
            exts = pipe._copy_extents[ci]
            assert set(exts) == {0, 1}
            assert exts[0] is store.overflow_extent
            assert exts[1].nblocks == store.overflow_extent.nblocks

    def test_dead_copy_is_skipped_and_counted(self, replicated):
        replicated.storage.fail_disk(1)
        pipe = make_pipeline(replicated, flush_points=1)
        pipe.stage([[0, 0, 0], [15, 7, 7]])
        flush = pipe.build_flush(pipe.drain_disks())
        assert all(s.disk != 1 for s in flush.sources)
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
        pipe = make_pipeline(ds, flush_points=1, points_per_cell=64)
        coords = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]])
        pipe.stage(coords)
        flush = pipe.build_flush(pipe.drain_disks())
        starts, lengths = ds.mapper.write_extents(coords)
        expected = np.concatenate([
            np.arange(s, s + n, dtype=np.int64)
            for s, n in zip(starts.tolist(), lengths.tolist())
        ])
        got = np.unique(np.concatenate(
            [plan_blocks(s) for s in flush.subs]
        ))
        assert np.array_equal(got, np.unique(expected))
        cb = int(ds.mapper.cell_blocks)
        assert got.size >= np.unique(coords, axis=0).shape[0] * cb


class TestSummaries:
    def test_store_summary_aggregates_chunks(self, sharded):
        pipe = make_pipeline(sharded, flush_points=1)
        pipe.stage([[0, 0, 0], [15, 7, 7]])
        pipe.build_flush(pipe.drain_disks())
        out = pipe.store_summary()
        assert out["n_chunks"] == len(pipe.chunks)
        assert out["n_points"] == 2
        assert out["points_per_cell"] == pipe.plan.points_per_cell
