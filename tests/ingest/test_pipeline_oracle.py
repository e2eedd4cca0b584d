"""The keyed ingest buffers against the dict-of-dicts pipeline they
replaced, plus the sort-based unique and the stream draws against the
numpy calls they stand in for.

``ReferencePipeline`` keeps the earlier ``stage`` / ``drain_disks`` /
``build_flush`` verbatim: per-disk write buffers holding one
``{local flat index: count}`` map per chunk.  A hypothesis state machine
drives it and the real pipeline side by side, each on its own
identically built dataset, and after every step requires equal ready
disks, drain sets, flush plans, stats and store summaries.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.api import Dataset
from repro.errors import IngestError
from repro.ingest.loader import resolve_loader
from repro.ingest.pipeline import (
    FlushPlan,
    IngestPipeline,
    IngestPrepared,
    WriteSource,
)
from repro.ingest.streams import ClusteredStream
from repro.mappings.base import sorted_unique

SHAPE = (16, 8, 8)
LAYOUTS = ("naive", "zorder", "hilbert", "multimap")
#: None is the shard default; SHAPE puts one chunk on a multi-disk
#: volume (the other disks own none); (6, 8, 3) leaves smaller edge
#: chunks; (8, 4, 4) interleaves chunks across disks
CHUNK_SHAPES = (None, SHAPE, (6, 8, 3), (8, 4, 4))
#: a chain page holds points_per_cell points, so with one point per
#: cell this many staged points cannot exhaust a chunk's 256 pages
MAX_STAGED = 240


class ReferencePipeline(IngestPipeline):
    """The dict-of-dicts buffers: disk -> chunk -> {local flat: count}."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._buffers: dict[int, dict[int, dict[int, int]]] = {}
        self._pending: dict[int, int] = {}

    @staticmethod
    def _flatten_local(coords: np.ndarray, shape) -> np.ndarray:
        strides = np.cumprod((1,) + tuple(shape)[:-1]).astype(np.int64)
        return coords @ strides

    def stage(self, coords) -> list[int]:
        coords = np.asarray(coords, dtype=np.int64)
        if coords.ndim == 1:
            coords = coords[np.newaxis, :]
        dims = np.asarray(self.dataset.shape, dtype=np.int64)
        if coords.shape[1] != len(dims):
            raise IngestError("coordinate rank does not match dataset")
        if coords.size and ((coords < 0).any()
                            or (coords >= dims).any()):
            raise IngestError("coordinates out of dataset bounds")
        cid = (coords // self._base_shape) @ self._grid_strides
        order = np.argsort(cid, kind="stable")
        cid = cid[order]
        coords = coords[order]
        bounds = np.flatnonzero(np.diff(cid)) + 1
        for rows, ci in zip(
            np.split(np.arange(len(cid)), bounds),
            cid[np.concatenate(([0], bounds))] if len(cid) else (),
        ):
            ci = int(ci)
            chunk = self.chunks[ci]
            local = coords[rows] - np.asarray(chunk.origin,
                                              dtype=np.int64)
            flats, counts = np.unique(
                self._flatten_local(local, chunk.shape),
                return_counts=True,
            )
            buf = self._buffers.setdefault(chunk.disk, {}).setdefault(
                ci, {}
            )
            for f, c in zip(flats.tolist(), counts.tolist()):
                buf[f] = buf.get(f, 0) + c
            self._pending[chunk.disk] = (
                self._pending.get(chunk.disk, 0) + len(rows)
            )
        self.stats.streamed_points += len(coords)
        return sorted(
            d for d, p in self._pending.items() if p >= self.flush_points
        )

    def drain_disks(self) -> list[int]:
        return sorted(
            d for d, bufs in self._buffers.items()
            if any(bufs.values())
        )

    def build_flush(self, disks) -> FlushPlan | None:
        subs: list = []
        sources: list = []
        n_points = 0
        flushed: list[int] = []
        for disk in sorted({int(d) for d in disks}):
            chunk_bufs = self._buffers.get(disk, {})
            for ci in sorted(chunk_bufs):
                cells = chunk_bufs[ci]
                if not cells:
                    continue
                items = sorted(cells.items())
                flats = np.array([f for f, _ in items], dtype=np.int64)
                counts = np.array([c for _, c in items], dtype=np.int64)
                chunk = self.chunks[ci]
                lcoords = self._unflatten_local(flats, chunk.shape)
                store = self.stores[ci]
                spilled = store.bulk_insert(lcoords, counts)
                page_idx = (
                    store.drain_touched_pages()
                    - store.overflow_extent.start
                )
                pts = int(counts.sum())
                copies = self.storage.write_copies(ci)
                self.stats.skipped_copy_writes += (
                    self.n_copies - len(copies)
                )
                cb = int(self._chunk_mappers[ci].cell_blocks)
                for copy, cmapper in copies:
                    if hasattr(cmapper, "write_extents"):
                        starts, lengths = cmapper.write_extents(lcoords)
                        home = np.concatenate([
                            s + np.arange(n, dtype=np.int64)
                            for s, n in zip(starts.tolist(),
                                            lengths.tolist())
                        ])
                    else:
                        home = np.asarray(cmapper.lbns(lcoords),
                                          dtype=np.int64)
                        if cb > 1:
                            home = (
                                home[:, None]
                                + np.arange(cb, dtype=np.int64)
                            ).ravel()
                    lbns = home
                    if page_idx.size:
                        ext = self._copy_extents[ci][copy]
                        lbns = np.concatenate(
                            [home, ext.start + page_idx]
                        )
                    subs.append(
                        self.storage.prepare_write(cmapper, lbns, pts)
                    )
                    sources.append(
                        WriteSource(chunk=ci, copy=int(copy),
                                    disk=cmapper.disk_index)
                    )
                    if copy == 0:
                        self.stats.home_blocks += len(home)
                n_points += pts
                self.stats.overflow_points += spilled
                flushed.append(ci)
                chunk_bufs[ci] = {}
            self._pending[disk] = 0
        if not subs:
            return None
        self.stats.flushes += 1
        self.stats.flushed_points += n_points
        prepared = IngestPrepared(
            mapper_name=self.mapper_name,
            subs=tuple(subs),
            n_cells=n_points,
            sources=tuple(sources),
            n_points=n_points,
        )
        return FlushPlan(prepared, n_points, tuple(flushed))


def assert_prepared_equal(got: IngestPrepared, want: IngestPrepared):
    assert type(got) is type(want)
    assert got.mapper_name == want.mapper_name
    assert got.n_cells == want.n_cells
    assert got.n_points == want.n_points
    assert got.sources == want.sources
    assert len(got.subs) == len(want.subs)
    for g, w in zip(got.subs, want.subs):
        assert np.array_equal(g.plan.starts, w.plan.starts)
        assert np.array_equal(g.plan.lengths, w.plan.lengths)
        assert g.plan.starts.dtype == w.plan.starts.dtype
        assert g.plan.policy == w.plan.policy
        assert g.policy == w.policy
        assert g.n_cells == w.n_cells
        assert g.disk_index == w.disk_index
        assert g.cache_ms == w.cache_ms


def assert_flush_equal(got: FlushPlan | None, want: FlushPlan | None):
    assert (got is None) == (want is None)
    if want is None:
        return
    assert got.chunks == want.chunks
    assert got.n_points == want.n_points
    assert_prepared_equal(got.prepared, want.prepared)


cells = st.tuples(*(st.integers(0, s - 1) for s in SHAPE))
#: batches repeat cells often, so counts above one are exercised
batches = st.lists(cells, min_size=1, max_size=12).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), min_size=0, max_size=24)
)


class PipelineOracle(RuleBasedStateMachine):
    """The keyed pipeline and the reference, step for step."""

    @initialize(
        layout=st.sampled_from(LAYOUTS),
        shards=st.integers(1, 3),
        k=st.integers(1, 2),
        chunk_shape=st.sampled_from(CHUNK_SHAPES),
        strategy=st.sampled_from(("disk_modulo", "round_robin")),
        ppc=st.integers(1, 4),
        flush_points=st.integers(1, 40),
    )
    def build(self, layout, shards, k, chunk_shape, strategy, ppc,
              flush_points):
        k = min(k, shards)  # copies live on distinct disks

        def make(cls):
            ds = Dataset.create(SHAPE, layout=layout, drive="minidrive",
                                seed=5)
            ds = ds.with_shards(shards, strategy, chunk_shape=chunk_shape)
            if k > 1:
                ds = ds.with_replication(k)
            stream = ClusteredStream(SHAPE, n_points=8, seed=1)
            plan = resolve_loader("fixed").fn(ds, stream,
                                              points_per_cell=ppc)
            return cls(ds, stream, plan, flush_points=flush_points)

        self.new = make(IngestPipeline)
        self.ref = make(ReferencePipeline)
        self.n_disks = self.new.storage.shard_map.n_disks
        self.staged = 0

    @precondition(lambda self: self.staged < MAX_STAGED)
    @rule(batch=batches)
    def stage(self, batch):
        coords = np.asarray(batch, dtype=np.int64).reshape(-1, len(SHAPE))
        self.staged += len(coords)
        assert self.new.stage(coords) == self.ref.stage(coords)

    @rule(data=st.data())
    def flush(self, data):
        # -1 and n_disks are off the volume; with the one-chunk shape
        # some disks on it own no chunk
        disks = data.draw(st.lists(st.integers(-1, self.n_disks)))
        assert_flush_equal(self.new.build_flush(disks),
                           self.ref.build_flush(disks))

    @invariant()
    def same_state(self):
        if not hasattr(self, "new"):
            return
        assert self.new.drain_disks() == self.ref.drain_disks()
        assert self.new.stats == self.ref.stats
        assert self.new.store_summary() == self.ref.store_summary()


PipelineOracle.TestCase.settings = settings(
    max_examples=60, stateful_step_count=25, deadline=None
)
TestPipelineOracle = PipelineOracle.TestCase


int64s = st.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max)


@settings(max_examples=200, deadline=None)
@given(values=hnp.arrays(
    np.int64,
    st.integers(0, 300),
    # a narrow band forces duplicates; the full range reaches the
    # int64 extremes and negatives
    elements=st.one_of(st.integers(-4, 4), int64s),
))
def test_sorted_unique_matches_np_unique(values):
    before = values.copy()
    got = sorted_unique(values)
    want = np.unique(values)
    assert got.dtype == want.dtype == np.int64
    assert np.array_equal(got, want)
    assert np.array_equal(values, before)  # the input is not sorted in place


def reference_draw(stream, rng, n):
    """The draw as ``rng.normal`` with an array scale, re-deriving the
    scale, hotspot centres and clip bound on every batch."""
    ndim = len(stream.dims)
    scale = stream.spread * np.asarray(stream.dims, dtype=np.float64)
    pick = rng.integers(0, stream.n_clusters, size=n)
    center = stream.centers[pick]
    noise = rng.normal(0.0, scale, size=(n, ndim))
    coords = np.rint(center + noise).astype(np.int64)
    return np.clip(coords, 0, np.asarray(stream.dims, dtype=np.int64) - 1)


@settings(max_examples=60, deadline=None)
@given(
    dims=st.lists(st.integers(1, 40), min_size=1, max_size=4),
    n_points=st.integers(1, 300),
    batch_points=st.integers(1, 120),
    seed=st.integers(0, 2**32 - 1),
    spread=st.floats(0.01, 2.0),
)
def test_stream_draws_match_rng_normal(dims, n_points, batch_points,
                                       seed, spread):
    stream = ClusteredStream(tuple(dims), n_points=n_points,
                             batch_points=batch_points, seed=seed,
                             spread=spread)
    rng = np.random.default_rng(seed)
    done = 0
    for batch in stream.batches():
        n = min(batch_points, n_points - done)
        assert np.array_equal(batch, reference_draw(stream, rng, n))
        done += n
    assert done == n_points
    sample_rng = np.random.default_rng((seed, 0x5A))
    assert np.array_equal(stream.sample(n_points),
                          reference_draw(stream, sample_rng, n_points))
