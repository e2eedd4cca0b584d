"""``IngestRun.run`` equals staging its stream one batch at a time.

A run draws its stream a window of batches at a time
(:meth:`~repro.ingest.streams.RecordStream.windows`) and stages each
window in one pass (:meth:`~repro.ingest.pipeline.IngestPipeline
.stage_window`), flushing whichever disks cross ``flush_points`` after
each batch.  ``reference_run`` keeps the loop that ran before: per
batch of ``stream.batches()``, ``stage`` then ``build_flush`` and
``scatter_execute`` of the disks it names, then the final drain and
``plan_reorganize``.  The property runs both on twin datasets and
requires equal report JSON, drive clocks, heads and firmware-cache
recency, pool, shard and replica state, and telemetry spans, over every
registered layout, every stream, both loaders, 1-3 shards x 1-2
copies, batch sizes that do not divide the stream, flush thresholds
below and above the batch size, windows shorter than the run, firmware
track caches and buffer pools.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Dataset
from repro.api.registry import layout_names
from repro.disk import TrackCache
from repro.errors import ReproError
from repro.ingest import streams
from repro.ingest.pipeline import STAGE_MS_PER_POINT, IngestPipeline
from repro.ingest.reorg import plan_reorganize
from repro.ingest.report import IngestReport
from repro.query.scatter import scatter_execute

SHAPE = (16, 8, 6)


def reference_run(run, rng):
    """``IngestRun.run`` as it staged one batch at a time."""
    ds = run.dataset
    stream = run.stream
    entry = run.loader
    plan = entry.fn(ds, stream, **run.loader_opts)
    if (
        plan.chunk_shape is not None
        and ds.is_sharded
        and ds._store is None
        and tuple(plan.chunk_shape)
        != tuple(ds.storage.shard_map.chunks[0].shape)
    ):
        spec = ds._shard_spec
        ds.with_shards(
            int(spec["n_shards"]), spec["strategy"],
            chunk_shape=tuple(plan.chunk_shape),
        )
    pipeline = IngestPipeline(ds, stream, plan,
                              flush_points=run.flush_points)
    write_ms = 0.0
    flushes = 0
    blocks_written = 0
    per_disk: dict[int, float] = {}

    def execute(disks) -> None:
        nonlocal write_ms, flushes, blocks_written
        flush = pipeline.build_flush(disks)
        if flush is None:
            return
        result, disk_stats = scatter_execute(ds.storage, flush.prepared,
                                             rng=rng)
        write_ms += result.total_ms
        blocks_written += result.n_blocks
        flushes += 1
        for d, s in disk_stats.items():
            per_disk[d] = per_disk.get(d, 0.0) + s["busy_ms"]

    n_batches = 0
    for batch in stream.batches():
        n_batches += 1
        execute(pipeline.stage(batch))
    execute(pipeline.drain_disks())
    assert not pipeline.stats.buffered_points

    reorg = None
    reorg_ms = 0.0
    if run.reorganize:
        report = plan_reorganize(pipeline)
        if report is not None:
            reorg = report.to_dict()
            reorg_ms = report.reorg_ms
            tele = ds.storage.obs
            if tele is not None:
                from repro.obs.span import record_reorg

                record_reorg(tele, report)
    stage_ms = pipeline.stats.streamed_points * STAGE_MS_PER_POINT
    return IngestReport(
        layout=ds.layout, drive=ds.drive_name, shape=tuple(ds.shape),
        stream=stream.describe(), loader=entry.name,
        plan=plan.describe(), n_points=pipeline.stats.streamed_points,
        n_batches=n_batches, flushes=flushes, acked_batches=n_batches,
        stage_ms=stage_ms, write_ms=write_ms, reorg=reorg,
        total_ms=stage_ms + write_ms + reorg_ms,
        home_blocks=pipeline.stats.home_blocks,
        blocks_written=blocks_written,
        overflow_points=pipeline.stats.overflow_points,
        skipped_copy_writes=pipeline.stats.skipped_copy_writes,
        per_disk_busy_ms=per_disk, store=pipeline.store_summary(),
    )


def build(case):
    ds = Dataset.create(SHAPE, layout=case["layout"], drive="minidrive",
                        seed=3)
    if case["shards"] > 1:
        ds.with_shards(case["shards"])
        if case["k"] > 1:
            ds.with_replication(case["k"])
    if case["pool"] is not None:
        ds.with_cache(*case["pool"])
    if case["trace"]:
        ds.with_telemetry()
    for drive in ds.volume.drives:
        if case["track_cache"]:
            drive.cache = TrackCache(case["track_cache"])
    return ds


def state(ds):
    storage = ds.storage
    drives = [(d.now_ms, d.current_track,
               None if d.cache is None else list(d.cache._lru))
              for d in ds.volume.drives]
    tele = storage.obs
    spans = metrics = None
    if tele is not None:
        spans = [root.to_dict() for root in tele.tracer.roots]
        metrics = tele.metrics.snapshot()
    return (drives, tuple(storage.shard_map.chunks[0].shape),
            None if ds.cache is None else ds.cache.describe(),
            storage.describe_shards(), storage.describe_replicas(),
            spans, metrics)


@st.composite
def cases(draw):
    shards = draw(st.integers(1, 3))
    n_points = draw(st.integers(1, 700))
    stream = draw(st.sampled_from(["uniform", "clustered"]))
    opts = {}
    if stream == "clustered":
        opts["n_clusters"] = draw(st.integers(1, 4))
        opts["spread"] = draw(st.sampled_from([0.02, 0.1, 0.4]))
    return {
        "layout": draw(st.sampled_from(sorted(layout_names()))),
        "shards": shards,
        "k": draw(st.integers(1, min(2, shards))),
        "pool": draw(st.one_of(st.none(), st.tuples(
            st.sampled_from([64, 512]),
            st.sampled_from(["none", "track"])))),
        "trace": draw(st.booleans()),
        "track_cache": draw(st.sampled_from([0, 1, 8])),
        "run": dict(
            stream=stream,
            loader=draw(st.sampled_from(["fixed", "adaptive"])),
            n_points=n_points,
            batch_points=draw(st.integers(1, 160)),
            flush_points=draw(st.integers(1, 300)),
            loader_opts={"points_per_cell": draw(st.integers(1, 6))},
            reorganize=draw(st.booleans()),
            seed=draw(st.integers(0, 2**32 - 1)),
            **opts,
        ),
        # 1 and a few hundred points cut the run into many windows
        "window": draw(st.sampled_from([1, 100, 300,
                                        streams.WINDOW_POINTS])),
        "rng": draw(st.integers(0, 2**32 - 1)),
    }


def outcome(call):
    try:
        return call()
    except ReproError as exc:  # an exhausted overflow extent, say
        return type(exc), str(exc)


class TestRunEqualsBatchByBatch:
    @settings(max_examples=200, deadline=None)
    @given(cases())
    def test_report_and_state(self, case):
        windowed, oracle = build(case), build(case)
        with mock.patch.object(streams, "WINDOW_POINTS", case["window"]):
            got = outcome(lambda: windowed.ingest(**case["run"]).run(
                rng=np.random.default_rng(case["rng"])))
        want = outcome(lambda: reference_run(
            oracle.ingest(**case["run"]),
            np.random.default_rng(case["rng"])))
        if isinstance(want, IngestReport):
            assert isinstance(got, IngestReport), got
            assert got.to_json() == want.to_json()
        else:
            assert got == want
        assert state(windowed) == state(oracle)

    def test_window_holds_whole_batches(self):
        stream = streams.ClusteredStream(SHAPE, n_points=1000,
                                         batch_points=96, seed=4)
        ends = []
        with mock.patch.object(streams, "WINDOW_POINTS", 300):
            for coords, window_ends in stream.windows():
                assert len(coords) == window_ends[-1] <= 300
                ends.append(window_ends)
        # three 96-point batches fit in 300 points; the last batch is
        # the stream's remainder
        assert [len(e) for e in ends] == [3, 3, 3, 2]
        assert ends[-1] == [96, 136]
        whole = np.concatenate([c for c, _ in stream.windows()])
        assert np.array_equal(whole, np.concatenate(list(stream.batches())))
