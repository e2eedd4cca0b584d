"""Fluent streaming-ingest runs: ``Dataset.ingest(...).run()``.

An :class:`IngestRun` binds a seeded record stream and a bulk loader to
a dataset, drives the staged :class:`~repro.ingest.pipeline
.IngestPipeline` batch by batch (flushes execute scatter-gather, like
read queries), optionally folds overflow chains back with a modelled
background reorganisation, and returns an
:class:`~repro.ingest.report.IngestReport`.

When the resolved plan suggests a chunk shape (the adaptive loader on a
sharded dataset) the run re-chunks the dataset *before* building the
pipeline — the §4.6-style density sample picks the split axis, so a
clustered stream lands whole clusters on one member disk.
"""

from __future__ import annotations

import numpy as np

from repro.errors import IngestError
from repro.ingest.loader import resolve_loader
from repro.ingest.pipeline import IngestPipeline
from repro.ingest.reorg import plan_reorganize
from repro.ingest.streams import make_stream
from repro.query.scatter import scatter_execute

__all__ = ["IngestRun"]


class IngestRun:
    """Builder for one synchronous ingest run against a dataset.

    Options merge ``dataset.with_ingest(...)`` defaults with per-run
    overrides; anything not consumed here is passed to the stream
    factory (``n_clusters``, ``spread``, ``coords``, ...).
    """

    def __init__(self, dataset, overrides: dict | None = None):
        spec = dict(dataset._ingest_spec or {})
        spec.update(overrides or {})
        self.dataset = dataset
        self.stream_spec = spec.pop("stream", "uniform")
        self.loader_spec = spec.pop("loader", "fixed")
        self.n_points = int(spec.pop("n_points", 2048))
        self.batch_points = int(spec.pop("batch_points", 256))
        self.flush_points = int(spec.pop("flush_points", 1024))
        seed = spec.pop("seed", None)
        if seed is None:
            seed = dataset.seed if dataset.seed is not None else 0
        self.seed = int(seed)
        self.reorganize = bool(spec.pop("reorganize", False))
        self.throttle = float(spec.pop("throttle", 1.0))
        self.adapt_chunks = bool(spec.pop("adapt_chunks", True))
        self.loader_opts = dict(spec.pop("loader_opts", {}))
        self.stream_opts = spec

    # chainable knobs --------------------------------------------------

    def with_stream(self, stream, **opts) -> "IngestRun":
        self.stream_spec = stream
        self.stream_opts.update(opts)
        return self

    def with_loader(self, loader, **opts) -> "IngestRun":
        self.loader_spec = loader
        self.loader_opts.update(opts)
        return self

    def with_points(self, n_points: int,
                    batch_points: int | None = None) -> "IngestRun":
        self.n_points = int(n_points)
        if batch_points is not None:
            self.batch_points = int(batch_points)
        return self

    def with_flush(self, flush_points: int) -> "IngestRun":
        self.flush_points = int(flush_points)
        return self

    def with_reorganize(self, on: bool = True, *,
                        throttle: float = 1.0) -> "IngestRun":
        self.reorganize = bool(on)
        self.throttle = float(throttle)
        return self

    # execution --------------------------------------------------------

    def build_stream(self):
        return make_stream(
            self.stream_spec,
            tuple(self.dataset.shape),
            n_points=self.n_points,
            batch_points=self.batch_points,
            seed=self.seed,
            **self.stream_opts,
        )

    def run(self, rng: np.random.Generator | None = None):
        """Stream every batch through the pipeline and report."""
        ds = self.dataset
        stream = self.build_stream()
        entry = resolve_loader(self.loader_spec)
        plan = entry.fn(ds, stream, **self.loader_opts)

        if (
            plan.chunk_shape is not None
            and self.adapt_chunks
            and ds.is_sharded
            and ds._store is None
            and tuple(plan.chunk_shape)
            != tuple(ds.storage.shard_map.chunks[0].shape)
        ):
            # re-chunk on the sampled density before any byte lands;
            # with_shards mutates in place and re-replicates if needed
            spec = ds._shard_spec
            ds.with_shards(
                int(spec["n_shards"]), spec["strategy"],
                chunk_shape=tuple(plan.chunk_shape),
            )

        pipeline = IngestPipeline(
            ds, stream, entry,
            plan=plan, flush_points=self.flush_points,
        )
        if rng is None:
            rng = ds.rng()

        write_ms = 0.0
        flushes = 0
        blocks_written = 0
        per_disk: dict[int, float] = {}

        def execute(disks) -> None:
            nonlocal write_ms, flushes, blocks_written
            flush = pipeline.build_flush(disks)
            if flush is None:
                return
            result, disk_stats = scatter_execute(
                ds.storage, flush.prepared, rng=rng
            )
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
        if pipeline.stats.buffered_points:
            raise IngestError(
                f"{pipeline.stats.buffered_points} points left buffered "
                "after the final drain"
            )

        reorg = None
        reorg_ms = 0.0
        if self.reorganize:
            report = plan_reorganize(pipeline, throttle=self.throttle)
            if report is not None:
                reorg = report.to_dict()
                reorg_ms = report.reorg_ms
                tele = ds.storage.obs
                if tele is not None:
                    from repro.obs.span import record_reorg

                    record_reorg(tele, report)

        stage_ms = (
            pipeline.stats.streamed_points * pipeline.stage_ms_per_point
        )
        from repro.ingest.report import IngestReport

        return IngestReport(
            layout=ds.layout,
            drive=ds.drive_name,
            shape=tuple(ds.shape),
            stream=stream.describe(),
            loader=entry.name,
            plan=plan.describe(),
            n_points=pipeline.stats.streamed_points,
            n_batches=n_batches,
            flushes=flushes,
            acked_batches=n_batches,
            stage_ms=stage_ms,
            write_ms=write_ms,
            reorg=reorg,
            total_ms=stage_ms + write_ms + reorg_ms,
            home_blocks=pipeline.stats.home_blocks,
            blocks_written=blocks_written,
            overflow_points=pipeline.stats.overflow_points,
            skipped_copy_writes=pipeline.stats.skipped_copy_writes,
            per_disk_busy_ms=per_disk,
            store=pipeline.store_summary(),
        )
