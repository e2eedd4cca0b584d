"""Streaming-ingest runs: ``Dataset.ingest(...).run()``.

An :class:`IngestRun` binds a seeded record stream and a bulk loader to
a dataset, resolves the loader's plan, drives the staged
:class:`~repro.ingest.pipeline.IngestPipeline` a window of batches at a
time (flushes execute scatter-gather, like read queries, after the
batch whose staging triggers them), optionally folds overflow chains
back with a modelled background reorganisation, and returns an
:class:`~repro.ingest.report.IngestReport`.  It is the only code that
runs the pipeline: traffic storms only read.

A run's options are the keywords of :meth:`Dataset.ingest
<repro.api.Dataset.ingest>` layered on :meth:`Dataset.with_ingest
<repro.api.Dataset.with_ingest>`'s: ``stream`` and ``loader`` by
registered name, ``n_points``, ``batch_points``, ``flush_points``,
``seed``, ``reorganize`` and ``loader_opts`` (a dict of the loader's
own keywords); every other keyword goes to the stream.  They are
checked when the run is built, and when ``with_ingest`` stores them
(sizes, seed, the loader name and the names of its options, the stream
and its keywords, so a keyword the stream or the loader does not take
raises :class:`~repro.errors.IngestError`), or when
:meth:`IngestRun.run` builds the plan (the loader options' values),
before the loader re-chunks the dataset or any block is written.

When the resolved plan suggests a chunk shape (the adaptive loader on a
sharded dataset) the run re-chunks the dataset *before* building the
pipeline — the §4.6-style density sample picks the split axis, so a
clustered stream lands whole clusters on one member disk.
"""

from __future__ import annotations

import numpy as np

from repro.errors import (
    IngestError,
    _check_count,
    _check_keywords,
    _check_rng,
    _keywords,
)
from repro.ingest.loader import resolve_loader
from repro.ingest.pipeline import STAGE_MS_PER_POINT, IngestPipeline
from repro.ingest.reorg import plan_reorganize
from repro.ingest.streams import check_count, make_stream
from repro.query.scatter import scatter_execute

__all__ = ["IngestRun"]


class IngestRun:
    """One synchronous ingest run against a dataset.

    ``spec`` holds the run's options: :meth:`Dataset.ingest
    <repro.api.Dataset.ingest>` layers its overrides on the
    ``with_ingest(...)`` defaults.  The run's own are consumed here;
    every other keyword goes to the stream factory (``n_clusters``,
    ``spread``), and the stream is built now, so a bad stream option — a
    retired run keyword included — raises :class:`IngestError` when the
    run is built.  Building a run draws nothing from the dataset's
    generators.
    """

    def __init__(self, dataset, spec: dict):
        spec = dict(spec)
        self.dataset = dataset
        stream = spec.pop("stream", "uniform")
        self.loader = resolve_loader(spec.pop("loader", "fixed"))
        n_points = check_count("n_points", spec.pop("n_points", 2048))
        batch_points = check_count("batch_points",
                                   spec.pop("batch_points", 256))
        self.flush_points = check_count("flush_points",
                                        spec.pop("flush_points", 1024))
        seed = spec.pop("seed", None)
        if seed is None:
            seed = dataset.seed if dataset.seed is not None else 0
        seed = _check_count("seed", seed, IngestError, low=0)
        self.reorganize = bool(spec.pop("reorganize", False))
        loader_opts = spec.pop("loader_opts", {})
        if not isinstance(loader_opts, dict):
            raise IngestError(
                f"loader_opts must be a dict, got "
                f"{type(loader_opts).__name__}"
            )
        _check_keywords(f"{self.loader.name} loader", loader_opts,
                        _keywords(self.loader.fn), IngestError)
        self.loader_opts = dict(loader_opts)
        self.stream = make_stream(
            stream, tuple(dataset.shape), n_points=n_points,
            batch_points=batch_points, seed=seed, **spec,
        )

    def run(self, rng: np.random.Generator | None = None):
        """Stream every batch through the pipeline and report.  ``rng``
        is None (the dataset's next child generator) or a numpy
        Generator; anything else raises :class:`IngestError`."""
        _check_rng(rng, IngestError)
        ds = self.dataset
        stream = self.stream
        plan = self.loader.fn(ds, stream, **self.loader_opts)

        if (
            plan.chunk_shape is not None
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

        pipeline = IngestPipeline(ds, stream, plan,
                                  flush_points=self.flush_points)
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
            result, disk_stats = scatter_execute(ds.storage, flush, rng=rng)
            write_ms += result.total_ms
            blocks_written += result.n_blocks
            flushes += 1
            for d, s in disk_stats.items():
                per_disk[d] = per_disk.get(d, 0.0) + s["busy_ms"]

        n_batches = 0
        for coords, ends in stream.windows():
            n_batches += len(ends)
            for disks in pipeline.stage_window(coords, ends):
                execute(disks)
        execute(pipeline.drain_disks())
        if pipeline.stats.buffered_points:
            raise IngestError(
                f"{pipeline.stats.buffered_points} points left buffered "
                "after the final drain"
            )

        reorg = None
        reorg_ms = 0.0
        if self.reorganize:
            report = plan_reorganize(pipeline)
            if report is not None:
                reorg = report.to_dict()
                reorg_ms = report.reorg_ms
                tele = ds.storage.obs
                if tele is not None:
                    from repro.obs.span import record_reorg

                    record_reorg(tele, report)

        stage_ms = pipeline.stats.streamed_points * STAGE_MS_PER_POINT
        from repro.ingest.report import IngestReport

        return IngestReport(
            layout=ds.layout,
            drive=ds.drive_name,
            shape=tuple(ds.shape),
            stream=stream.describe(),
            loader=self.loader.name,
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
