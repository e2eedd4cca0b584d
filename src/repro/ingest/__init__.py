"""repro.ingest — streaming ingest & adaptive bulk loading.

The write path for the scaled-out stack: seeded record streams
(:data:`STREAMS`: ``uniform`` / ``clustered``) feed a staged
:class:`IngestPipeline` — write buffers kept as one count array keyed
by owning member disk, chunk and cell, a locality-preserving flush
that packs buffered points into whole basic cubes before issuing sorted
sequential writes, and a modelled background reorganisation
(:func:`plan_reorganize`) that folds overflow chains back within the
ideal makespan and reports its interference with the rebuild layer's
dilation estimate.  A bulk loader
(:data:`LOADERS`: ``fixed`` / ``adaptive``) fixes the ingest plan;
``adaptive`` samples the stream to size cell capacity and pick the
chunk split axis from observed density.  On a replicated dataset every
flush writes the primary *and* all live copies block-for-block
identically, so an acknowledged batch survives ``fail_disk``.  Streams
and loaders are given by registered name, and a run's options are the
keywords of ``with_ingest`` / ``ingest``::

    from repro import Dataset

    ds = Dataset.create((64, 16, 16), layout="multimap", seed=42)
    ds.with_shards(2).with_replication(2)
    report = ds.with_ingest(stream="clustered", loader="adaptive",
                            n_points=4096).ingest().run()
    print(report.mb_per_s)          # goodput: home-cube bytes / time

:class:`~repro.api.ingest.IngestRun` is the only code that runs the
pipeline: it resolves the loader's plan, re-chunks if the plan asks,
and executes each flush scatter-gather, like a read query; the
traffic engine only reads.  With ingest detached the read path is
bit-identical to the read-only stack — the parity
``tests/ingest/test_parity.py`` pins.  :func:`run_ingest_sweep`
produces the ingest-MB/s tables per layout × loader
(``repro-bench ingest``, on :mod:`repro.bench.sweep`).
"""

from repro.ingest.loader import (
    LOADERS,
    IngestPlan,
    LoaderEntry,
    loader_names,
    register_loader,
    resolve_loader,
)
from repro.ingest.pipeline import (
    FlushPlan,
    IngestPipeline,
    IngestPrepared,
    IngestStats,
    WriteSource,
)
from repro.ingest.reorg import ReorgReport, plan_reorganize
from repro.ingest.report import IngestReport
from repro.ingest.streams import (
    STREAMS,
    ClusteredStream,
    RecordStream,
    StreamEntry,
    UniformStream,
    make_stream,
    register_stream,
    stream_names,
)
from repro.ingest.sweep import render_ingest_sweep, run_ingest_sweep

__all__ = [
    "LOADERS",
    "STREAMS",
    "ClusteredStream",
    "FlushPlan",
    "IngestPipeline",
    "IngestPlan",
    "IngestPrepared",
    "IngestReport",
    "IngestStats",
    "LoaderEntry",
    "RecordStream",
    "ReorgReport",
    "StreamEntry",
    "UniformStream",
    "WriteSource",
    "loader_names",
    "make_stream",
    "plan_reorganize",
    "register_loader",
    "register_stream",
    "render_ingest_sweep",
    "resolve_loader",
    "run_ingest_sweep",
    "stream_names",
]
