"""repro.ingest — streaming ingest & adaptive bulk loading.

The write path for the scaled-out stack: seeded record streams
(:data:`STREAMS`: ``uniform`` / ``clustered`` / ``drifting`` /
``replay``) feed a staged :class:`IngestPipeline` — write buffers kept
as one count array keyed by owning member disk, chunk and cell, a
locality-preserving flush that packs buffered points into whole basic
cubes before issuing sorted sequential writes, and a modelled
background reorganisation
(:func:`plan_reorganize`) that folds overflow chains back with the
rebuild layer's throttled-interference accounting.  A bulk loader
(:data:`LOADERS`: ``fixed`` / ``adaptive``) fixes the ingest plan;
``adaptive`` samples the stream to size cell capacity and pick the
chunk split axis from observed density.  On a replicated dataset every
flush writes the primary *and* all live copies block-for-block
identically, so an acknowledged batch survives ``fail_disk``::

    from repro import Dataset

    ds = Dataset.create((64, 16, 16), layout="multimap", seed=42)
    ds.with_shards(2).with_replication(2)
    report = ds.with_ingest(stream="clustered", loader="adaptive",
                            n_points=4096).ingest().run()
    print(report.mb_per_s)          # goodput: home-cube bytes / time

Mixed read/write storms ride the traffic engine via :class:`WriteMix`
and :class:`IngestClient` (``TrafficRun.ingest``); with ingest detached
the read path is bit-identical to the read-only stack — the parity
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
    DriftingStream,
    RecordStream,
    ReplayStream,
    StreamEntry,
    UniformStream,
    make_stream,
    register_stream,
    stream_names,
)
from repro.ingest.sweep import render_ingest_sweep, run_ingest_sweep
from repro.ingest.traffic import IngestBatch, IngestClient, WriteMix

__all__ = [
    "LOADERS",
    "STREAMS",
    "ClusteredStream",
    "DriftingStream",
    "FlushPlan",
    "IngestBatch",
    "IngestClient",
    "IngestPipeline",
    "IngestPlan",
    "IngestPrepared",
    "IngestReport",
    "IngestStats",
    "LoaderEntry",
    "RecordStream",
    "ReorgReport",
    "ReplayStream",
    "StreamEntry",
    "UniformStream",
    "WriteMix",
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
