"""The staged ingest pipeline: buffer → flush → sequential writes.

Incoming points are routed to the chunk that owns their cell and
counted in one **keyed count array**, one int64 per dataset cell.  Keys
number every cell by owning member disk, then chunk, then chunk-local
flat index, so a chunk's cells form one contiguous key segment and a
disk's chunks sit side by side.  When a disk's backlog crosses
``flush_points`` — or the stream ends — that disk's chunks flush in
chunk order.

The pipeline is driven by :class:`~repro.api.ingest.IngestRun`, which
resolves the loader's :class:`~repro.ingest.loader.IngestPlan` and
executes each flush.  A run is staged a **window** at a time
(:meth:`IngestPipeline.stage_window`): consecutive batches, at most
:data:`~repro.ingest.streams.WINDOW_POINTS` points (whole batches, at
least one), so memory stays bounded however long the stream.  The
window's points are checked and keyed once, and one ``bincount`` counts
them per batch and per disk; from those counts a short pass over the
batches finds which disks cross ``flush_points`` after which batch.
At each such flush event the points staged since the previous one fold
into the count array (one ``np.add.at``), so a flush sees exactly the
buffer that staging the batches one by one would leave.  ``stage()``
stages a window of one batch.

A flush reads a chunk's buffered cells, already sorted by local index,
as the nonzero entries of its segment.  They fold into the chunk's
:class:`CellStore` (§4.6 semantics: free cell space absorbs, the rest
spills to overflow chains) at their flat indices, and the touched
**whole cells plus dirtied overflow pages** become one
:class:`~repro.query.executor.WritePrepared` batch per copy, issued in
sorted LBN order so a locality-preserving layout (MultiMap's basic
cubes) turns a flush into a few long sequential writes.  The flat
indices go straight to a linear layout's ranks
(:meth:`~repro.mappings.base.Mapper.flat_lbns`); coordinates are built
only for a layout that places whole cubes (MultiMap's
``write_extents``).

Replica-consistent writes: every flush targets the primary *and* all
live copies of its chunk (``write_copies``; one copy unless the dataset
is replicated), with a twin
overflow extent allocated per copy so chain pages land block-for-block
identically everywhere — an acknowledged batch survives any single
``fail_disk``.  A copy on a disk failed before or between runs is
skipped and counted (``skipped_copy_writes``; rebuilt later); a chunk
with **no** live copy refuses the flush loudly.

One logical :class:`CellStore` exists per chunk regardless of k: the
copies are byte-equal by construction, so occupancy bookkeeping is
shared and only the block writes fan out.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.store import CellStore
from repro.errors import IngestError, _check_coords
from repro.ingest.loader import IngestPlan
from repro.ingest.streams import RecordStream, check_count
from repro.mappings.base import box_columns, unflatten
from repro.query.scatter import ShardedPrepared

__all__ = [
    "MAX_OVERFLOW_PAGES",
    "STAGE_MS_PER_POINT",
    "IngestPipeline",
    "IngestStats",
    "WriteSource",
]

#: modelled memory cost of buffering one point (ms): an ingest report's
#: ``stage_ms``
STAGE_MS_PER_POINT = 2e-4

#: overflow pages each chunk's :class:`CellStore` may chain
MAX_OVERFLOW_PAGES = 256


@dataclass(frozen=True)
class WriteSource:
    """Provenance of one write sub-plan: which chunk copy it targets."""

    chunk: int
    copy: int
    disk: int


@dataclass
class IngestStats:
    """Cumulative pipeline totals over its lifetime."""

    streamed_points: int = 0
    flushes: int = 0
    flushed_points: int = 0
    home_blocks: int = 0
    overflow_points: int = 0
    skipped_copy_writes: int = 0

    @property
    def buffered_points(self) -> int:
        return self.streamed_points - self.flushed_points


def _expand_extents(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Every LBN of the extents ``(starts, lengths)``, extent by extent."""
    ends = np.cumsum(lengths, dtype=np.int64)
    return np.arange(ends[-1], dtype=np.int64) + np.repeat(
        np.asarray(starts, dtype=np.int64) - (ends - lengths), lengths
    )


class IngestPipeline:
    """Buffers a record stream and flushes it as sequential cube writes.

    Parameters
    ----------
    dataset:
        The (possibly sharded/replicated) façade dataset written into.
        The pipeline builds one :class:`CellStore` per chunk against the
        *primary* chunk mapper; the cell-store façade gate does not
        apply here — this is the write path it points at.
    stream:
        A :class:`~repro.ingest.streams.RecordStream` whose dims must
        match the dataset's shape (its run stages the batches; the
        pipeline does not keep it).
    plan:
        The :class:`IngestPlan` a loader fixed for this stream
        (``resolve_loader(name).fn(dataset, stream, **opts)``; a run
        resolves it in :meth:`IngestRun.run
        <repro.api.ingest.IngestRun.run>`).
    flush_points:
        Per-disk buffered backlog that triggers a flush of that disk.

    Buffering costs :data:`STAGE_MS_PER_POINT` per point, and each
    chunk's store chains at most :data:`MAX_OVERFLOW_PAGES` overflow
    pages.
    """

    def __init__(self, dataset, stream: RecordStream, plan: IngestPlan,
                 *, flush_points: int):
        if tuple(stream.dims) != tuple(dataset.shape):
            raise IngestError(
                f"stream dims {tuple(stream.dims)} do not match dataset "
                f"shape {tuple(dataset.shape)}"
            )
        self.flush_points = check_count("flush_points", flush_points)
        self.dataset = dataset
        self.plan = plan
        self.stats = IngestStats()

        storage = dataset.storage
        self.storage = storage
        self.mapper_name = storage.mapper.name
        self.chunks = storage.shard_map.chunks
        self.grid = storage.shard_map.grid
        self._chunk_mappers = storage.mapper.chunk_mappers
        replica_map = storage.replica_map
        self.n_copies = int(replica_map.k)

        self.stores = tuple(
            CellStore(
                m,
                storage.volume,
                points_per_cell=plan.points_per_cell,
                fill_factor=plan.fill_factor,
                max_overflow_pages=MAX_OVERFLOW_PAGES,
            )
            for m in self._chunk_mappers
        )
        # twin overflow extents per extra copy, so chain pages land at
        # the same page index on every replica (byte-equal copies)
        self._copy_extents: list[dict] = []
        for ci, store in enumerate(self.stores):
            exts = {0: store.overflow_extent}
            for r in range(1, replica_map.k):
                disk = int(replica_map.disks[ci, r])
                exts[r] = storage.volume.allocate_blocks(
                    disk, store.overflow_extent.nblocks
                )
            self._copy_extents.append(exts)

        # a cell's chunk is (coords // _base_shape) . _grid_strides; the
        # reference pipeline of tests/ingest/test_pipeline_oracle.py
        # routes its points by them
        self._grid_strides = np.cumprod((1,) + self.grid[:-1]).astype(
            np.int64
        )
        self._base_shape = np.asarray(self.chunks[0].shape,
                                      dtype=np.int64)
        # the keyed buffer: one count per cell, keys numbered by owning
        # disk, then chunk index, then chunk-local flat index (strides
        # from each chunk's own shape: edge chunks can be smaller than
        # chunks[0]).  ``_cell_key`` holds every cell's key at its
        # Dim0-fastest flat index in the dataset, so a point's key is
        # one gather, and ``_disk_key_ends`` ends each disk's keys.
        n_disks = int(storage.shard_map.n_disks)
        disk_of = np.array([c.disk for c in self.chunks], dtype=np.int64)
        sizes = np.array([c.n_cells for c in self.chunks], dtype=np.int64)
        order = np.argsort(disk_of, kind="stable")
        base = np.empty(len(self.chunks), dtype=np.int64)
        base[order] = np.cumsum(sizes[order]) - sizes[order]
        self._key_spans = list(zip(base.tolist(), (base + sizes).tolist()))
        self._disk_chunks = [
            order[disk_of[order] == d].tolist() for d in range(n_disks)
        ]
        self._disk_key_ends = np.cumsum(
            [int(sizes[chunks].sum()) for chunks in self._disk_chunks],
            dtype=np.int64,
        )
        self._flat_strides = np.cumprod(
            (1,) + tuple(dataset.shape)[:-1]
        ).astype(np.int64)
        self._cell_key = np.empty(int(sizes.sum()), dtype=np.int64)
        for chunk, (lo, hi) in zip(self.chunks, self._key_spans):
            box = box_columns(
                chunk.origin,
                [o + n for o, n in zip(chunk.origin, chunk.shape)],
            )
            flats = sum(col * stride for col, stride
                        in zip(box, self._flat_strides.tolist()))
            self._cell_key[np.ravel(flats)] = np.arange(lo, hi)
        self._counts = np.zeros(int(sizes.sum()), dtype=np.int64)
        self._backlog = np.zeros(n_disks, dtype=np.int64)

    # ------------------------------------------------------------------
    # staging
    # ------------------------------------------------------------------

    _unflatten_local = staticmethod(unflatten)

    def stage(self, coords) -> list[int]:
        """Buffer a batch of cell coordinates; returns the member disks
        whose backlog crossed ``flush_points``."""
        # a one-batch window yields at most once, with the batch buffered
        return next(self.stage_window(coords), [])

    def stage_window(self, coords, ends=None):
        """Buffer a window of consecutive batches: ``coords`` holds them
        one after another, batch ``b`` ending at row ``ends[b]`` (one
        batch if ``ends`` is None).  A generator: after each batch whose
        staging brings some disks' backlogs to ``flush_points`` it
        yields those disks, with every point up to that batch buffered;
        a caller flushes them (:meth:`build_flush`) before resuming.
        The rest of the window is buffered when the generator ends."""
        coords = _check_coords(coords, self.dataset.shape, IngestError)
        if ends is None:
            ends = (len(coords),)
        keys = self._cell_key[coords @ self._flat_strides]
        disks = np.searchsorted(self._disk_key_ends, keys, side="right")
        n_disks = self._backlog.size
        if len(ends) > 1:
            sizes = [b - a for a, b in zip((0, *ends), ends)]
            disks += np.repeat(np.arange(len(ends)) * n_disks, sizes)
        # staged points per batch (rows) and disk (columns)
        per_batch = np.bincount(
            disks, minlength=len(ends) * n_disks
        ).reshape(len(ends), n_disks).tolist()
        flush = self.flush_points
        backlog = self._backlog.tolist()
        lo = 0  # the first row not yet folded into the buffers
        pending = [0] * n_disks
        for end, staged in zip(ends, per_batch):
            pending = [p + n for p, n in zip(pending, staged)]
            ready = [d for d, (b, p) in enumerate(zip(backlog, pending))
                     if b + p >= flush]
            if ready:
                self._fold(keys[lo:end], pending)
                lo, pending = end, [0] * n_disks
                yield ready
                backlog = self._backlog.tolist()
        self._fold(keys[lo:], pending)

    def _fold(self, keys: np.ndarray, per_disk: list[int]) -> None:
        """Buffer staged points: their keys and their count per disk."""
        np.add.at(self._counts, keys, 1)
        self._backlog += per_disk
        self.stats.streamed_points += len(keys)

    def drain_disks(self) -> list[int]:
        """Member disks with any buffered points (the final-drain set)."""
        return np.flatnonzero(self._backlog).tolist()

    # ------------------------------------------------------------------
    # flushing
    # ------------------------------------------------------------------

    def build_flush(self, disks) -> ShardedPrepared | None:
        """Fold the given disks' buffers into their stores and prepare
        one write sub-plan per (chunk, live copy), or return None when
        they buffer nothing.

        The flush is a :class:`~repro.query.scatter.ShardedPrepared`
        whose ``sources[i]`` is the :class:`WriteSource` of ``subs[i]``,
        so :func:`~repro.query.scatter.scatter_execute` services it like
        a read; its ``n_cells`` counts the points it acknowledges."""
        subs: list = []
        sources: list = []
        n_points = 0
        for disk in sorted({int(d) for d in disks}):
            if not 0 <= disk < self._backlog.size:
                continue  # off the volume: nothing was ever buffered
            for ci in self._disk_chunks[disk]:
                lo, hi = self._key_spans[ci]
                segment = self._counts[lo:hi]
                flats = np.flatnonzero(segment)
                if not flats.size:
                    continue
                counts = segment[flats]
                store = self.stores[ci]
                spilled = store.bulk_insert_flat(flats, counts)
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
                lcoords = None
                for copy, cmapper in copies:
                    if hasattr(cmapper, "write_extents"):
                        # locality-preserving packing: the flush lays
                        # down each touched basic cube whole, one long
                        # sequential run per track group (§4.6)
                        if lcoords is None:
                            lcoords = unflatten(flats, cmapper.dims)
                        starts, lengths = cmapper.write_extents(lcoords)
                        home = _expand_extents(starts, lengths)
                    else:
                        home = cmapper.flat_lbns(flats)
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
                        # goodput accounting: home-region blocks laid
                        # down on the primary (whole cubes for a packing
                        # mapper, the touched cells otherwise)
                        self.stats.home_blocks += len(home)
                n_points += pts
                self.stats.overflow_points += spilled
                segment[flats] = 0
            self._backlog[disk] = 0
        if not subs:
            return None
        self.stats.flushes += 1
        self.stats.flushed_points += n_points
        return ShardedPrepared(self.mapper_name, tuple(subs), n_points,
                               tuple(sources))

    # ------------------------------------------------------------------
    # reclamation + reporting
    # ------------------------------------------------------------------

    @property
    def needs_reorganization(self) -> bool:
        return any(s.needs_reorganization for s in self.stores)

    def store_summary(self) -> dict:
        """Aggregate occupancy over the per-chunk stores."""
        stats = [s.stats() for s in self.stores]
        cells = sum(s.n_cells for s in stats)
        return {
            "n_chunks": len(stats),
            "n_cells": cells,
            "n_points": sum(s.n_points for s in stats),
            "points_per_cell": int(self.plan.points_per_cell),
            "fill_factor": float(self.plan.fill_factor),
            "overflow_pages": sum(s.overflow_pages for s in stats),
            "overflow_points": sum(s.overflow_points for s in stats),
            "underflow_cells": sum(s.underflow_cells for s in stats),
            "mean_fill": (
                sum(s.mean_fill * s.n_cells for s in stats) / cells
                if cells else 0.0
            ),
        }
