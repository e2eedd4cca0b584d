"""The staged ingest pipeline: buffer → flush → sequential writes.

Incoming points are routed to the chunk that owns their cell and held
in **per-disk write buffers** (one buffer per owning member disk, one
cell-count map per chunk).  When a disk's buffered backlog crosses
``flush_points`` — or the stream ends — that disk's chunks flush: each
chunk's buffered points are folded into its :class:`CellStore`
(§4.6 semantics: free cell space absorbs, the rest spills to overflow
chains), and the touched **whole cells plus dirtied overflow pages**
become one :class:`~repro.query.executor.WritePrepared` batch per copy,
issued in sorted LBN order so a locality-preserving layout (MultiMap's
basic cubes) turns a flush into a few long sequential writes.

Replica-consistent writes: every flush targets the primary *and* all
live copies of its chunk (``write_copies``; one copy unless the dataset
is replicated), with a twin
overflow extent allocated per copy so chain pages land block-for-block
identically everywhere — an acknowledged batch survives any single
``fail_disk``.  Copies on dead disks are skipped (counted, rebuilt
later); a chunk with **no** live copy refuses the flush loudly.

One logical :class:`CellStore` exists per chunk regardless of k: the
copies are byte-equal by construction, so occupancy bookkeeping is
shared and only the block writes fan out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from repro.core.store import CellStore
from repro.errors import IngestError
from repro.ingest.loader import IngestPlan, resolve_loader
from repro.ingest.streams import RecordStream
from repro.mappings.base import RequestPlan
from repro.query.executor import WritePrepared
from repro.query.scatter import ShardedPrepared

__all__ = [
    "FlushPlan",
    "IngestPipeline",
    "IngestPrepared",
    "IngestStats",
    "WriteSource",
]


@dataclass(frozen=True)
class WriteSource:
    """Provenance of one write sub-plan: which chunk copy it targets.

    The traffic engine's failure path reads ``is_write`` to *drop* a
    dead copy's write (the surviving copies already hold the batch)
    instead of failing the whole flush over like a read."""

    chunk: int
    copy: int
    disk: int
    is_write: ClassVar[bool] = True


@dataclass(frozen=True)
class IngestPrepared(ShardedPrepared):
    """One flush prepared as per-copy, per-disk write sub-plans.

    A :class:`~repro.query.scatter.ShardedPrepared` whose
    ``sources[i]`` is the :class:`WriteSource` of ``subs[i]`` (``None``
    for the memory-only staging sub the traffic path prepends), so the
    engine's sub-plan bookkeeping needs no new cases.  ``n_points``
    counts the points the flush acknowledges."""

    n_points: int = 0
    is_write: ClassVar[bool] = True


@dataclass(frozen=True)
class FlushPlan:
    """One buffered flush, ready to execute."""

    prepared: IngestPrepared
    n_points: int
    chunks: tuple[int, ...]


@dataclass
class IngestStats:
    """Cumulative pipeline totals over its lifetime."""

    streamed_points: int = 0
    batches_staged: int = 0
    flushes: int = 0
    flushed_points: int = 0
    home_blocks: int = 0
    overflow_points: int = 0
    skipped_copy_writes: int = 0

    @property
    def buffered_points(self) -> int:
        return self.streamed_points - self.flushed_points

    def to_dict(self) -> dict:
        return {
            "streamed_points": self.streamed_points,
            "batches_staged": self.batches_staged,
            "flushes": self.flushes,
            "flushed_points": self.flushed_points,
            "buffered_points": self.buffered_points,
            "home_blocks": self.home_blocks,
            "overflow_points": self.overflow_points,
            "skipped_copy_writes": self.skipped_copy_writes,
        }


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
        A :class:`~repro.ingest.streams.RecordStream`.
    loader:
        Registered loader name (or entry) fixing the ingest plan;
        ``plan`` overrides with a pre-resolved :class:`IngestPlan`.
    flush_points:
        Per-disk buffered backlog that triggers a flush of that disk.
    stage_ms_per_point:
        Memory cost of buffering one point (the staging sub's service
        time on the traffic path).
    """

    def __init__(
        self,
        dataset,
        stream: RecordStream,
        loader="fixed",
        *,
        plan: IngestPlan | None = None,
        flush_points: int = 1024,
        stage_ms_per_point: float = 2e-4,
        reclaim_threshold: float = 0.25,
        max_overflow_pages: int = 256,
        loader_opts: dict | None = None,
    ):
        if tuple(stream.dims) != tuple(dataset.shape):
            raise IngestError(
                f"stream dims {tuple(stream.dims)} do not match dataset "
                f"shape {tuple(dataset.shape)}"
            )
        if flush_points < 1:
            raise IngestError("flush_points must be >= 1")
        self.dataset = dataset
        self.stream = stream
        self.loader = resolve_loader(loader)
        if plan is None:
            plan = self.loader.fn(dataset, stream, **(loader_opts or {}))
        self.plan = plan
        self.flush_points = int(flush_points)
        self.stage_ms_per_point = float(stage_ms_per_point)
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
                reclaim_threshold=reclaim_threshold,
                max_overflow_pages=max_overflow_pages,
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

        # per-disk write buffers: disk -> chunk -> {local flat: count}
        self._buffers: dict[int, dict[int, dict[int, int]]] = {}
        self._pending: dict[int, int] = {}
        self._grid_strides = np.cumprod((1,) + self.grid[:-1]).astype(
            np.int64
        )
        self._base_shape = np.asarray(self.chunks[0].shape,
                                      dtype=np.int64)

    # ------------------------------------------------------------------
    # staging
    # ------------------------------------------------------------------

    @staticmethod
    def _flatten_local(coords: np.ndarray, shape) -> np.ndarray:
        strides = np.cumprod((1,) + tuple(shape)[:-1]).astype(np.int64)
        return coords @ strides

    @staticmethod
    def _unflatten_local(flats: np.ndarray, shape) -> np.ndarray:
        rem = np.asarray(flats, dtype=np.int64).copy()
        out = np.empty((len(rem), len(shape)), dtype=np.int64)
        for d, s in enumerate(shape):
            out[:, d] = rem % s
            rem //= s
        return out

    def stage(self, coords) -> list[int]:
        """Buffer a batch of cell coordinates; returns the member disks
        whose backlog crossed ``flush_points``."""
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
        """Member disks with any buffered points (the final-drain set)."""
        return sorted(
            d for d, bufs in self._buffers.items()
            if any(bufs.values())
        )

    # ------------------------------------------------------------------
    # flushing
    # ------------------------------------------------------------------

    def build_flush(self, disks) -> FlushPlan | None:
        """Fold the given disks' buffers into their stores and prepare
        one write sub-plan per (chunk, live copy)."""
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
                        # locality-preserving packing: the flush lays
                        # down each touched basic cube whole, one long
                        # sequential run per track group (§4.6)
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
                        # goodput accounting: home-region blocks laid
                        # down on the primary (whole cubes for a packing
                        # mapper, the touched cells otherwise)
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

    def prepare_batch(self, coords, *, final: bool = False):
        """The traffic path: stage a batch and prepare its flush (if
        any) as one submission.

        The returned prepared query always carries a memory-only
        *staging sub* (empty plan, ``cache_ms`` = buffering time) so a
        batch that only buffers still completes through the engine's
        cache-done path; a triggered flush rides along as write
        sub-plans.  ``final`` drains every buffer regardless of
        thresholds (the last batch acknowledges everything).
        """
        coords = np.asarray(coords, dtype=np.int64)
        if coords.ndim == 1:
            coords = coords[np.newaxis, :]
        ready = self.stage(coords)
        if final:
            ready = self.drain_disks()
        flush = self.build_flush(ready) if ready else None
        self.stats.batches_staged += 1
        empty = np.empty(0, dtype=np.int64)
        stage_sub = WritePrepared(
            mapper_name=self.mapper_name,
            disk_index=self.chunks[0].disk,
            plan=RequestPlan(empty, empty, policy="sorted", merge_gap=0),
            policy="sorted",
            n_cells=len(coords),
            cache_ms=len(coords) * self.stage_ms_per_point,
        )
        if flush is None:
            return IngestPrepared(
                mapper_name=self.mapper_name,
                subs=(stage_sub,),
                n_cells=len(coords),
                sources=(None,),
            )
        return IngestPrepared(
            mapper_name=self.mapper_name,
            subs=(stage_sub,) + flush.prepared.subs,
            n_cells=len(coords),
            sources=(None,) + flush.prepared.sources,
            n_points=flush.n_points,
        )

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

    def describe(self) -> dict:
        return {
            "stream": self.stream.describe(),
            "loader": self.loader.name,
            "plan": self.plan.describe(),
            "flush_points": self.flush_points,
            "n_chunks": len(self.chunks),
            "n_copies": self.n_copies,
            "stats": self.stats.to_dict(),
        }
