"""Background reorganisation of overflowing/underflowing cells.

After enough skewed ingest, chains hang off hot cells and cold cells
sit underfull; §4.6 calls the fix "dataset reorganization, an expensive
operation for any mapping technique".  :func:`plan_reorganize` performs
the fold on the pipeline's stores (overflow chains drain back into
cells where they now fit) and *models* the background I/O on fresh
drive instances — reading each chained cell's home blocks plus its
chain pages, writing the folded cells back, on every live copy — so
foreground traffic's head state is untouched, exactly like the replica
rebuild model.  The window is the ideal makespan, the busiest disk's
I/O time, and the :meth:`ReorgReport.interference` profile reuses the
rebuild layer's ``1 / (1 - busy_frac)`` dilation estimate
(:func:`repro.replica.rebuild.interference_profile`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.disk.drive import DiskDrive
from repro.mappings.base import coalesce_ranks, sorted_unique
from repro.replica.rebuild import interference_profile

__all__ = ["ReorgReport", "plan_reorganize"]


@dataclass(frozen=True)
class ReorgReport:
    """Timing of one modelled background reorganisation: ``reorg_ms``
    is the window, the ideal makespan over ``io_ms_by_disk``.  The
    payload keeps its ``ideal_ms`` and ``throttle`` (1.0) keys."""

    chunks: tuple[int, ...]
    pages_freed: int
    n_blocks: int
    io_ms_by_disk: dict
    reorg_ms: float

    def interference(self) -> dict:
        """Per-disk busy fraction and foreground dilation during the
        reorganisation window."""
        return interference_profile(self.io_ms_by_disk, self.reorg_ms)

    def to_dict(self) -> dict:
        return {
            "chunks": [int(c) for c in self.chunks],
            "pages_freed": int(self.pages_freed),
            "n_blocks": int(self.n_blocks),
            # string keys so the payload round-trips through JSON
            "io_ms_by_disk": {
                str(d): float(ms)
                for d, ms in sorted(self.io_ms_by_disk.items())
            },
            "ideal_ms": float(self.reorg_ms),
            "throttle": 1.0,
            "reorg_ms": float(self.reorg_ms),
            "interference": {
                str(d): v for d, v in self.interference().items()
            },
        }


def _service(drive: DiskDrive, lbns: np.ndarray,
             window: int) -> tuple[float, int]:
    """Service the distinct blocks of ``lbns`` as one sorted batch;
    returns its time and the number of distinct blocks."""
    blocks = sorted_unique(lbns)
    if blocks.size == 0:
        return 0.0, 0
    starts, lengths = coalesce_ranks(blocks)
    res = drive.service_runs(starts, lengths, policy="sorted",
                             window=window)
    return res.total_ms, int(blocks.size)


def plan_reorganize(pipeline):
    """Reorganise every store of ``pipeline`` that needs it and model
    the background I/O.  Returns a :class:`ReorgReport`, or ``None``
    when no chunk needed work.

    Each chained store's per-cell capacity is first raised to its
    :meth:`~repro.core.store.CellStore.required_capacity` — the §4.6
    re-provisioning a fixed plan deferred: cells are resized to the
    density the stream delivered (what the adaptive loader would have
    picked up front), so every chain folds back and its pages free.
    """
    storage = pipeline.storage
    drives: dict[int, DiskDrive] = {}
    io_ms: dict[int, float] = {}
    n_blocks = 0
    pages_freed = 0
    chunks: list[int] = []

    def drive_for(disk: int) -> DiskDrive:
        d = drives.get(disk)
        if d is None:
            # fresh instance: background I/O must not disturb the real
            # drive's head state (foreground keeps its own position)
            d = DiskDrive(storage.volume.models[disk])
            drives[disk] = d
        return d

    for ci, store in enumerate(pipeline.stores):
        cells = store.chained_cells()
        if not (cells.size or store.needs_reorganization):
            continue
        page_idx = store.overflow_page_lbns() - store.overflow_extent.start
        store.points_per_cell = store.required_capacity()
        freed = store.reorganize()
        if freed == 0 and cells.size == 0:
            continue
        pages_freed += freed
        chunks.append(ci)
        cb = int(pipeline._chunk_mappers[ci].cell_blocks)
        for copy, cmapper in pipeline.storage.write_copies(ci):
            if cells.size:
                home = cmapper.flat_lbns(cells)
                if cb > 1:
                    home = (
                        home[:, None] + np.arange(cb, dtype=np.int64)
                    ).ravel()
            else:
                home = np.empty(0, dtype=np.int64)
            ext = pipeline._copy_extents[ci][copy]
            pages = ext.start + page_idx
            disk = int(cmapper.disk_index)
            drive = drive_for(disk)
            # read the chained cells + their chains, write the folded
            # cells back in place
            read_ms, n_read = _service(
                drive, np.concatenate([home, pages]), storage.window
            )
            write_ms, n_write = _service(drive, home, storage.window)
            io_ms[disk] = io_ms.get(disk, 0.0) + (read_ms + write_ms)
            n_blocks += n_read + n_write

    if not chunks:
        return None
    return ReorgReport(
        chunks=tuple(chunks),
        pages_freed=pages_freed,
        n_blocks=n_blocks,
        io_ms_by_disk=io_ms,
        reorg_ms=max(io_ms.values(), default=0.0),
    )
