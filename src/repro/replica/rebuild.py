"""Rebuild model: streaming a dead disk's chunks onto a spare.

After a member disk fails, its chunk copies are reconstructed by
reading each lost chunk from a surviving replica and streaming it onto
a hot spare.  :func:`plan_rebuild` times that process on *fresh* drive
instances of the same models (the real drives keep their head state for
foreground traffic): every source disk reads its share of lost chunks
back to back, the spare writes everything sequentially, sources overlap
with each other, and the ideal rebuild time is the makespan over
sources and the spare.  A ``throttle`` fraction models rebuild I/O
being rate-limited in favour of foreground traffic: the rebuild
stretches by ``1/throttle`` while each source disk stays busy a
proportionally smaller fraction of the window —
:meth:`RebuildReport.interference` reports, per source disk, that busy
fraction and the resulting foreground service dilation
``1 / (1 - busy_frac)`` (an M/G/1-style utilisation-headroom
estimate).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.disk.drive import DiskDrive
from repro.errors import ReplicaError

__all__ = ["RebuildReport", "interference_profile", "plan_rebuild"]


def interference_profile(busy_ms_by_disk: dict, window_ms: float) -> dict:
    """Per-disk busy fraction and foreground service dilation
    ``1 / (1 - busy_frac)`` over a background-I/O window (an M/G/1-style
    utilisation-headroom estimate, shared by the rebuild and ingest
    reorganisation models)."""
    out = {}
    for disk, busy_ms in sorted(busy_ms_by_disk.items()):
        busy = busy_ms / window_ms if window_ms > 0 else 0.0
        busy = min(busy, 0.999999)
        out[int(disk)] = {
            "busy_frac": busy,
            "foreground_dilation": 1.0 / (1.0 - busy),
        }
    return out


@dataclass(frozen=True)
class RebuildReport:
    """Timing of one modelled rebuild."""

    dead_disk: int
    n_copies: int
    n_blocks: int
    source_read_ms: dict
    source_blocks: dict
    spare_write_ms: float
    ideal_ms: float
    throttle: float
    rebuild_ms: float

    def interference(self) -> dict:
        """Per-source busy fraction and foreground dilation during the
        rebuild window."""
        return interference_profile(self.source_read_ms, self.rebuild_ms)

    def to_dict(self) -> dict:
        return {
            "dead_disk": int(self.dead_disk),
            "n_copies": int(self.n_copies),
            "n_blocks": int(self.n_blocks),
            # string keys so the payload round-trips through JSON
            "source_read_ms": {
                str(d): float(ms)
                for d, ms in sorted(self.source_read_ms.items())
            },
            "source_blocks": {
                str(d): int(b)
                for d, b in sorted(self.source_blocks.items())
            },
            "spare_write_ms": float(self.spare_write_ms),
            "ideal_ms": float(self.ideal_ms),
            "throttle": float(self.throttle),
            "rebuild_ms": float(self.rebuild_ms),
            "interference": {
                str(d): v for d, v in self.interference().items()
            },
        }


def plan_rebuild(storage, dead_disk: int, *,
                 throttle: float = 1.0) -> RebuildReport:
    """Model rebuilding every chunk copy lost with ``dead_disk``.

    ``storage`` is a dataset's
    :class:`~repro.shard.executor.ShardedStorageManager`; the source
    for each lost copy is that chunk's lowest surviving copy on a
    healthy disk (disks in ``storage.failed`` are skipped too).  A
    chunk whose only copy lived on the dead disk — every chunk of a
    single-copy dataset — is unrebuildable and raises
    :class:`ReplicaError`.
    """
    replica_map = storage.replica_map
    dead = int(dead_disk)
    if not 0 <= dead < replica_map.n_disks:
        raise ReplicaError(
            f"disk {dead} out of range for {replica_map.n_disks} "
            f"member disks"
        )
    if not 0 < throttle <= 1:
        raise ReplicaError("throttle must be in (0, 1]")
    unavailable = set(storage.failed) | {dead}

    # fresh drives: the rebuild stream must not disturb the real drives'
    # head state (foreground queries keep their own positions)
    read_drives: dict[int, DiskDrive] = {}
    spare = DiskDrive(storage.volume.models[dead])
    source_read_ms: dict[int, float] = {}
    source_blocks: dict[int, int] = {}
    spare_write_ms = 0.0
    n_copies = 0
    n_blocks = 0
    for chunk_index, lost_copy in replica_map.copies_on_disk(dead):
        sources = [
            r for r in range(replica_map.k)
            if int(replica_map.disks[chunk_index, r]) not in unavailable
        ]
        if not sources:
            raise ReplicaError(
                f"chunk {chunk_index} cannot be rebuilt: no surviving "
                f"copy off disks {sorted(unavailable)}"
            )
        src = sources[0]
        src_disk = int(replica_map.disks[chunk_index, src])
        chunk = replica_map.shard_map.chunks[chunk_index]
        ndim = len(chunk.shape)
        read_plan = storage.copy_mappers[chunk_index][src].range_plan(
            (0,) * ndim, chunk.shape
        )
        write_plan = storage.copy_mappers[chunk_index][
            lost_copy
        ].range_plan((0,) * ndim, chunk.shape)
        drive = read_drives.get(src_disk)
        if drive is None:
            drive = DiskDrive(storage.volume.models[src_disk])
            read_drives[src_disk] = drive
        res = drive.service_runs(
            read_plan.starts, read_plan.lengths,
            policy=read_plan.policy, window=storage.window,
        )
        source_read_ms[src_disk] = (
            source_read_ms.get(src_disk, 0.0) + res.total_ms
        )
        source_blocks[src_disk] = (
            source_blocks.get(src_disk, 0) + res.n_blocks
        )
        wres = spare.service_runs(
            write_plan.starts, write_plan.lengths,
            policy=write_plan.policy, window=storage.window,
        )
        spare_write_ms += wres.total_ms
        n_copies += 1
        n_blocks += res.n_blocks
    ideal = max(
        max(source_read_ms.values(), default=0.0), spare_write_ms
    )
    return RebuildReport(
        dead_disk=dead,
        n_copies=n_copies,
        n_blocks=n_blocks,
        source_read_ms=source_read_ms,
        source_blocks=source_blocks,
        spare_write_ms=spare_write_ms,
        ideal_ms=ideal,
        throttle=float(throttle),
        rebuild_ms=ideal / float(throttle),
    )
