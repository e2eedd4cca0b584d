"""Parameterised disk models.

The paper evaluates on two real drives: a **Seagate Cheetah 36ES** and a
**Maxtor Atlas 10k III** (both ~36.7 GB, 10k RPM, SCSI).  The firmware-level
parameter tables of those drives are not public, so the factories below
approximate them from spec sheets and from the figures the paper itself
reports (settle ≈ 1.2-1.4 ms, D = 128, short-seek cost ≈ 1.3 ms, rotational
latency ≈ 3 ms ⇒ 10k RPM).  DESIGN.md §2 documents this substitution.

What matters for reproducing the paper's *shape* is preserved exactly:

* 6 ms revolution (10k RPM) ⇒ ~3 ms average rotational latency;
* settle-dominated seeks out to C = 32 cylinders with R = 4 surfaces
  ⇒ D = R·C = 128 adjacent tracks, the value the paper uses;
* zoned track lengths in the high hundreds of sectors, decreasing inward;
* ~36.7 GB capacity.

Also provided: a **toy disk** (T = 5, zero skew) matching the illustrative
layout of the paper's Figures 2-4, and a fully parameterised synthetic
factory for tests and ablations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.api.registry import register_drive
from repro.disk.geometry import DiskGeometry
from repro.disk.mechanics import DiskMechanics, SeekProfile

__all__ = [
    "DiskModel",
    "cheetah_36es",
    "atlas_10k3",
    "toy_disk",
    "mini_drive",
    "synthetic_disk",
    "paper_disks",
]


@dataclass(frozen=True)
class DiskModel:
    """A named pairing of geometry and mechanics."""

    name: str
    geometry: DiskGeometry
    mechanics: DiskMechanics

    @property
    def capacity_bytes(self) -> int:
        return self.geometry.capacity_bytes

    @cached_property
    def seek_table(self) -> np.ndarray:
        """Read-only seek time (ms) by cylinder distance, for every
        distance the geometry has (``0 .. n_cylinders - 1``).

        Built on first use from :meth:`SeekProfile.time`, whose values
        it equals bit for bit, and shared by every drive of this model.
        It is sized from the geometry, not the profile: past the
        profile's ``max_cylinders`` it holds the curve's linear
        extrapolation.
        """
        table = self.mechanics.seek_time(
            np.arange(self.geometry.n_cylinders)
        )
        table.flags.writeable = False
        return table

    @cached_property
    def seek_list(self) -> list[float]:
        """:attr:`seek_table` as a Python list, for scalar lookups in
        the SPTF scheduler's per-step loop (built once per model)."""
        return self.seek_table.tolist()

    @cached_property
    def seek_floor_ms(self) -> float:
        """Cheapest move off the current track: the smaller of a head
        switch and the shortest seek.  Every request on another track
        costs at least this much to reach."""
        return min([self.mechanics.head_switch_ms, *self.seek_list[1:]])

    @cached_property
    def zone_tables(self):
        """The per-zone costs and rows the drive's service paths read
        (:class:`repro.disk.drive.ZoneTables`), built on first use and
        shared read-only by every drive of this model."""
        from repro.disk.drive import ZoneTables

        return ZoneTables(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        gb = self.capacity_bytes / 1e9
        return f"DiskModel({self.name!r}, {gb:.1f} GB)"


def _skew_fn(mechanics: DiskMechanics):
    """Per-zone track skew: settle-time worth of rotation, plus one sector.

    The ``+1`` guarantees that after *reading* a block (one sector time) and
    settling, the head arrives no later than the same sector index on the
    next track — which makes ``lbn + spt`` a true first adjacent block with
    zero rotational latency.
    """

    def skew_for_spt(spt: int) -> int:
        settle_sectors = math.ceil(
            spt * mechanics.settle_ms / mechanics.rotation_ms
        )
        return (settle_sectors + 1) % spt

    return skew_for_spt


@register_drive("atlas10k3")
def atlas_10k3() -> DiskModel:
    """Approximation of the Maxtor Atlas 10k III (36.7 GB, 10k RPM).

    8 zones, 4 surfaces, 32 000 cylinders, track lengths 686 down to 462
    sectors.  Settle 1.2 ms, C = 32 ⇒ D = 128.
    """
    seek = SeekProfile(
        settle_ms=1.2,
        settle_cylinders=32,
        max_cylinders=31_999,
        avg_seek_ms=4.5,
        full_stroke_ms=10.5,
    )
    mech = DiskMechanics(rpm=10_000, seek=seek, command_overhead_ms=0.15)
    zone_specs = [(4_000, spt) for spt in
                  (686, 654, 622, 590, 558, 526, 494, 462)]
    geom = DiskGeometry.build(4, zone_specs, _skew_fn(mech))
    return DiskModel("Maxtor Atlas 10k III", geom, mech)


@register_drive("cheetah36es")
def cheetah_36es() -> DiskModel:
    """Approximation of the Seagate Cheetah 36ES (36.7 GB, 10k RPM).

    9 zones, 4 surfaces, 32 400 cylinders, track lengths 738 down to 402
    sectors.  Settle 1.4 ms ("comparable" to the Atlas, per the paper),
    C = 32 ⇒ D = 128.
    """
    seek = SeekProfile(
        settle_ms=1.4,
        settle_cylinders=32,
        max_cylinders=32_399,
        avg_seek_ms=5.2,
        full_stroke_ms=11.0,
    )
    mech = DiskMechanics(rpm=10_000, seek=seek, command_overhead_ms=0.15)
    zone_specs = [(3_600, spt) for spt in
                  (738, 696, 654, 612, 570, 528, 486, 444, 402)]
    geom = DiskGeometry.build(4, zone_specs, _skew_fn(mech))
    return DiskModel("Seagate Cheetah 36ES", geom, mech)


@register_drive("toy")
def toy_disk(
    sectors_per_track: int = 5,
    tracks: int = 40,
    surfaces: int = 1,
    settle_cylinders: int = 9,
) -> DiskModel:
    """The illustrative disk of the paper's Figures 2-4.

    T = 5, D = 9 (with one surface, C = 9), and **zero skew** so that the
    first adjacent block of LBN 0 is LBN 5, its third adjacent block is
    LBN 15, and so on — exactly the LBN tables printed in the paper.
    Rotation is scaled so one sector passes in 1 ms, making hand-computed
    timings easy in tests.
    """
    rot_ms = float(sectors_per_track)  # 1 ms per sector
    rpm = 60_000.0 / rot_ms
    seek = SeekProfile(
        settle_ms=1e-9,  # effectively zero: adjacency offset becomes 0+1
        settle_cylinders=settle_cylinders,
        max_cylinders=max(tracks // surfaces, settle_cylinders + 1),
        avg_seek_ms=1e-9,
        full_stroke_ms=1e-9,
        step_ms=0.0,
    )
    mech = DiskMechanics(rpm=rpm, seek=seek, head_switch_ms=1e-9)
    # Zero-skew geometry: the paper's figures ignore rotational offsets.
    geom = DiskGeometry.build(
        surfaces,
        [(tracks // surfaces, sectors_per_track)],
        lambda spt: 0,
    )
    return DiskModel("toy", geom, mech)


@register_drive("minidrive")
def mini_drive() -> DiskModel:
    """A small synthetic drive sized for example-scale experiments.

    Two zones with 120- and 90-sector tracks, 2 surfaces, C = 8
    ⇒ D = 16, 10k RPM.  The short tracks let example-scale datasets
    (dim-0 around 100 cells) fill whole tracks the way the paper's
    chunked datasets fill the Atlas's 686-sector tracks, which keeps
    cache and traffic demonstrations honest (and fast) without
    simulating a 36 GB drive.
    """
    return synthetic_disk(
        "minidrive",
        rpm=10_000,
        settle_ms=1.0,
        settle_cylinders=8,
        surfaces=2,
        zone_specs=[(400, 120), (200, 90)],
        avg_seek_ms=3.0,
        full_stroke_ms=6.0,
    )


def synthetic_disk(
    name: str = "synthetic",
    *,
    rpm: float = 10_000,
    settle_ms: float = 1.2,
    settle_cylinders: int = 32,
    surfaces: int = 4,
    zone_specs: list[tuple[int, int]] | None = None,
    avg_seek_ms: float = 4.5,
    full_stroke_ms: float = 10.0,
    step_ms: float = 0.1,
    command_overhead_ms: float = 0.0,
) -> DiskModel:
    """Fully parameterised model for tests, ablations and scaled runs."""
    if zone_specs is None:
        zone_specs = [(1_000, 600), (1_000, 500)]
    max_cyl = sum(c for c, _ in zone_specs) - 1
    seek = SeekProfile(
        settle_ms=settle_ms,
        settle_cylinders=settle_cylinders,
        max_cylinders=max(max_cyl, settle_cylinders + 1),
        avg_seek_ms=avg_seek_ms,
        full_stroke_ms=full_stroke_ms,
        step_ms=step_ms,
    )
    mech = DiskMechanics(
        rpm=rpm, seek=seek, command_overhead_ms=command_overhead_ms
    )
    geom = DiskGeometry.build(surfaces, zone_specs, _skew_fn(mech))
    return DiskModel(name, geom, mech)


def paper_disks() -> list[DiskModel]:
    """The two drives of the paper's evaluation, in its reporting order."""
    return [atlas_10k3(), cheetah_36es()]
