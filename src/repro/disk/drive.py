"""Disk drive service-time simulator.

A :class:`DiskDrive` owns a head position (track + wall-clock time, from
which the rotational angle follows) and services requests expressed as
*runs* — ``(start_lbn, n_blocks)`` pairs of consecutive LBNs.  Every access
is decomposed into the classic cost components:

``seek``      arm movement between cylinders (plus head switches),
``rotation``  wait for the first target sector to pass under the head,
``transfer``  sectors streaming under the head,
``switch``    track-boundary crossings *inside* a run (settle + realign).

Three scheduling policies are provided for batches:

* ``"fifo"``    service in the order given (the storage manager already
                ordered the batch, e.g. a semi-sequential path);
* ``"sorted"``  ascending-LBN elevator pass, the order the paper's storage
                manager issues for the linearised mappings;
* ``"sptf"``    shortest-positioning-time-first within a bounded lookahead
                window, modelling the drive's internal queue scheduler
                (the paper relies on this for MultiMap's semi-sequential
                fetches: "the disk's internal scheduler will ensure that
                they are fetched in the most efficient way").

One cost model serves every batch, and :meth:`DiskDrive.service` is a
one-run ``"fifo"`` batch.  Seek costs are looked up in
:attr:`DiskModel.seek_table` (seek time by cylinder distance), and a run
that crosses zones pays each zone's share at that zone's sector time and
boundary cost.  A ``"fifo"`` or ``"sorted"`` batch takes one of two
paths, chosen by its size and by whether it came from
:meth:`DiskDrive.prepare_batches`; both evaluate the same float
expressions in the same order, so they agree bit for bit
(``tests/disk/test_drive_paths.py``).

Most batches are small: MultiMap fetches a non-primary beam as one
single-block run per cell (§5.2), and the §5.3 chunked layouts split
every query into per-disk sub-plans.  On the benchmark's
``failover-storm`` workload, whose traffic slices are batches serviced
on their own, seven batches in ten have at most 20 runs (median 11) and
none more than 64; ``ingest-reorg`` services its reorganisation's
batches alone too, all of at most 20 runs (median 6).  On such a batch
numpy's per-call overhead is nearly all of the cost, so a batch of at
most :data:`SCALAR_RUNS` runs serviced on its own is served by one
Python pass: per run it finds the start's zone in the model's per-zone
rows (:class:`ZoneTables`, by ``bisect`` when the run leaves the
previous run's zone), settles the firmware cache, prices the seek,
rotational wait, transfer and in-run switches, and advances the clock.
Seek, transfer and switch are then summed by :func:`_add_reduce`, a
Python copy of the pairwise reduction numpy sums them with on the numpy
path, so the sums agree bit for bit without building an array.  A
``"sorted"`` batch whose starts are already in order, as planned ones
mostly are, is not sorted again.  The pass costs ~1.0 µs a run plus ~6
µs a batch: a one-run ``"fifo"`` batch took 7.1 µs through
:meth:`DiskDrive.service_runs`, against 9.8 µs when numpy summed the
pass and every run looked its zone up, an 11-run one 19.6 µs against
23.0, a 64-run one 72.7 against 83.6 (best of 400, on a shared 2-vCPU
x86 container where perfbench's calibration kernel took 3.3-5.5 ms
against its 3.0 ms reference).

A larger batch is prepared with numpy in service order (a stable sort
of the starts for ``"sorted"``, issue order otherwise).  Preparation
makes one geometry pass, over the run starts: a run that ends before
its start zone's end LBN ends ``(sector0 + length - 1) // spt0`` tracks
on, and only runs that reach a later zone, or leave the disk, decompose
their last LBN.  The only per-run Python work is then the
rotational-position recurrence, which is inherently sequential, and,
with a firmware :class:`TrackCache`, one lookup per run that settles the
batch's hits before any timing; the prepared fields are gathered again
only for the misses of a batch that had hits.  This path costs ~50-60
µs a batch up to ~64 runs on the same box.  Serviced on its own, a
``"fifo"`` path of single blocks a track apart took 53 µs by the scalar
pass against 59 µs by numpy at 56 runs, 60 against 60 at 64 and 65
against 63 at 72 (a ``"sorted"`` one 68 against 67 at 64), and
failover-storm's 64-run slices, captured from the workload, took 61 µs
either way (median of best-of-fifteen times): the two cross at
:data:`SCALAR_RUNS`, 64.

That fixed cost can be shared.  :meth:`DiskDrive.prepare_batches` takes
several batches in service order (a :class:`~repro.api.Dataset` batch's
sub-plans on one disk) and prepares every one the drive would prepare
with numpy in one pass, made when the first of them is serviced: one
stable sort orders all the ``"sorted"`` batches, one geometry pass
covers every run, and one seek vector prices each run's seek from the
run before it.  Each batch is still serviced by its own
:meth:`~DiskDrive.service_runs` call (``prepared=``), from its rows of
the group: its first seek is priced from wherever the head then is, and
its sums are numpy's reductions over its own rows, so every
:class:`BatchResult` equals the batch's result alone
(``tests/disk/test_drive_groups.py``).  A batch in a group costs the
group less than one prepared alone, so the scalar pass keeps only the
batches of at most :data:`PREPARED_SCALAR_RUNS` runs.  Replaying the
groups paper-batch and ingest-reorg prepare (best of nine per group,
same box) with that threshold at 0, 24, 40 and 64 runs took 2.90, 2.89,
2.94 and 3.59 ms a round on paper-batch and 4.21, 2.75, 1.99 and 1.86
ms on ingest-reorg: 40 costs the two workloads least together.

An ``"sptf"`` batch takes one scheduling step per request, and a step
scores only the queued requests that can still win.  The command queue
is kept sorted by start angle.  Every request off the head's track needs
at least :attr:`DiskModel.seek_floor_ms` to reach, and a longer seek
only eats into its rotational wait, so a request's cost is at least that
floor plus its rotational distance from where the floor lands the head.
A step walks the queue in that rotational order, as two loops over the
queue's two arcs from the bound's start angle, and stops once the bound
exceeds the best cost so far; requests on the head's own track, which
need no seek, are scored first, by a scan of the queue made only when a
per-track count says the track holds one (about one step in 90 on
paper-batch).  The winner is removed at the queue position where its
step scored it.  The result is exact.  Each scored request's cost is the
same float expression a pass over the whole queue evaluates, ties go to
the lowest issue index, and the bound is lowered by the snap window
(``SNAP_REV``) and by a rounding allowance derived from the head's clock
(16 ulps of its phase, recomputed only when the phase enters a new
binade, as the clock only grows), so it never exceeds a cost as
computed.  ``tests/disk/test_sptf_oracle.py`` pins order, per-request
times and totals to a full-pass reference.

The bound is tight on the batches the planner issues, MultiMap's
semi-sequential range plans at window 128, where every candidate is a
settle-time seek away.  On the benchmark's paper-batch workload a step
scores about 5 of ~100 queued requests and costs ~3-4 µs, against ~13
µs for the numpy pass over the whole queue it replaced; the median host
time per round fell from 12.2 to 7.5 ms (shared 2-vCPU x86 container,
CPU-normalised).  Replaying paper-batch's SPTF batches (530 steps a
round), the count, the two loops, the in-place removal and the binade
check took the walk from 3.3-3.4 to 2.8 ms a round (raw, same box).
Batches scattered over the whole disk at deep windows are the trade-off:
the floor ignores their long seeks, so a step scores a large share of
the queue in Python.  A 3,000-request whole-disk scatter at window 512
steps in ~20 µs, where the numpy pass took ~14.  No planner issues such
batches.
"""

from __future__ import annotations

import math
import numbers
from bisect import bisect_left, bisect_right
from collections import OrderedDict
from dataclasses import dataclass
from operator import add, gt

import numpy as np

from repro.disk.geometry import DiskGeometry
from repro.disk.mechanics import DiskMechanics
from repro.disk.models import DiskModel
from repro.errors import GeometryError, _check_count, _check_int

__all__ = ["DiskDrive", "BatchResult", "RunBatch", "RunTiming", "TrackCache"]

# Rotational waits within SNAP_REV of a full revolution are floating-point
# artifacts of on-the-knife-edge alignments (e.g. the zero-skew toy disk);
# physically the block is reachable with no wait.  Real models keep margins
# of a sector or more, far above this tolerance.
SNAP_REV = 1e-7

#: the batch scheduling policies :meth:`DiskDrive.service_runs` accepts
POLICIES = ("fifo", "sorted", "sptf")

#: a ``"fifo"``/``"sorted"`` batch serviced on its own (without
#: ``prepared=``) of at most this many runs is served by one scalar pass,
#: a larger one by numpy preparation; the two cost the same near here
#: (module docstring)
SCALAR_RUNS = 64

#: the same threshold for a batch of :meth:`DiskDrive.prepare_batches`,
#: where a larger batch shares its group's numpy preparation
PREPARED_SCALAR_RUNS = 40


def _wait_rev(delta: float) -> float:
    """Fractional-revolution wait to reach angle delta ahead (snapped)."""
    w = delta % 1.0
    return 0.0 if w > 1.0 - SNAP_REV else w


def _add_reduce(values: list) -> float:
    """``np.add.reduce`` of a list of floats, bit for bit, in Python.

    numpy sums a float64 array pairwise (:func:`_pairwise`) and adds the
    sum to the reduction's identity, 0.0, so an empty list gives 0.0.
    Below 8 values the pairwise sum is one left-to-right pass from -0.0.
    """
    if len(values) >= 8:
        return 0.0 + _pairwise(values, 0, len(values))
    total = -0.0
    for value in values:
        total += value
    return 0.0 + total


def _pairwise(values: list, lo: int, n: int) -> float:
    """numpy's float64 ``pairwise_sum`` of ``values[lo:lo + n]``, n >= 8:
    up to 128 values in eight interleaved partial sums, combined as a
    tree, then the remainder of a multiple of 8 one by one; more than
    128 as two halves, cut at a multiple of 8."""
    if n > 128:
        half = n // 2
        half -= half % 8
        return (_pairwise(values, lo, half)
                + _pairwise(values, lo + half, n - half))
    r0, r1, r2, r3, r4, r5, r6, r7 = values[lo:lo + 8]
    end = lo + n - n % 8
    for i in range(lo + 8, end, 8):
        r0 += values[i]
        r1 += values[i + 1]
        r2 += values[i + 2]
        r3 += values[i + 3]
        r4 += values[i + 4]
        r5 += values[i + 5]
        r6 += values[i + 6]
        r7 += values[i + 7]
    total = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
    for i in range(end, lo + n):
        total += values[i]
    return total


class TrackCache:
    """LRU cache of whole tracks (firmware segment cache + read-ahead).

    The drives of the paper's era had small segment caches; modern drives
    buffer tens of MB.  The model is deliberately simple: a serviced run
    leaves every track it touched fully buffered (read-ahead fills the
    remainder), and a later request whose blocks all lie in buffered
    tracks is served at bus speed instead of mechanically.  The
    `modern-cache` ablation uses this to show how large caches erode the
    penalties that motivate track-aware placement.
    """

    def __init__(self, capacity_tracks: int):
        self.capacity = int(capacity_tracks)
        # buffered tracks, least recently used first
        self._lru: OrderedDict[int, None] = OrderedDict()

    def hit(self, track_first: int, track_last: int) -> bool:
        """All tracks of the run buffered?  Refreshes recency on hit."""
        tracks = range(track_first, track_last + 1)
        if all(t in self._lru for t in tracks):
            for t in tracks:
                self._lru.move_to_end(t)
            return True
        return False

    def insert(self, track_first: int, track_last: int) -> None:
        for t in range(track_first, track_last + 1):
            self._lru[t] = None
            self._lru.move_to_end(t)
        while len(self._lru) > self.capacity:
            self._lru.popitem(last=False)

    def clear(self) -> None:
        self._lru.clear()


@dataclass(frozen=True)
class RunTiming:
    """Timing breakdown of a single serviced run (all in ms)."""

    start_ms: float
    seek_ms: float
    rotation_ms: float
    transfer_ms: float
    switch_ms: float
    overhead_ms: float = 0.0

    @property
    def total_ms(self) -> float:
        return (
            self.overhead_ms
            + self.seek_ms
            + self.rotation_ms
            + self.transfer_ms
            + self.switch_ms
        )

    @property
    def end_ms(self) -> float:
        return self.start_ms + self.total_ms


@dataclass
class BatchResult:
    """Aggregate timing of a serviced batch."""

    total_ms: float
    n_requests: int
    n_blocks: int
    seek_ms: float
    rotation_ms: float
    transfer_ms: float
    switch_ms: float
    overhead_ms: float = 0.0
    per_request_ms: np.ndarray | None = None
    order: np.ndarray | None = None

    @property
    def ms_per_block(self) -> float:
        return self.total_ms / self.n_blocks if self.n_blocks else 0.0

    def __add__(self, other: "BatchResult") -> "BatchResult":
        return BatchResult(
            total_ms=self.total_ms + other.total_ms,
            n_requests=self.n_requests + other.n_requests,
            n_blocks=self.n_blocks + other.n_blocks,
            seek_ms=self.seek_ms + other.seek_ms,
            rotation_ms=self.rotation_ms + other.rotation_ms,
            transfer_ms=self.transfer_ms + other.transfer_ms,
            switch_ms=self.switch_ms + other.switch_ms,
            overhead_ms=self.overhead_ms + other.overhead_ms,
        )

    def __iadd__(self, other: "BatchResult") -> "BatchResult":
        """Add ``other``'s totals into this result in place, each sum
        as :meth:`__add__` forms it; the arrays are left as they are."""
        self.total_ms += other.total_ms
        self.n_requests += other.n_requests
        self.n_blocks += other.n_blocks
        self.seek_ms += other.seek_ms
        self.rotation_ms += other.rotation_ms
        self.transfer_ms += other.transfer_ms
        self.switch_ms += other.switch_ms
        self.overhead_ms += other.overhead_ms
        return self

    @staticmethod
    def empty() -> "BatchResult":
        return BatchResult(0.0, 0, 0, 0.0, 0.0, 0.0, 0.0, 0.0)


class RunBatch:
    """One checked batch of runs for :meth:`DiskDrive.service_runs`.

    Made by :meth:`DiskDrive.prepare_batches` from its ``starts`` and
    ``lengths`` arrays.  A batch the drive prepares with numpy
    (``"sptf"``, or more than :data:`PREPARED_SCALAR_RUNS` runs) is
    member ``k`` of a ``group``; the others are served by the scalar
    pass.
    """

    __slots__ = ("drive", "policy", "starts", "lengths", "n", "group", "k")

    def __init__(self, drive, policy, starts, lengths, n):
        self.drive = drive
        self.policy = policy
        self.starts = starts
        self.lengths = lengths
        self.n = n
        self.group = None
        self.k = 0


class _PreparedGroup:
    """Batches prepared together, in service order: ``runs`` holds each
    one's ``(starts, lengths, policy)`` until the first of them is
    serviced, which prepares them all (:meth:`DiskDrive._prepare`):
    ``info`` as :meth:`DiskDrive._prepare_runs` returns it, the
    permutation ``perm`` that sorted the ``"sorted"`` batches (None if
    none was), each run's seek from the run before it (``seeks``, also
    as ``seek_list``; None for an all-``"sptf"`` group), the start angles
    and in-run costs as lists, and each batch's block count.  Batch
    ``k`` owns rows ``bounds[k]:bounds[k + 1]`` of the arrays.  A batch
    serviced without :meth:`DiskDrive.prepare_batches` is a group of
    one."""

    __slots__ = ("runs", "bounds", "sorted", "info", "perm", "seeks",
                 "seek_list", "a0", "xfer", "blocks")

    def __init__(self, runs: list[tuple]):
        self.runs = runs
        self.bounds = [0]
        self.sorted = []
        for starts, _, policy in runs:
            self.bounds.append(self.bounds[-1] + starts.size)
            self.sorted.append(policy == "sorted")
        self.info = self.perm = self.seeks = self.seek_list = None
        self.a0 = self.xfer = self.blocks = None

    def order(self, k: int) -> np.ndarray:
        """Issue index of each service position of batch ``k``."""
        lo, hi = self.bounds[k], self.bounds[k + 1]
        if not self.sorted[k] or self.perm is None:
            return np.arange(hi - lo, dtype=np.int64)
        return self.perm[lo:hi] - lo


class ZoneTables:
    """The per-zone tables a drive's service paths read.

    They depend on the :class:`DiskModel` alone, so each model builds
    them once (:attr:`DiskModel.zone_tables`) and every drive of it
    shares them read-only.

    ``boundary_cost[z]`` is the exact cost of crossing a track boundary
    mid-run in zone ``z``: settle, then the wait for the next track's
    sector 0, which lies one skew past where the last track ended.
    ``exit_cost[z]`` is that of leaving zone ``z`` for the next: its
    last track ends where its own sector 0 sits, and the next zone's
    first track starts at 0.  ``rows[z]`` holds the scalar pass's zone
    row (first LBN, sectors per track, first track, skew, end LBN,
    sector time, boundary cost) and ``firsts`` every zone's first LBN.
    """

    __slots__ = ("boundary_cost", "exit_cost", "rows", "firsts")

    def __init__(self, model: DiskModel):
        geom = model.geometry
        rot = model.mechanics.rotation_ms
        settle = model.mechanics.head_switch_ms

        def crossing(delta: float) -> float:
            return settle + _wait_rev(delta - settle / rot) * rot

        self.boundary_cost = np.array([
            crossing(z.skew_sectors / z.sectors_per_track) for z in geom.zones
        ])
        self.exit_cost = np.array([
            crossing(0.0 - geom.start_angle(
                geom.zone_lbn_span(z.index)[1] - z.sectors_per_track
            ))
            for z in geom.zones
        ])
        self.boundary_cost.flags.writeable = False
        self.exit_cost.flags.writeable = False
        rows = []
        for z, cost in zip(geom.zones, self.boundary_cost.tolist()):
            lo, hi = geom.zone_lbn_span(z.index)
            spt = z.sectors_per_track
            rows.append((
                lo, spt, geom.zone_first_track(z.index), z.skew_sectors, hi,
                rot / spt, cost,
            ))
        self.rows = tuple(rows)
        self.firsts = tuple(row[0] for row in rows)


class DiskDrive:
    """Simulated disk drive with positional state.

    Parameters
    ----------
    model:
        Geometry + mechanics pairing (see :mod:`repro.disk.models`).
    cache_tracks:
        Optional firmware segment cache capacity in whole tracks (0 = no
        cache, the default — matching the paper's measured behaviour).
        Cache hits are served at bus speed; see :class:`TrackCache`.
        An integer >= 0.
    """

    #: bus transfer cost per cached block (Ultra160-class, ms)
    CACHE_BLOCK_MS = 0.0032

    def __init__(self, model: DiskModel, cache_tracks: int = 0):
        cache_tracks = _check_count("cache_tracks", cache_tracks,
                                    GeometryError, low=0)
        self.model = model
        self.geometry: DiskGeometry = model.geometry
        self.mechanics: DiskMechanics = model.mechanics
        self._rot = self.mechanics.rotation_ms
        self._overhead = self.mechanics.command_overhead_ms
        self._time_ms = 0.0
        self._track = 0
        self.cache = TrackCache(cache_tracks) if cache_tracks > 0 else None
        tables = model.zone_tables
        self._boundary_cost = tables.boundary_cost
        self._exit_cost = tables.exit_cost
        self._zone_rows = tables.rows
        self._zone_firsts = tables.firsts

    # ------------------------------------------------------------------
    # state
    # ------------------------------------------------------------------

    @property
    def now_ms(self) -> float:
        return self._time_ms

    @property
    def current_track(self) -> int:
        return self._track

    @property
    def current_cylinder(self) -> int:
        return self._track // self.geometry.surfaces

    def reset(self, track: int = 0, time_ms: float = 0.0) -> None:
        """Place the head on ``track`` at clock ``time_ms``: an integer
        track of the disk (not a bool) and a finite real time, else
        :class:`GeometryError` with nothing changed."""
        track = _check_int("track", track, GeometryError)
        if not 0 <= track < self.geometry.n_tracks:
            raise GeometryError(f"track {track} out of range")
        if not ((type(time_ms) is float or isinstance(time_ms, numbers.Real))
                and math.isfinite(time_ms)):
            raise GeometryError(f"time_ms must be finite, got {time_ms!r}")
        self._track = track
        self._time_ms = float(time_ms)

    def draw_position(self, rng: np.random.Generator) -> tuple[int, float]:
        """Draw a uniformly random ``(track, time_ms)`` head position.

        Consumes exactly the draws :meth:`randomize_position` would, so a
        position can be drawn early (e.g. when a traffic client submits a
        query) and applied later with :meth:`reset` without perturbing the
        caller's random stream.
        """
        # ``rng.random() * rot`` is ``rng.uniform(0.0, rot)`` bit for bit
        # (numpy draws ``low + (high - low) * next_double``), at a third
        # of its cost
        return (
            int(rng.integers(self.geometry.n_tracks)),
            rng.random() * self._rot,
        )

    def randomize_position(self, rng: np.random.Generator) -> None:
        """Place the head at a uniformly random track and rotation phase."""
        self._track, self._time_ms = self.draw_position(rng)

    # ------------------------------------------------------------------
    # single-request service
    # ------------------------------------------------------------------

    def positioning_time(self, lbn: int) -> tuple[float, float]:
        """(seek_ms, rotation_ms) to position on ``lbn`` — no state change.

        The seek follows the batch rule; unlike a serviced run's, the
        arrival leaves out the command overhead.
        """
        lbn = _check_int("lbn", lbn, GeometryError)
        self.geometry.check_lbn(lbn)
        info = self._prepare_runs([lbn], [1])
        dist = np.abs(info["cyl0"] - self.current_cylinder)
        seek = float(self._seek_vector(dist, info["track0"] != self._track)[0])
        arrival = self._time_ms + seek
        wait = _wait_rev(float(info["a0"][0]) - arrival / self._rot)
        return seek, wait * self._rot

    def service(self, lbn: int, nblocks: int = 1) -> RunTiming:
        """Service one run of ``nblocks`` consecutive LBNs; advance state.

        A one-run ``"fifo"`` batch: it costs the run exactly as
        :meth:`service_runs` would, firmware cache included, through the
        scalar pass.  A call costs ~14 µs of host time (2-vCPU x86),
        against ~67 µs when every batch went through numpy preparation;
        only :mod:`repro.disk.characterize` calls it in bulk.
        """
        lbn = _check_int("lbn", lbn, GeometryError)
        nblocks = _check_int("nblocks", nblocks, GeometryError)
        if nblocks < 1:
            raise GeometryError(f"nblocks must be >= 1, got {nblocks}")
        self.geometry.check_lbn(lbn)
        self.geometry.check_lbn(lbn + nblocks - 1)
        start_ms = self._time_ms
        res = self.service_runs([lbn], [nblocks], policy="fifo")
        return RunTiming(
            start_ms, res.seek_ms, res.rotation_ms, res.transfer_ms,
            res.switch_ms, res.overhead_ms,
        )

    # ------------------------------------------------------------------
    # batch service
    # ------------------------------------------------------------------

    def _prepare_runs(self, starts, lengths):
        """Vectorised per-run geometry and cost for the batch schedulers.

        Returns a dict of ndarrays: start cylinder/track/angle, end
        cylinder/track, and each run's in-run transfer and switch cost.
        Only the starts are decomposed: a run whose last LBN lies before
        its start zone's end LBN ends ``(sector0 + length - 1) // spt0``
        tracks past its first.  The rest cross into a later zone, or off
        the disk, where decomposing their last LBNs raises.
        """
        geom = self.geometry
        rot = self._rot
        starts = np.asarray(starts, dtype=np.int64)
        lengths = np.asarray(lengths, dtype=np.int64)
        if lengths.size and lengths.min() < 1:
            raise GeometryError("run lengths must be >= 1")

        zi0, track0, sector0, spt0, a0 = geom.decompose(starts)
        span = lengths - 1
        boundaries = (sector0 + span) // spt0
        tracke = track0 + boundaries

        sector_time = rot / spt0
        transfer = lengths * sector_time
        # Each in-zone boundary costs settle + realign to the skewed next
        # track; that cost depends only on the zone, precomputed at init.
        switch = boundaries * self._boundary_cost[zi0]
        # A run leaves its start zone once its last LBN reaches the zone's
        # end LBN; comparing differences keeps a huge length from
        # overflowing past the test.
        crossing = span >= geom.zone_end_lbns[zi0] - starts
        if crossing.any():
            rows = np.flatnonzero(crossing)
            ends = starts[rows] + span[rows]
            zie, tracke[rows], _, _, _ = geom.decompose(ends)
            zones = range(int(zi0[rows].min()), int(zie.max()) + 1)
            transfer[rows], switch[rows] = self._cross_zone_costs(
                starts[rows], ends, zones
            )

        surfaces = self.geometry.surfaces
        return {
            "starts": starts,
            "lengths": lengths,
            "cyl0": track0 // surfaces,
            "track0": track0,
            "a0": a0,
            "cyle": tracke // surfaces,
            "tracke": tracke,
            "transfer": transfer,
            "switch": switch,
        }

    def _cross_zone_costs(self, starts, ends, zones):
        """(transfer, switch) of runs crossing zones, all within ``zones``:
        in each zone a run touches, its blocks there at that zone's sector
        time and its track boundaries there at that zone's boundary cost,
        plus the exit cost of each zone it leaves."""
        geom = self.geometry
        transfer = np.zeros(starts.size)
        switch = np.zeros(starts.size)
        for z in zones:
            lo, hi = geom.zone_lbn_span(z)
            spt = geom.zone(z).sectors_per_track
            first = np.maximum(starts, lo)
            last = np.minimum(ends, hi - 1)
            inside = first <= last
            blocks = (last - first + 1) * inside
            tracks = ((last - lo) // spt - (first - lo) // spt) * inside
            leaves = inside & (ends >= hi)
            transfer += blocks * (self._rot / spt)
            switch += (
                tracks * self._boundary_cost[z] + leaves * self._exit_cost[z]
            )
        return transfer, switch

    def _seek_vector(self, dist: np.ndarray, moved: np.ndarray) -> np.ndarray:
        """Vectorised seek component for cylinder distances ``dist``:
        the seek table, a head switch where only the track changes
        (``moved``), zero where the head stays on its track."""
        seeks = self.model.seek_table[dist]
        seeks[(dist == 0) & moved] = self.mechanics.head_switch_ms
        return seeks

    @staticmethod
    def _check_runs(starts, lengths, policy: str):
        """One batch's policy and runs checked, all but their geometry,
        which the preparation and the scalar pass check; returns the
        runs as arrays."""
        if policy not in POLICIES:
            raise GeometryError(
                f"unknown policy {policy!r}; expected one of "
                f"{', '.join(POLICIES)}"
            )
        runs = (np.asarray(starts), np.asarray(lengths))
        if runs[0].size:
            for name, arr in zip(("starts", "lengths"), runs):
                if arr.ndim != 1:
                    raise GeometryError(
                        f"{name} must be a 1-D array, got shape {arr.shape}"
                    )
                if arr.dtype.kind not in "iu":
                    raise GeometryError(
                        f"{name} must be integers, got dtype {arr.dtype}"
                    )
            if runs[0].shape != runs[1].shape:
                raise GeometryError("starts and lengths must have equal shape")
        return runs

    def prepare_batches(self, batches) -> list["RunBatch"]:
        """Check several batches and group them for :meth:`service_runs`.

        ``batches`` holds ``(starts, lengths, policy)`` triples in the
        order they will be serviced.  Each is checked as
        :meth:`service_runs` checks it, and the batches to prepare with
        numpy (``"sptf"``, or more than :data:`PREPARED_SCALAR_RUNS` runs)
        form one group, prepared when the first of them is serviced: one
        sort of the ``"sorted"`` ones, one geometry pass and one vector
        of in-batch seeks over all of them, so numpy's fixed cost is paid
        once for the group.  Preparation reads no drive state, so each
        batch is served from wherever the head and clock are when it is
        serviced.  A group's geometry errors (lengths below 1, LBNs off
        the disk) are raised when its first batch is serviced, before
        any of them is; the other batches' when each is serviced.

        Returns one :class:`RunBatch` per batch, passed back with the
        same arrays as ``service_runs(starts, lengths, policy=...,
        prepared=batch)``.
        """
        out = []
        for starts, lengths, policy in batches:
            starts, lengths = self._check_runs(starts, lengths, policy)
            out.append(RunBatch(self, policy, starts, lengths,
                                int(starts.size)))
        members = [b for b in out if b.n and (
            b.policy == "sptf" or b.n > PREPARED_SCALAR_RUNS)]
        if members:
            group = _PreparedGroup(
                [(b.starts, b.lengths, b.policy) for b in members]
            )
            for k, b in enumerate(members):
                b.group, b.k = group, k
        return out

    def _prepare(self, group: _PreparedGroup) -> None:
        """Prepare a group's batches in service order in one numpy pass."""
        runs, bounds = group.runs, group.bounds
        perm = None
        if len(runs) == 1:
            starts, lengths, _ = runs[0]
            if group.sorted[0]:
                perm = np.argsort(starts, kind="stable")
        else:
            starts = np.concatenate([run[0] for run in runs],
                                    dtype=np.int64, casting="unsafe")
            lengths = np.concatenate([run[1] for run in runs],
                                     dtype=np.int64, casting="unsafe")
            sizes = np.diff(bounds)
            if any(group.sorted):
                # one stable sort orders every "sorted" batch by start
                # within its own span: batch k's keys lie in
                # [k * span, (k + 1) * span), keyed by start there and by
                # row (issue order) in the other batches
                span = self.geometry.n_lbns + bounds[-1]
                key = np.repeat(
                    np.arange(len(runs), dtype=np.int64) * span, sizes
                )
                key += np.where(np.repeat(group.sorted, sizes), starts,
                                np.arange(bounds[-1], dtype=np.int64))
                perm = np.argsort(key, kind="stable")
        if perm is not None:
            starts, lengths = starts[perm], lengths[perm]
        info = self._prepare_runs(starts, lengths)
        if not all(run[2] == "sptf" for run in runs):
            # each run's seek from the run before it; every batch's first
            # seek is from the head, priced when the batch is serviced
            cyl0, track0 = info["cyl0"], info["track0"]
            dist = np.empty_like(cyl0)
            dist[0] = 0
            np.subtract(cyl0[1:], info["cyle"][:-1], out=dist[1:])
            moved = np.empty(dist.size, dtype=bool)
            moved[0] = False
            np.not_equal(track0[1:], info["tracke"][:-1], out=moved[1:])
            group.seeks = self._seek_vector(np.abs(dist, out=dist), moved)
            group.seek_list = group.seeks.tolist()
        group.info, group.perm, group.runs = info, perm, None
        group.a0 = info["a0"].tolist()
        group.xfer = (info["transfer"] + info["switch"]).tolist()
        group.blocks = np.add.reduceat(info["lengths"], bounds[:-1]).tolist()

    def service_runs(
        self,
        starts,
        lengths,
        *,
        policy: str = "sorted",
        window: int = 64,
        collect: bool = False,
        prepared: "RunBatch | None" = None,
    ) -> BatchResult:
        """Service a batch of runs under a scheduling policy.

        Parameters
        ----------
        starts, lengths:
            Parallel arrays describing the runs.
        policy:
            ``"fifo"``, ``"sorted"`` or ``"sptf"`` (see module docstring).
        window:
            Lookahead depth for ``"sptf"`` — models the drive's command
            queue; requests are admitted in issue order.  Must be >= 1.
        collect:
            If true, return per-request service times and the service order.
        prepared:
            This batch's :class:`RunBatch` from :meth:`prepare_batches`,
            made from these same ``starts`` and ``lengths`` arrays and
            this ``policy``: the batch is then served from its group's
            preparation instead of being checked and prepared again.
            The result is the same either way.

        ``"fifo"`` and ``"sorted"`` batches consult and fill the firmware
        :class:`TrackCache`, if the drive has one.  An ``"sptf"`` batch
        bypasses it: it neither consults nor fills it.  With the cache in
        play a queued request's cost would depend on which tracks happen
        to be buffered, which every serviced request changes, so the
        scheduler could no longer rank the queue by head position alone.

        Raises :class:`GeometryError` for a policy other than the three
        above (checked first, even for an empty batch), for a non-empty
        batch whose ``starts`` or ``lengths`` is not a 1-D integer
        array or whose two arrays differ in shape, for run lengths below
        1 or LBNs off the disk, for an ``"sptf"`` window that is not
        an integer >= 1, and for a ``prepared`` batch made from other
        runs, another policy or another drive, always before the clock,
        head or cache change.  An empty batch is otherwise always legal.
        """
        batch = prepared
        if batch is None:
            starts, lengths = self._check_runs(starts, lengths, policy)
        elif (batch.drive is not self or batch.policy != policy
              or batch.starts is not starts
              or batch.lengths is not lengths):
            raise GeometryError(
                "prepared batch was made from other runs, another policy "
                "or another drive"
            )
        n = int(starts.size)
        if n == 0:
            return BatchResult.empty()
        if policy == "sptf":
            _check_count("window", window, GeometryError)
        elif (n <= SCALAR_RUNS if batch is None
              # prepare_batches grouped it by PREPARED_SCALAR_RUNS
              else batch.group is None):
            return self._service_scalar(
                starts, lengths, policy == "sorted", collect
            )
        if batch is None:
            group, k = _PreparedGroup([(starts, lengths, policy)]), 0
        else:
            group, k = batch.group, batch.k
        if group.info is None:
            self._prepare(group)
        if policy == "sptf":
            return self._service_sptf(group, k, window, collect)
        return self._service_in_order(group, k, collect)

    def service_lbns(self, lbns, **kwargs) -> BatchResult:
        """Service single-block requests (no coalescing)."""
        lbns = np.asarray(lbns)
        return self.service_runs(
            lbns, np.ones(lbns.shape, dtype=np.int64), **kwargs
        )

    # -- fixed-order servicing (fifo / sorted) -------------------------

    def _service_scalar(self, starts, lengths, sort: bool,
                        collect: bool) -> BatchResult:
        """Service a small fifo (or, with ``sort``, sorted) batch in one
        Python pass, run by run, with the float expressions
        :meth:`_prepare_runs` and :meth:`_service_in_order` evaluate:
        locate the start's zone, settle the firmware cache, price the
        seek, rotational wait, transfer and in-run switches, advance the
        clock.  Seek, transfer and switch are summed as numpy's reduction
        sums them on the numpy path (:func:`_add_reduce`), so the result
        is bit for bit its result."""
        geom = self.geometry
        starts_l = starts.tolist()
        lengths_l = lengths.tolist()
        if (min(lengths_l) < 1 or min(starts_l) < 0
                or max(map(add, starts_l, lengths_l)) > geom.n_lbns):
            # the numpy preparation raises the batch's GeometryError
            self._prepare_runs(starts, lengths)
        n = len(starts_l)
        order = None
        if sort and any(map(gt, starts_l, starts_l[1:])):
            # a stable sort of sorted starts is the identity, so only
            # unsorted batches pay for it
            order = sorted(range(n), key=starts_l.__getitem__)
            starts_l = [starts_l[i] for i in order]
            lengths_l = [lengths_l[i] for i in order]

        rot = self._rot
        overhead = self._overhead
        snap = 1.0 - SNAP_REV
        head_switch = self.mechanics.head_switch_ms
        seek_list = self.model.seek_list
        surfaces = geom.surfaces
        rows = self._zone_rows
        firsts = self._zone_firsts
        cache = self.cache
        t = self._time_ms
        track = self._track
        cyl = track // surfaces
        seeks, transfers, switches = [], [], []
        add_seek, add_transfer = seeks.append, transfers.append
        add_switch = switches.append
        bus_xfers = []  # the cache hits'
        per_request = [] if collect else None
        rot_total = 0.0
        first = end = 0  # the LBN span of zone z, whose row is unpacked
        for lbn, length in zip(starts_l, lengths_l):
            if not first <= lbn < end:
                z = bisect_right(firsts, lbn) - 1
                first, spt, track_first, skew, end, sector_time, boundary = (
                    rows[z])
            rel = lbn - first
            tz = rel // spt
            sector = rel - tz * spt
            track0 = track_first + tz
            span = length - 1
            if span < end - lbn:  # ends in its start zone
                crossed = (sector + span) // spt
                tracke = track0 + crossed
                transfer = length * sector_time
                switch = crossed * boundary
            else:
                last = lbn + span
                ze = bisect_right(firsts, last) - 1
                first_e, spt_e, track_first_e = rows[ze][:3]
                tracke = track_first_e + (last - first_e) // spt_e
                transfer, switch = self._cross_zone_costs(
                    np.array([lbn]), np.array([last]), range(z, ze + 1)
                )
                transfer, switch = float(transfer[0]), float(switch[0])
            if cache is not None:
                if cache.hit(track0, tracke):
                    bus_xfer = length * self.CACHE_BLOCK_MS
                    t += overhead + bus_xfer
                    bus_xfers.append(bus_xfer)
                    if collect:
                        per_request.append(overhead + bus_xfer)
                    continue
                cache.insert(track0, tracke)
            cyl0 = track0 // surfaces
            dist = cyl0 - cyl
            seek = seek_list[dist if dist >= 0 else -dist]
            if not dist and track0 != track:
                seek = head_switch
            arrival = t + overhead + seek
            wait = (((sector + skew * tz) % spt) / spt - arrival / rot) % 1.0
            if wait > snap:
                wait = 0.0
            wait *= rot
            rot_total += wait
            t = arrival + wait + (transfer + switch)
            track, cyl = tracke, tracke // surfaces
            add_seek(seek)
            add_transfer(transfer)
            add_switch(switch)
            if collect:
                per_request.append(seek + wait + transfer + switch + overhead)

        total = t - self._time_ms
        self._time_ms = t
        self._track = track
        transfer_ms = _add_reduce(transfers)
        if bus_xfers:
            transfer_ms += _add_reduce(bus_xfers)
        if collect:
            order = (np.arange(n, dtype=np.int64) if order is None
                     else np.array(order, dtype=np.int64))
        return BatchResult(
            total_ms=total,
            n_requests=n,
            n_blocks=sum(lengths_l),
            seek_ms=_add_reduce(seeks),
            rotation_ms=rot_total,
            transfer_ms=transfer_ms,
            switch_ms=_add_reduce(switches),
            overhead_ms=overhead * n,
            per_request_ms=np.array(per_request) if collect else None,
            order=order if collect else None,
        )

    def _service_in_order(self, group: _PreparedGroup, k: int,
                          collect: bool) -> BatchResult:
        """Service batch ``k`` of a prepared group, a fifo or sorted
        batch, in its service order; its seeks were prepared with it,
        all but the first, which is priced from the head here."""
        rot = self._rot
        overhead = self._overhead
        lo, hi = group.bounds[k], group.bounds[k + 1]
        info = group.info
        n = hi - lo
        transfer = info["transfer"][lo:hi]
        switch = info["switch"][lo:hi]
        # The recurrence below runs over `segments` of the mechanically
        # serviced runs; a cache hit costs bus time and leaves the head
        # where it was (see _cache_pass).  Without a cache, or when every
        # run misses, that is the whole batch, and no field is gathered.
        segments = ((0, n, ()),)
        m = n
        if self.cache is not None:
            bus_xfer = info["lengths"][lo:hi] * self.CACHE_BLOCK_MS
            bus = overhead + bus_xfer
            misses, segments = self._cache_pass(
                info["track0"][lo:hi].tolist(),
                info["tracke"][lo:hi].tolist(), bus.tolist(),
            )
            m = len(misses)
        if m == n:
            # the group's own rows, from `lo`
            seeks = group.seeks[lo:hi]
            dist = (int(info["cyl0"][lo])
                    - self._track // self.geometry.surfaces)
            first = self.model.seek_list[dist if dist >= 0 else -dist]
            if not dist and int(info["track0"][lo]) != self._track:
                first = self.mechanics.head_switch_ms
            seeks[0] = group.seek_list[lo] = first
            seeks_l, a0_l, xfer_l = group.seek_list, group.a0, group.xfer
            segments = ((lo, hi, ()),)
            off = lo
            last_track = info["tracke"][hi - 1]
        else:
            off = 0
            misses = np.array(misses, dtype=np.int64)
            rows = misses + lo
            cyl0, track0, cyle, tracke = (
                info[key][rows] for key in ("cyl0", "track0", "cyle",
                                            "tracke"))
            transfer, switch = transfer[misses], switch[misses]
            prev_cyl = np.empty(m, dtype=np.int64)
            prev_cyl[:1] = self._track // self.geometry.surfaces
            prev_cyl[1:] = cyle[:-1]
            prev_track = np.empty(m, dtype=np.int64)
            prev_track[:1] = self._track
            prev_track[1:] = tracke[:-1]
            seeks = self._seek_vector(
                np.abs(cyl0 - prev_cyl), track0 != prev_track
            )
            seeks_l = seeks.tolist()
            a0_l = info["a0"][rows].tolist()
            xfer_l = (transfer + switch).tolist()
            last_track = tracke[-1] if m else None

        # The rotational recurrence is sequential; run it as a tight loop
        # over plain floats.
        t = self._time_ms
        waits = [0.0] * m if collect else None
        rot_total = 0.0
        snap = 1.0 - SNAP_REV
        for lo_i, hi_i, delays in segments:
            for delay in delays:
                t += delay
            for i in range(lo_i, hi_i):
                arrival = t + overhead + seeks_l[i]
                wait = (a0_l[i] - (arrival / rot)) % 1.0
                if wait > snap:
                    wait = 0.0
                wait *= rot
                rot_total += wait
                t = arrival + wait + xfer_l[i]
                if collect:
                    waits[i - off] = wait

        total = t - self._time_ms
        self._time_ms = t
        if m:
            self._track = int(last_track)

        transfer_ms = float(transfer.sum())
        per_request = order = None
        if collect:
            per_request = (
                seeks + np.asarray(waits) + transfer + switch + overhead
            )
            order = group.order(k)
        if m < n:  # some runs hit the cache
            transfer_ms += float(np.delete(bus_xfer, misses).sum())
            if collect:
                bus[misses] = per_request
                per_request = bus
        return BatchResult(
            total_ms=total,
            n_requests=n,
            n_blocks=group.blocks[k],
            seek_ms=float(seeks.sum()),
            rotation_ms=rot_total,
            transfer_ms=transfer_ms,
            switch_ms=float(switch.sum()),
            overhead_ms=overhead * n,
            per_request_ms=per_request,
            order=order,
        )

    def _cache_pass(self, track0, tracke, bus):
        """Look up each run's tracks, in service order, in the cache.

        A run leaves its tracks most recently used whether it hits or
        misses (and is inserted), so the hits follow from the track
        ranges alone.  Returns the misses' service positions and
        segments ``(lo, hi, delays)``: misses ``lo..hi-1`` are consecutive
        and follow hits costing ``delays`` (from ``bus``) in all.
        """
        cache = self.cache
        misses, segments, delays, lo = [], [], [], 0
        for p, (first, last) in enumerate(zip(track0, tracke)):
            if cache.hit(first, last):
                if len(misses) > lo:
                    segments.append((lo, len(misses), delays))
                    lo, delays = len(misses), []
                delays.append(bus[p])
            else:
                cache.insert(first, last)
                misses.append(p)
        segments.append((lo, len(misses), delays))
        return misses, segments

    # -- windowed shortest-positioning-time-first -----------------------

    def _service_sptf(self, group: _PreparedGroup, k: int, window: int,
                      collect: bool) -> BatchResult:
        rot = self._rot
        overhead = self._overhead
        snap = 1.0 - SNAP_REV
        switch = self.mechanics.head_switch_ms
        seeks = self.model.seek_list
        floor = self.model.seek_floor_ms
        # more revolutions than any arrival lies past the clock
        lap = (seeks[-1] + switch) / rot + 1.0
        lo, hi = group.bounds[k], group.bounds[k + 1]
        info = group.info
        n = hi - lo
        cyl0 = info["cyl0"][lo:hi].tolist()
        track0 = info["track0"][lo:hi].tolist()
        cyle = info["cyle"][lo:hi].tolist()
        tracke = info["tracke"][lo:hi].tolist()
        a0 = group.a0[lo:hi]
        xfer = group.xfer[lo:hi]

        # The command queue holds the first `w` requests not yet serviced,
        # admitted in issue order: parallel lists sorted by start angle
        # (`q_ang`, `q_idx`), plus a count of the queued requests of each
        # track.
        w = min(window, n)
        q_idx = sorted(range(w), key=a0.__getitem__)
        q_ang = [a0[j] for j in q_idx]
        queued: dict[int, int] = {}
        for j in range(w):
            queued[track0[j]] = queued.get(track0[j], 0) + 1
        next_admit = w

        t = self._time_ms
        cur_cyl = self._track // self.geometry.surfaces
        cur_track = self._track
        order = [0] * n if collect else None
        per_request = [0.0] * n if collect else None
        seek_total = rot_total = 0.0
        # `err` (below) holds for every phase under `top`, the end of the
        # binade it was computed in; the clock only grows
        top = err = 0.0

        for step in range(n):
            # Every scored request costs exactly what a full-queue pass
            # would compute: arrival `(t + overhead) + seek`, the snapped
            # fractional wait, `seek + wait`; the lowest issue index wins
            # a tie.  `best_p` is the winner's queue position.
            t0 = t + overhead
            best = math.inf
            chosen = best_p = -1
            best_seek = best_wait = 0.0
            # Requests on the head's track need no seek, so the bound
            # below does not hold for them: score them all first.
            if queued.get(cur_track):
                phase = t0 / rot
                for p, a in enumerate(q_ang):
                    j = q_idx[p]
                    if track0[j] != cur_track:
                        continue
                    wait = (a - phase) % 1.0
                    wait = 0.0 if wait > snap else wait * rot
                    if wait < best or (wait == best and j < chosen):
                        best, chosen, best_p, best_wait = wait, j, p, wait

            # Any other request needs at least `floor` to reach, and a
            # longer seek only eats into its rotational wait, so one whose
            # start angle lies `key` revolutions past the angle the head
            # reaches after `floor` costs at least `floor + key * rot`.
            # Walk the queue in that rotational order; stop once the bound
            # exceeds the best cost.  Two allowances keep the bound below
            # every cost as computed: SNAP_REV, as a wait just short of a
            # revolution snaps to zero, and `err`, 16 ulps of the largest
            # phase in play, as each phase is rounded by a few ulps.
            x = t0 / rot + lap
            if x >= top:
                err = 16.0 * math.ulp(x)
                top = math.ldexp(1.0, math.frexp(x)[1])
            start = ((t0 + floor) / rot - SNAP_REV - err) % 1.0
            slack = SNAP_REV + 2.0 * err
            lim = start + (best - floor) / rot + slack
            i = bisect_left(q_ang, start)
            # Two arcs: positions i.. from `start` to the end of the
            # queue, then 0..i-1, whose angles lie one revolution further
            # on.  The two loops score alike.
            for p in range(i, len(q_ang)):
                a = q_ang[p]
                if a > lim:
                    break
                j = q_idx[p]
                d = cyl0[j] - cur_cyl
                if d:
                    seek = seeks[d if d > 0 else -d]
                elif track0[j] != cur_track:
                    seek = switch
                else:
                    continue  # on the head's track: scored above
                wait = (a - (t0 + seek) / rot) % 1.0
                wait = 0.0 if wait > snap else wait * rot
                cost = seek + wait
                if cost < best or (cost == best and j < chosen):
                    best, chosen, best_p = cost, j, p
                    best_seek, best_wait = seek, wait
                    lim = start + (cost - floor) / rot + slack
            else:
                for p in range(i):
                    a = q_ang[p]
                    if a + 1.0 > lim:
                        break
                    j = q_idx[p]
                    d = cyl0[j] - cur_cyl
                    if d:
                        seek = seeks[d if d > 0 else -d]
                    elif track0[j] != cur_track:
                        seek = switch
                    else:
                        continue
                    wait = (a - (t0 + seek) / rot) % 1.0
                    wait = 0.0 if wait > snap else wait * rot
                    cost = seek + wait
                    if cost < best or (cost == best and j < chosen):
                        best, chosen, best_p = cost, j, p
                        best_seek, best_wait = seek, wait
                        lim = start + (cost - floor) / rot + slack

            seek_total += best_seek
            rot_total += best_wait
            service_time = overhead + best + xfer[chosen]
            t += service_time
            cur_cyl = cyle[chosen]
            cur_track = tracke[chosen]
            if collect:
                order[step] = chosen
                per_request[step] = service_time

            del q_ang[best_p], q_idx[best_p]
            queued[track0[chosen]] -= 1
            if next_admit < n:
                j = next_admit
                p = bisect_right(q_ang, a0[j])
                q_ang.insert(p, a0[j])
                q_idx.insert(p, j)
                queued[track0[j]] = queued.get(track0[j], 0) + 1
                next_admit += 1

        total = t - self._time_ms
        self._time_ms = t
        self._track = cur_track
        return BatchResult(
            total_ms=total,
            n_requests=n,
            n_blocks=group.blocks[k],
            seek_ms=seek_total,
            rotation_ms=rot_total,
            transfer_ms=float(info["transfer"][lo:hi].sum()),
            switch_ms=float(info["switch"][lo:hi].sum()),
            overhead_ms=overhead * n,
            per_request_ms=np.array(per_request) if collect else None,
            order=np.array(order, dtype=np.int64) if collect else None,
        )

    # ------------------------------------------------------------------
    # derived figures
    # ------------------------------------------------------------------

    def streaming_bandwidth_bytes_per_s(self, zone_index: int = 0) -> float:
        """Sustained sequential bandwidth within a zone (includes skew loss)."""
        zone = self.geometry.zone(zone_index)
        spt = zone.sectors_per_track
        sector_time = self._rot / spt
        track_time = self._rot + zone.skew_sectors * sector_time
        return spt * 512 / (track_time / 1000.0)
