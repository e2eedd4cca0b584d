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
one-run ``"fifo"`` batch.  Per-run geometry and in-run cost are computed
with numpy, zone by zone for a run that crosses zones, and seek costs are
looked up in :attr:`DiskModel.seek_table` (seek time by cylinder
distance).  For ``"fifo"`` and ``"sorted"`` the only per-run Python work
is the rotational-position recurrence, which is inherently sequential,
and, with a firmware :class:`TrackCache`, one lookup per run that settles
the batch's hits before any timing.

Most batches are small (MultiMap fetches a non-primary beam as one
single-block run per cell, §5.2), so what a batch pays regardless of
its size matters.  A batch is put in service order before it is
prepared (a stable sort of the starts for ``"sorted"``, issue order
otherwise), so the prepared fields are gathered again only for the
cache misses of a batch that had hits.  Preparation makes one geometry
pass, over the run starts: a run that ends before its start zone's end
LBN ends ``(sector0 + length - 1) // spt0`` tracks on, and only runs
that reach a later zone, or leave the disk, decompose their last LBN.
An 11-run ``"fifo"`` batch of single blocks costs ~36 µs of host time
(2-vCPU x86), ~3 µs of it the recurrence, where decomposing both ends
and gathering every field in service order took ~47 µs.

An ``"sptf"`` batch takes one scheduling step per request, and a step
scores only the queued requests that can still win.  The command queue
is kept sorted by start angle.  Every request off the head's track needs
at least :attr:`DiskModel.seek_floor_ms` to reach, and a longer seek
only eats into its rotational wait, so a request's cost is at least that
floor plus its rotational distance from where the floor lands the head.
A step walks the queue in that rotational order and stops once the bound
exceeds the best cost so far; requests on the head's own track, which
need no seek, are scored first from a per-track index.  The result is
exact.  Each scored request's cost is the same float expression a pass
over the whole queue evaluates, ties go to the lowest issue index, and
the bound is lowered by the snap window (``SNAP_REV``) and by a rounding
allowance derived from the head's clock, so it never exceeds a cost as
computed.  ``tests/disk/test_sptf_oracle.py`` pins order, per-request
times and totals to a full-pass reference.

The bound is tight on the batches the planner issues, MultiMap's
semi-sequential range plans at window 128, where every candidate is a
settle-time seek away.  On the benchmark's paper-batch workload a step
scores about 5 of ~100 queued requests and costs ~3-4 µs, against ~13
µs for the numpy pass over the whole queue it replaced; the median host
time per round fell from 12.2 to 7.5 ms (shared 2-vCPU x86 container,
CPU-normalised).  Batches scattered over the whole disk at deep windows
are the trade-off: the floor ignores their long seeks, so a step scores
a large share of the queue in Python.  A 3,000-request whole-disk
scatter at window 512 steps in ~20 µs, where the numpy pass took ~14.
No planner issues such batches.
"""

from __future__ import annotations

import math
import numbers
from bisect import bisect_left, bisect_right
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.disk.geometry import DiskGeometry
from repro.disk.mechanics import DiskMechanics
from repro.disk.models import DiskModel
from repro.errors import GeometryError, _check_count, _check_int

__all__ = ["DiskDrive", "BatchResult", "RunTiming", "TrackCache"]

# Rotational waits within SNAP_REV of a full revolution are floating-point
# artifacts of on-the-knife-edge alignments (e.g. the zero-skew toy disk);
# physically the block is reachable with no wait.  Real models keep margins
# of a sector or more, far above this tolerance.
SNAP_REV = 1e-7

#: the batch scheduling policies :meth:`DiskDrive.service_runs` accepts
POLICIES = ("fifo", "sorted", "sptf")


def _wait_rev(delta: float) -> float:
    """Fractional-revolution wait to reach angle delta ahead (snapped)."""
    w = delta % 1.0
    return 0.0 if w > 1.0 - SNAP_REV else w


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

    @staticmethod
    def empty() -> "BatchResult":
        return BatchResult(0.0, 0, 0, 0.0, 0.0, 0.0, 0.0, 0.0)


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
        # Exact cost of crossing a track boundary mid-run: settle, then
        # the wait for the next track's sector 0, which lies `delta`
        # revolutions past where the last track ended.  Inside a zone
        # that is one skew.  A zone's last track ends where its own
        # sector 0 sits, and the next zone's first track starts at 0.
        rot = self._rot
        settle = self.mechanics.head_switch_ms

        def crossing(delta: float) -> float:
            return settle + _wait_rev(delta - settle / rot) * rot

        geom = self.geometry
        self._boundary_cost = np.array([
            crossing(z.skew_sectors / z.sectors_per_track) for z in geom.zones
        ])
        self._exit_cost = np.array([
            crossing(0.0 - geom.start_angle(
                geom.zone_lbn_span(z.index)[1] - z.sectors_per_track
            ))
            for z in geom.zones
        ])

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
        track = _check_int("track", track, GeometryError)
        if not 0 <= track < self.geometry.n_tracks:
            raise GeometryError(f"track {track} out of range")
        if not (isinstance(time_ms, numbers.Real) and math.isfinite(time_ms)):
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
        return (
            int(rng.integers(self.geometry.n_tracks)),
            float(rng.uniform(0.0, self._rot)),
        )

    def randomize_position(self, rng: np.random.Generator) -> None:
        """Place the head at a uniformly random track and rotation phase."""
        self._track, self._time_ms = self.draw_position(rng)

    def advance_clock(self, t_ms: float) -> None:
        """Advance the clock to ``t_ms`` without moving the head.

        Models the platter spinning while the drive sits idle between
        requests (the traffic simulator calls this when dispatching to an
        idle drive, so the rotational phase reflects the wait).  Clocks
        never move backwards; a ``t_ms`` at or before *now* is a no-op.
        """
        if t_ms > self._time_ms:
            self._time_ms = float(t_ms)

    def head_angle(self, t_ms: float | None = None) -> float:
        """Platter angle under the head at time ``t`` (revolutions)."""
        t = self._time_ms if t_ms is None else t_ms
        return (t / self._rot) % 1.0

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
        :meth:`service_runs` would, firmware cache included.  The batch
        machinery makes a call cost ~36 µs of host time (2-vCPU x86),
        two to three times what a per-run scalar path took; only
        :mod:`repro.disk.characterize` calls it in bulk.
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

    def service_runs(
        self,
        starts,
        lengths,
        *,
        policy: str = "sorted",
        window: int = 64,
        collect: bool = False,
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
        1 or LBNs off the disk, and for an ``"sptf"`` window that is not
        an integer >= 1, always before the clock, head or cache change.
        An empty batch is otherwise always legal.
        """
        if policy not in POLICIES:
            raise GeometryError(
                f"unknown policy {policy!r}; expected one of "
                f"{', '.join(POLICIES)}"
            )
        starts = np.asarray(starts)
        lengths = np.asarray(lengths)
        n = int(starts.size)
        if n == 0:
            return BatchResult.empty()
        for name, arr in (("starts", starts), ("lengths", lengths)):
            if arr.ndim != 1:
                raise GeometryError(
                    f"{name} must be a 1-D array, got shape {arr.shape}"
                )
            if arr.dtype.kind not in "iu":
                raise GeometryError(
                    f"{name} must be integers, got dtype {arr.dtype}"
                )
        if starts.shape != lengths.shape:
            raise GeometryError("starts and lengths must have equal shape")
        if policy == "sptf":
            _check_count("window", window, GeometryError)
            return self._service_sptf(
                self._prepare_runs(starts, lengths), window, collect
            )
        # fifo and sorted runs are prepared in service order
        order = None
        if policy == "sorted":
            order = np.argsort(starts, kind="stable")
            starts, lengths = starts[order], lengths[order]
        elif collect:
            order = np.arange(n, dtype=np.int64)
        return self._service_in_order(
            self._prepare_runs(starts, lengths), order, collect
        )

    def service_lbns(self, lbns, **kwargs) -> BatchResult:
        """Service single-block requests (no coalescing)."""
        lbns = np.asarray(lbns)
        return self.service_runs(
            lbns, np.ones(lbns.shape, dtype=np.int64), **kwargs
        )

    # -- fixed-order servicing (fifo / sorted) -------------------------

    def _service_in_order(self, info, order, collect: bool) -> BatchResult:
        """Service the prepared runs in the order given; ``order`` maps
        service positions to issue indices (None for fifo unless
        ``collect``) and is returned with ``collect``."""
        rot = self._rot
        overhead = self._overhead
        n = info["starts"].size
        # The recurrence below runs over `segments` of the mechanically
        # serviced runs; a cache hit costs bus time and leaves the head
        # where it was (see _cache_pass).  Without a cache, or when every
        # run misses, that is the whole batch, and no field is gathered.
        segments = ((0, n, ()),)
        mech = info
        if self.cache is not None:
            bus_xfer = info["lengths"] * self.CACHE_BLOCK_MS
            bus = overhead + bus_xfer
            misses, segments = self._cache_pass(
                info["track0"].tolist(), info["tracke"].tolist(),
                bus.tolist(),
            )
            if len(misses) < n:
                misses = np.array(misses, dtype=np.int64)
                mech = {key: info[key][misses] for key in (
                    "cyl0", "track0", "a0", "cyle", "tracke", "transfer",
                    "switch")}
        cyl0 = mech["cyl0"]
        track0 = mech["track0"]
        a0 = mech["a0"]
        cyle = mech["cyle"]
        tracke = mech["tracke"]
        transfer = mech["transfer"]
        switch = mech["switch"]
        m = cyl0.size

        # Seek components are order-dependent but fully precomputable.
        prev_cyl = np.empty(m, dtype=np.int64)
        prev_cyl[:1] = self._track // self.geometry.surfaces
        prev_cyl[1:] = cyle[:-1]
        prev_track = np.empty(m, dtype=np.int64)
        prev_track[:1] = self._track
        prev_track[1:] = tracke[:-1]
        seeks = self._seek_vector(
            np.abs(cyl0 - prev_cyl), track0 != prev_track
        )

        # The rotational recurrence is sequential; run it as a tight loop
        # over plain floats.
        t = self._time_ms
        seeks_l = seeks.tolist()
        a0_l = a0.tolist()
        xfer_l = (transfer + switch).tolist()
        waits = [0.0] * m if collect else None
        rot_total = 0.0
        snap = 1.0 - SNAP_REV
        for lo, hi, delays in segments:
            for delay in delays:
                t += delay
            for i in range(lo, hi):
                arrival = t + overhead + seeks_l[i]
                wait = (a0_l[i] - (arrival / rot)) % 1.0
                if wait > snap:
                    wait = 0.0
                wait *= rot
                rot_total += wait
                t = arrival + wait + xfer_l[i]
                if collect:
                    waits[i] = wait

        total = t - self._time_ms
        self._time_ms = t
        if m:
            self._track = int(tracke[-1])

        transfer_ms = float(transfer.sum())
        per_request = None
        if collect:
            per_request = (
                seeks + np.asarray(waits) + transfer + switch + overhead
            )
        if m < n:  # some runs hit the cache
            transfer_ms += float(np.delete(bus_xfer, misses).sum())
            if collect:
                bus[misses] = per_request
                per_request = bus
        return BatchResult(
            total_ms=total,
            n_requests=n,
            n_blocks=int(info["lengths"].sum()),
            seek_ms=float(seeks.sum()),
            rotation_ms=rot_total,
            transfer_ms=transfer_ms,
            switch_ms=float(switch.sum()),
            overhead_ms=overhead * n,
            per_request_ms=per_request,
            order=order if collect else None,
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

    def _service_sptf(self, info, window: int, collect: bool) -> BatchResult:
        rot = self._rot
        overhead = self._overhead
        snap = 1.0 - SNAP_REV
        switch = self.mechanics.head_switch_ms
        seeks = self.model.seek_list
        floor = self.model.seek_floor_ms
        # more revolutions than any arrival lies past the clock
        lap = (seeks[-1] + switch) / rot + 1.0
        n = info["starts"].size
        cyl0 = info["cyl0"].tolist()
        track0 = info["track0"].tolist()
        a0 = info["a0"].tolist()
        cyle = info["cyle"].tolist()
        tracke = info["tracke"].tolist()
        xfer = (info["transfer"] + info["switch"]).tolist()

        # The command queue holds the first `w` requests not yet serviced,
        # admitted in issue order: parallel lists sorted by start angle
        # (`q_ang`, `q_idx`), plus the queued requests of each track.
        w = min(window, n)
        q_idx = sorted(range(w), key=a0.__getitem__)
        q_ang = [a0[j] for j in q_idx]
        on_track: dict[int, list[int]] = {}
        for j in range(w):
            on_track.setdefault(track0[j], []).append(j)
        next_admit = w

        t = self._time_ms
        cur_cyl = self._track // self.geometry.surfaces
        cur_track = self._track
        order = [0] * n if collect else None
        per_request = [0.0] * n if collect else None
        seek_total = rot_total = 0.0

        for step in range(n):
            # Every scored request costs exactly what a full-queue pass
            # would compute: arrival `(t + overhead) + seek`, the snapped
            # fractional wait, `seek + wait`; the lowest issue index wins
            # a tie.
            t0 = t + overhead
            best = math.inf
            chosen = -1
            best_seek = best_wait = 0.0
            # Requests on the head's track need no seek, so the bound
            # below does not hold for them: score them all first.
            here = on_track.get(cur_track)
            if here:
                phase = t0 / rot
                for j in here:
                    wait = (a0[j] - phase) % 1.0
                    wait = 0.0 if wait > snap else wait * rot
                    if wait < best or (wait == best and j < chosen):
                        best, chosen, best_wait = wait, j, wait

            # Any other request needs at least `floor` to reach, and a
            # longer seek only eats into its rotational wait, so one whose
            # start angle lies `key` revolutions past the angle the head
            # reaches after `floor` costs at least `floor + key * rot`.
            # Walk the queue in that rotational order; stop once the bound
            # exceeds the best cost.  Two allowances keep the bound below
            # every cost as computed: SNAP_REV, as a wait just short of a
            # revolution snaps to zero, and `err`, 16 ulps of the largest
            # phase in play, as each phase is rounded by a few ulps.
            err = 16.0 * math.ulp(t0 / rot + lap)
            start = ((t0 + floor) / rot - SNAP_REV - err) % 1.0
            slack = SNAP_REV + 2.0 * err
            lim = start + (best - floor) / rot + slack
            i = bisect_left(q_ang, start)
            # p runs over positions i..m-1 as negative indices, then
            # wraps to 0..i-1, whose angles lie one revolution further
            for p in range(i - len(q_ang), i):
                a = q_ang[p]
                if (a if p < 0 else a + 1.0) > lim:
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
                    best, chosen, best_seek, best_wait = cost, j, seek, wait
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

            p = bisect_left(q_ang, a0[chosen])
            while q_idx[p] != chosen:
                p += 1
            del q_ang[p], q_idx[p]
            mates = on_track[track0[chosen]]
            if len(mates) == 1:
                del on_track[track0[chosen]]
            else:
                mates.remove(chosen)
            if next_admit < n:
                j = next_admit
                p = bisect_right(q_ang, a0[j])
                q_ang.insert(p, a0[j])
                q_idx.insert(p, j)
                on_track.setdefault(track0[j], []).append(j)
                next_admit += 1

        total = t - self._time_ms
        self._time_ms = t
        self._track = cur_track
        return BatchResult(
            total_ms=total,
            n_requests=n,
            n_blocks=int(info["lengths"].sum()),
            seek_ms=seek_total,
            rotation_ms=rot_total,
            transfer_ms=float(info["transfer"].sum()),
            switch_ms=float(info["switch"].sum()),
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
