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

The batch path is vectorised: per-run geometry is computed with numpy, and
seek costs are looked up in the model's seek table (seek time by cylinder
distance, :attr:`DiskModel.seek_table`) rather than evaluated on the
curve.  For ``"fifo"`` and ``"sorted"`` the only per-run Python work is
the rotational-position recurrence, which is inherently sequential.  An
``"sptf"`` batch takes one scheduling step per request, each a short,
fixed sequence of numpy operations over the command queue, which lives
in preallocated arrays kept in issue order.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.disk.geometry import DiskGeometry
from repro.disk.mechanics import DiskMechanics
from repro.disk.models import DiskModel
from repro.errors import GeometryError

__all__ = ["DiskDrive", "BatchResult", "RunTiming", "TrackCache"]

# Rotational waits within SNAP_REV of a full revolution are floating-point
# artifacts of on-the-knife-edge alignments (e.g. the zero-skew toy disk);
# physically the block is reachable with no wait.  Real models keep margins
# of a sector or more, far above this tolerance.
SNAP_REV = 1e-7


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
    """

    #: bus transfer cost per cached block (Ultra160-class, ms)
    CACHE_BLOCK_MS = 0.0032

    def __init__(self, model: DiskModel, cache_tracks: int = 0):
        self.model = model
        self.geometry: DiskGeometry = model.geometry
        self.mechanics: DiskMechanics = model.mechanics
        self._rot = self.mechanics.rotation_ms
        self._overhead = self.mechanics.command_overhead_ms
        self._time_ms = 0.0
        self._track = 0
        self.cache = TrackCache(cache_tracks) if cache_tracks > 0 else None
        # Exact cost of crossing one in-zone track boundary mid-run:
        # settle plus the wait for the skewed next track to come around.
        settle = self.mechanics.head_switch_ms
        self._boundary_cost = np.array(
            [
                settle
                + _wait_rev(
                    z.skew_sectors / z.sectors_per_track - settle / self._rot
                )
                * self._rot
                for z in self.geometry.zones
            ]
        )

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
        if not 0 <= track < self.geometry.n_tracks:
            raise GeometryError(f"track {track} out of range")
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

    def _seek_component(self, target_track: int) -> float:
        """Seek/settle cost to reach ``target_track`` from the current one."""
        if target_track == self._track:
            return 0.0
        surfaces = self.geometry.surfaces
        dist = abs(target_track // surfaces - self._track // surfaces)
        if dist == 0:
            return float(self.mechanics.head_switch_ms)
        return float(self.model.seek_table[dist])

    def positioning_time(self, lbn: int) -> tuple[float, float]:
        """(seek_ms, rotation_ms) to position on ``lbn`` — no state change."""
        geom = self.geometry
        geom.check_lbn(lbn)
        track = geom.track_of(lbn)
        seek = self._seek_component(track)
        arrival = self._time_ms + seek
        angle = geom.start_angle(lbn)
        wait = _wait_rev(angle - arrival / self._rot) * self._rot
        return seek, wait

    def service(self, lbn: int, nblocks: int = 1) -> RunTiming:
        """Service one run of ``nblocks`` consecutive LBNs; advance state."""
        if nblocks < 1:
            raise GeometryError("nblocks must be >= 1")
        geom = self.geometry
        geom.check_lbn(lbn)
        geom.check_lbn(lbn + nblocks - 1)
        start_ms = self._time_ms
        track = geom.track_of(lbn)
        if self.cache is not None:
            last_track = geom.track_of(lbn + nblocks - 1)
            if self.cache.hit(track, last_track):
                cost = self._overhead + nblocks * self.CACHE_BLOCK_MS
                self._time_ms += cost
                return RunTiming(
                    start_ms, 0.0, 0.0, nblocks * self.CACHE_BLOCK_MS,
                    0.0, self._overhead,
                )
        seek = self._seek_component(track)
        arrival = self._time_ms + self._overhead + seek
        angle = geom.start_angle(lbn)
        wait = _wait_rev(angle - arrival / self._rot) * self._rot
        t = arrival + wait
        transfer, switch, end_track = self._transfer_scalar(lbn, nblocks, t)
        self._time_ms = t + transfer + switch
        self._track = end_track
        if self.cache is not None:
            self.cache.insert(track, end_track)
        return RunTiming(start_ms, seek, wait, transfer, switch, self._overhead)

    def _transfer_scalar(
        self, lbn: int, nblocks: int, t: float
    ) -> tuple[float, float, int]:
        """Exact transfer of a run, track by track (handles zone crossings).

        Returns (transfer_ms, switch_ms, final_track).  ``t`` is the time at
        which the first sector starts passing under the head.
        """
        geom = self.geometry
        mech = self.mechanics
        rot = self._rot
        track = geom.track_of(lbn)
        sector = geom.sector_of(lbn)
        spt = geom.track_length(track)
        transfer = 0.0
        switch = 0.0
        remaining = nblocks
        while True:
            burst = min(remaining, spt - sector)
            transfer += burst * (rot / spt)
            t += burst * (rot / spt)
            remaining -= burst
            if remaining == 0:
                return transfer, switch, track
            # cross to the next track: settle, then wait for its first
            # sector to come around (the skew normally absorbs the settle).
            track += 1
            spt = geom.track_length(track)
            sector = 0
            t_settle = t + mech.head_switch_ms
            next_angle = geom.start_angle(geom.track_first_lbn(track))
            realign = _wait_rev(next_angle - t_settle / rot) * rot
            switch += mech.head_switch_ms + realign
            t = t_settle + realign

    # ------------------------------------------------------------------
    # batch service
    # ------------------------------------------------------------------

    def _prepare_runs(self, starts, lengths):
        """Vectorised per-run geometry needed by the batch schedulers.

        Returns a dict of ndarrays: start cylinder/track/angle, end
        cylinder/track/angle, in-run transfer + switch cost.  Runs that
        cross a zone boundary are flagged for the exact scalar path.
        """
        geom = self.geometry
        rot = self._rot
        starts = np.asarray(starts, dtype=np.int64)
        lengths = np.asarray(lengths, dtype=np.int64)
        if starts.shape != lengths.shape:
            raise GeometryError("starts and lengths must have equal shape")
        if lengths.size and lengths.min() < 1:
            raise GeometryError("run lengths must be >= 1")
        ends = starts + lengths - 1

        zi0, track0, sector0, spt0, a0 = geom.decompose(starts)
        zie, tracke, sectore, spte, ae = geom.decompose(ends)

        cross_zone = zi0 != zie
        sector_time = rot / spt0
        boundaries = tracke - track0
        transfer = lengths * sector_time
        # Each in-zone boundary costs settle + realign to the skewed next
        # track; that cost depends only on the zone, precomputed at init.
        switch = boundaries * self._boundary_cost[zi0]
        end_angle = (ae + 1.0 / spte) % 1.0

        surfaces = self.geometry.surfaces
        return {
            "starts": starts,
            "lengths": lengths,
            "cyl0": track0 // surfaces,
            "track0": track0,
            "a0": a0,
            "cyle": tracke // surfaces,
            "tracke": tracke,
            "end_angle": end_angle,
            "transfer": transfer,
            "switch": switch,
            "cross_zone": cross_zone,
        }

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

        Raises :class:`GeometryError` for a non-empty batch whose
        ``starts`` or ``lengths`` is not a 1-D integer array, for run
        lengths below 1 or LBNs off the disk, and for an ``"sptf"``
        window below 1.  An empty batch is always legal.
        """
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
        if policy == "sptf" and window < 1:
            raise GeometryError(f"sptf window must be >= 1, got {window}")
        info = self._prepare_runs(starts, lengths)
        if bool(info["cross_zone"].any()):
            return self._service_cross_zone(starts, lengths, policy, collect)
        if policy == "sorted":
            order = np.argsort(starts, kind="stable")
            return self._service_in_order(info, order, collect)
        if policy == "fifo":
            order = np.arange(n, dtype=np.int64)
            return self._service_in_order(info, order, collect)
        if policy == "sptf":
            return self._service_sptf(info, window, collect)
        raise ValueError(f"unknown policy {policy!r}")

    def service_lbns(self, lbns, **kwargs) -> BatchResult:
        """Service single-block requests (no coalescing)."""
        lbns = np.asarray(lbns)
        return self.service_runs(
            lbns, np.ones(lbns.shape, dtype=np.int64), **kwargs
        )

    # -- fixed-order servicing (fifo / sorted) -------------------------

    def _service_in_order(self, info, order, collect: bool) -> BatchResult:
        if self.cache is not None:
            # the cache makes run costs state-dependent; take the exact
            # scalar path (ablation feature, throughput is secondary)
            starts = info["starts"]
            lengths = info["lengths"]
            timings = [
                self.service(int(starts[i]), int(lengths[i])) for i in order
            ]
            per_request = (
                np.array([tm.total_ms for tm in timings])
                if collect
                else None
            )
            return BatchResult(
                total_ms=sum(tm.total_ms for tm in timings),
                n_requests=len(timings),
                n_blocks=int(lengths.sum()),
                seek_ms=sum(tm.seek_ms for tm in timings),
                rotation_ms=sum(tm.rotation_ms for tm in timings),
                transfer_ms=sum(tm.transfer_ms for tm in timings),
                switch_ms=sum(tm.switch_ms for tm in timings),
                overhead_ms=sum(tm.overhead_ms for tm in timings),
                per_request_ms=per_request,
                order=order if collect else None,
            )
        rot = self._rot
        n = order.size
        cyl0 = info["cyl0"][order]
        track0 = info["track0"][order]
        a0 = info["a0"][order]
        cyle = info["cyle"][order]
        tracke = info["tracke"][order]
        transfer = info["transfer"][order]
        switch = info["switch"][order]

        # Seek components are order-dependent but fully precomputable.
        prev_cyl = np.empty(n, dtype=np.int64)
        prev_cyl[0] = self._track // self.geometry.surfaces
        prev_cyl[1:] = cyle[:-1]
        prev_track = np.empty(n, dtype=np.int64)
        prev_track[0] = self._track
        prev_track[1:] = tracke[:-1]
        seeks = self._seek_vector(
            np.abs(cyl0 - prev_cyl), track0 != prev_track
        )

        # The rotational recurrence is sequential; run it as a tight loop
        # over plain floats.
        t = self._time_ms
        overhead = self._overhead
        seeks_l = seeks.tolist()
        a0_l = a0.tolist()
        xfer_l = (transfer + switch).tolist()
        waits = [0.0] * n if collect else None
        rot_total = 0.0
        snap = 1.0 - SNAP_REV
        for i in range(n):
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
        self._track = int(tracke[-1])

        per_request = None
        if collect:
            per_request = (
                seeks + np.asarray(waits) + transfer + switch + overhead
            )
        return BatchResult(
            total_ms=total,
            n_requests=n,
            n_blocks=int(info["lengths"].sum()),
            seek_ms=float(seeks.sum()),
            rotation_ms=rot_total,
            transfer_ms=float(transfer.sum()),
            switch_ms=float(switch.sum()),
            overhead_ms=overhead * n,
            per_request_ms=per_request,
            order=order if collect else None,
        )

    # -- windowed shortest-positioning-time-first -----------------------

    def _service_sptf(self, info, window: int, collect: bool) -> BatchResult:
        rot = self._rot
        overhead = self._overhead
        snap = 1.0 - SNAP_REV
        n = info["starts"].size
        cyl0 = info["cyl0"].tolist()
        track0 = info["track0"].tolist()
        a0 = info["a0"].tolist()
        cyle = info["cyle"].tolist()
        tracke = info["tracke"].tolist()
        xfer = (info["transfer"] + info["switch"]).tolist()

        # The command queue holds the first `w` requests not yet serviced,
        # admitted and kept in issue order, so argmin's first-minimum rule
        # breaks cost ties towards the earliest-issued request.  A serviced
        # slot is shifted out and the next request admitted at the tail.
        w = min(window, n)
        queue = np.empty((3, w), dtype=np.int64)
        queue[0] = info["cyl0"][:w]
        queue[1] = info["track0"][:w]
        queue[2] = np.arange(w)
        q_cyl, q_track, q_idx = queue
        q_angle = info["a0"][:w].copy()
        live = w
        cyl, trk, ang = q_cyl, q_track, q_angle
        next_admit = w

        t = self._time_ms
        cur_cyl = self._track // self.geometry.surfaces
        cur_track = self._track
        order = [0] * n if collect else None
        per_request = [0.0] * n if collect else None
        seek_total = rot_total = 0.0

        for step in range(n):
            seeks = self._seek_vector(np.abs(cyl - cur_cyl), trk != cur_track)
            arrival = t + overhead + seeks
            waits = ang - arrival / rot
            # the fractional part, equal to `waits % 1.0` bit for bit
            # (one rounding of the same exact value) at a third the cost
            waits -= np.floor(waits)
            waits[waits > snap] = 0.0
            waits *= rot
            costs = seeks + waits
            k = int(costs.argmin())
            chosen = int(q_idx[k])

            seek_total += float(seeks[k])
            rot_total += float(waits[k])
            service_time = overhead + float(costs[k]) + xfer[chosen]
            t += service_time
            cur_cyl = cyle[chosen]
            cur_track = tracke[chosen]
            if collect:
                order[step] = chosen
                per_request[step] = service_time

            if k < live - 1:
                queue[:, k:live - 1] = queue[:, k + 1:live]
                q_angle[k:live - 1] = q_angle[k + 1:live]
            if next_admit < n:
                q_cyl[live - 1] = cyl0[next_admit]
                q_track[live - 1] = track0[next_admit]
                q_idx[live - 1] = next_admit
                q_angle[live - 1] = a0[next_admit]
                next_admit += 1
            else:
                live -= 1
                cyl, trk, ang = q_cyl[:live], q_track[:live], q_angle[:live]

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

    # -- exact fallback for zone-crossing runs ---------------------------

    def _service_cross_zone(
        self, starts, lengths, policy: str, collect: bool
    ) -> BatchResult:
        order = (
            np.argsort(starts, kind="stable")
            if policy == "sorted"
            else np.arange(starts.size, dtype=np.int64)
        )
        timings = []
        for i in order:
            timings.append(self.service(int(starts[i]), int(lengths[i])))
        per_request = (
            np.array([tm.total_ms for tm in timings]) if collect else None
        )
        return BatchResult(
            total_ms=sum(tm.total_ms for tm in timings),
            n_requests=len(timings),
            n_blocks=int(np.asarray(lengths).sum()),
            seek_ms=sum(tm.seek_ms for tm in timings),
            rotation_ms=sum(tm.rotation_ms for tm in timings),
            transfer_ms=sum(tm.transfer_ms for tm in timings),
            switch_ms=sum(tm.switch_ms for tm in timings),
            overhead_ms=sum(tm.overhead_ms for tm in timings),
            per_request_ms=per_request,
            order=order if collect else None,
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
