"""The benchmark's three workloads, each run in *rounds*.

A round is one workload scenario played on all four layouts (naive,
zorder, hilbert, multimap) with the same inputs, drawn from
``(seed, round)``.  ``Workload.round`` times only the calls into the
program (host clock) and returns what the program reported on the
simulated clock, so every round yields both clocks.

* ``paper-batch`` — the Fig. 6 batch: beams along every axis plus range
  cubes, one query at a time on an idle single disk.
* ``failover-storm`` — closed-loop clients on 3 disks x 2 copies; one
  disk is killed mid-storm and revived later, so sub-plans fail over.
* ``ingest-reorg`` — a clustered record stream written through the
  ingest pipeline under the fixed and adaptive loaders, followed by the
  §4.6 background reorganisation.

Each workload checks the program's outputs: cell and block accounting
per operation, the paper's (or the example's) layout ordering over the
fixed set of ``SIM_ROUNDS`` rounds, and that a fresh dataset replays
round 0 bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from repro.api import Dataset
from repro.query.workload import BeamQuery, random_beam, random_range_cube
from repro.traffic import QueryMix

LAYOUTS = ("naive", "zorder", "hilbert", "multimap")
BASELINES = LAYOUTS[:-1]
#: round index of the set-up requests, never reached by a measured round
WARMUP = 2**32 - 1


@dataclass
class Round:
    """What one round measured.

    ``sim`` maps layout -> the workload's simulated totals; ``counts``
    holds per-layer counters read from the program's reports;
    ``problems`` lists every failed output check.
    """

    host_s: float = 0.0
    ops: int = 0
    failed: int = 0
    sim: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)

    def call(self, fn, n_ops: int = 1):
        """Run one call into the program, covering ``n_ops`` operations,
        inside the host-clock window."""
        self.ops += n_ops
        t0 = perf_counter()
        try:
            out = fn()
        except Exception as exc:  # a failed operation is counted, not fatal
            self.host_s += perf_counter() - t0
            self.failed += n_ops
            self.problems.append(f"{type(exc).__name__}: {exc}")
            return None
        self.host_s += perf_counter() - t0
        return out


def _round_rng(seed: int, r: int, stream: int = 0) -> np.random.Generator:
    return np.random.default_rng([seed, r, stream])


# ----------------------------------------------------------------------
# paper-batch
# ----------------------------------------------------------------------


class PaperBatch:
    """Fig. 6 queries on the figure harness's small-scale chunk.

    (216, 64, 64) keeps Dim0 long enough for the paper's ordering to
    hold (see ``repro.bench.figures.SMALL_SCALE``).  Every round draws
    two beams per axis and one range cube per selectivity; each layout
    runs the same queries from the same head positions.
    """

    name = "paper-batch"
    SHAPE = (216, 64, 64)
    DRIVE = "atlas10k3"
    BEAMS_PER_AXIS = 2
    SELECTIVITIES = (0.1, 1.0)
    SIM_ROUNDS = 16

    def __init__(self, seed: int):
        self.seed = int(seed)
        self.datasets: dict = {}

    def _build(self, layout: str) -> Dataset:
        return Dataset.create(self.SHAPE, layout=layout, drive=self.DRIVE,
                              seed=self.seed)

    def setup(self) -> None:
        """Build every layout and serve one query of each kind, so lazy
        placement and plan tables are paid here, not in round 0."""
        warm = [BeamQuery(axis, (0,) * len(self.SHAPE))
                for axis in range(len(self.SHAPE))]
        warm.append(random_range_cube(self.SHAPE, self.SELECTIVITIES[0],
                                      _round_rng(self.seed, WARMUP)))
        for layout in LAYOUTS:
            ds = self._build(layout)
            ds.run(warm, rng=_round_rng(self.seed, WARMUP, 1))
            self.datasets[layout] = ds

    def queries(self, r: int) -> list:
        rng = _round_rng(self.seed, r)
        qs = [random_beam(self.SHAPE, axis, rng)
              for axis in range(len(self.SHAPE))
              for _ in range(self.BEAMS_PER_AXIS)]
        qs += [random_range_cube(self.SHAPE, s, rng)
               for s in self.SELECTIVITIES]
        return qs

    def round(self, r: int, layouts=LAYOUTS, fresh: bool = False) -> Round:
        out = Round()
        queries = self.queries(r)
        for layout in layouts:
            ds = self._build(layout) if fresh else self.datasets[layout]
            rng = _round_rng(self.seed, r, 1)
            report = out.call(lambda: ds.run(queries, rng=rng),
                              len(queries))
            if report is None:
                continue
            results = [rec.result for rec in report.records]
            if len(results) != len(queries):
                out.problems.append(
                    f"{layout}: {len(results)} results for "
                    f"{len(queries)} queries")
                continue
            for q, res in zip(queries, results):
                want = q.n_cells(self.SHAPE)
                if res.n_cells != want or res.n_blocks < want \
                        or not res.total_ms > 0:
                    out.problems.append(
                        f"{layout}: {q} returned {res.n_cells} cells, "
                        f"{res.n_blocks} blocks, {res.total_ms} ms")
            out.sim[layout] = [
                (res.ms_per_cell, res.total_ms) for res in results
            ]
        return out

    def summarize(self, rounds: list) -> tuple[dict, list]:
        """Simulated metrics and the Fig. 6 ordering checks."""
        n_beams = len(self.SHAPE) * self.BEAMS_PER_AXIS
        per_cell = {l: np.zeros(len(self.SHAPE)) for l in LAYOUTS}
        range_ms = {l: np.zeros(len(self.SELECTIVITIES)) for l in LAYOUTS}
        total = {l: 0.0 for l in LAYOUTS}
        n_ops = 0
        for rd in rounds:
            for layout in LAYOUTS:
                rows = rd.sim[layout]
                for i in range(n_beams):
                    per_cell[layout][i // self.BEAMS_PER_AXIS] += rows[i][0]
                range_ms[layout] += [ms for _, ms in rows[n_beams:]]
                total[layout] += sum(ms for _, ms in rows)
            n_ops += len(rd.sim["multimap"])
        naive, mm = per_cell["naive"], per_cell["multimap"]
        curves = np.minimum(per_cell["zorder"], per_cell["hilbert"])
        problems = []
        # benchmarks/test_fig6_synthetic3d.py asserts the same ordering
        if not mm[0] < 2.0 * naive[0]:
            problems.append("multimap does not stream Dim0")
        if not curves[0] > 10.0 * naive[0]:
            problems.append("curves are not an order slower on Dim0")
        for axis in range(1, len(self.SHAPE)):
            for layout in BASELINES:
                if not mm[axis] < per_cell[layout][axis]:
                    problems.append(
                        f"multimap loses Dim{axis} beams to {layout}")
        if not range_ms["multimap"][0] < range_ms["naive"][0]:
            problems.append(
                f"multimap slower than naive on "
                f"{self.SELECTIVITIES[0]} % ranges")
        metrics = {
            "sim_speedup": float(naive[1:].sum() / mm[1:].sum()),
            "sim_multimap_ms": total["multimap"] / n_ops,
        }
        return metrics, problems


# ----------------------------------------------------------------------
# failover-storm
# ----------------------------------------------------------------------


class FailoverStorm:
    """The failover example's storm, with a seeded kill and revive.

    Three closed-loop clients issue beams along Dim1/Dim2 against a
    3-disk volume holding two copies of every chunk.  Each round picks
    the victim disk, the kill time and the outage length from its seed;
    the revive leaves the datasets healthy for the next round.
    """

    name = "failover-storm"
    SHAPE = (64, 64, 32)
    DRIVE = "atlas10k3"
    N_DISKS = 3
    COPIES = 2
    CLIENTS = 3
    QUERIES = 8
    SLICE_RUNS = 64
    SIM_ROUNDS = 96

    def __init__(self, seed: int):
        self.seed = int(seed)
        self.datasets: dict = {}
        self.mix = QueryMix.beams(1, 2)

    def _build(self, layout: str) -> Dataset:
        return (Dataset.create(self.SHAPE, layout=layout, drive=self.DRIVE,
                               seed=self.seed)
                .with_shards(self.N_DISKS)
                .with_replication(self.COPIES))

    def setup(self) -> None:
        for layout in LAYOUTS:
            ds = self._build(layout)
            ds.traffic().clients(1, mix=self.mix, queries=2).run(
                rng=_round_rng(self.seed, WARMUP))
            self.datasets[layout] = ds

    def round(self, r: int, layouts=LAYOUTS, fresh: bool = False) -> Round:
        out = Round()
        krng = _round_rng(self.seed, r)
        disk = int(krng.integers(self.N_DISKS))
        kill_ms = float(krng.uniform(10.0, 50.0))
        revive_ms = kill_ms + float(krng.uniform(100.0, 300.0))
        n_queries = self.CLIENTS * self.QUERIES
        redispatched = 0
        for layout in layouts:
            ds = self._build(layout) if fresh else self.datasets[layout]
            # park every head as on a freshly built volume: a failed-over
            # sub-plan draws no head position and resumes from whatever
            # the drive holds, so without this a storm would depend on
            # where the previous storm left the heads
            for disk in range(ds.volume.n_disks):
                ds.volume.drive(disk).reset()
            rng = _round_rng(self.seed, r, 1)
            storm = (ds.traffic()
                     .clients(self.CLIENTS, mix=self.mix,
                              queries=self.QUERIES)
                     .slice_runs(self.SLICE_RUNS)
                     .kill(kill_ms, disk, revive_at_ms=revive_ms))
            report = out.call(lambda: storm.run(rng=rng), n_queries)
            if report is None:
                continue
            traces = report.traces
            if len(traces) != n_queries:
                out.problems.append(
                    f"{layout}: {len(traces)}/{n_queries} queries served")
            for tr in traces:
                if tr.n_cells not in self.SHAPE[1:] \
                        or tr.n_blocks < tr.n_cells:
                    out.problems.append(
                        f"{layout}: query {tr.client}#{tr.index} served "
                        f"{tr.n_blocks} blocks for {tr.n_cells} cells")
            served = sum(d.served_blocks for d in report.drives)
            billed = sum(tr.n_blocks for tr in traces)
            if served != billed:
                out.problems.append(
                    f"{layout}: drives served {served} blocks, queries "
                    f"were billed {billed}")
            if report.meta["replicas"]["failed"]:
                out.problems.append(f"{layout}: disk still dead after "
                                    f"the scheduled revive")
            redispatched += report.meta["failures"]["redispatched_subs"]
            out.sim[layout] = (
                billed,
                report.makespan_ms,
                sum(tr.latency_ms for tr in traces),
                sum(tr.queue_ms for tr in traces),
                len(traces),
            )
        out.counts["replica.redispatched_subs"] = redispatched
        out.counts["sim.latency_ms"] = sum(s[2] for s in out.sim.values())
        out.counts["sim.queue_ms"] = sum(s[3] for s in out.sim.values())
        return out

    def summarize(self, rounds: list) -> tuple[dict, list]:
        """Degraded-mode MB/s per layout and the failover example's
        claim that multimap stays ahead of every baseline."""
        mbps = {}
        for layout in LAYOUTS:
            blocks = sum(rd.sim[layout][0] for rd in rounds)
            span_ms = sum(rd.sim[layout][1] for rd in rounds)
            mbps[layout] = blocks * 512 / 1e6 / (span_ms / 1e3)
        problems = [
            f"multimap degraded MB/s {mbps['multimap']:.3f} behind "
            f"{layout} {mbps[layout]:.3f}"
            for layout in BASELINES if not mbps["multimap"] > mbps[layout]
        ]
        latency = sum(rd.sim["multimap"][2] for rd in rounds)
        served = sum(rd.sim["multimap"][4] for rd in rounds)
        metrics = {
            "sim_speedup": mbps["multimap"] / mbps["naive"],
            "sim_multimap_ms": latency / served,
        }
        return metrics, problems


# ----------------------------------------------------------------------
# ingest-reorg
# ----------------------------------------------------------------------


class IngestReorg:
    """The streaming-ingest example, plus reorganisation.

    Each round streams a clustered stream into a fresh 2-disk x 2-copy
    dataset per layout and loader.  The fixed loader chains hot cells
    into overflow pages that the reorganisation folds back; the adaptive
    loader samples the stream and re-chunks first.  Datasets are built
    outside the timed window, because a write run consumes its volume.
    """

    name = "ingest-reorg"
    SHAPE = (32, 8, 8)
    DRIVE = "minidrive"
    N_DISKS = 2
    COPIES = 2
    LOADERS = ("fixed", "adaptive")
    N_POINTS = 2048
    BATCH_POINTS = 256
    FLUSH_POINTS = 512
    SIM_ROUNDS = 64

    def __init__(self, seed: int):
        self.seed = int(seed)

    def _build(self, layout: str, seed: int) -> Dataset:
        return (Dataset.create(self.SHAPE, layout=layout, drive=self.DRIVE,
                               seed=seed)
                .with_shards(self.N_DISKS)
                .with_replication(self.COPIES))

    def setup(self) -> None:
        """Build and warm one dataset per layout and loader."""
        for layout in LAYOUTS:
            for loader in self.LOADERS:
                self._ingest(self._build(layout, self.seed), loader,
                             self.seed, self.BATCH_POINTS)

    def _ingest(self, ds, loader: str, seed: int, n_points: int):
        return ds.ingest(
            stream="clustered", loader=loader, n_points=n_points,
            batch_points=self.BATCH_POINTS, flush_points=self.FLUSH_POINTS,
            seed=seed, reorganize=True,
        ).run()

    def round(self, r: int, layouts=LAYOUTS, fresh: bool = True) -> Round:
        """Every round builds fresh datasets (``fresh`` is always true
        here), since a write run consumes its volume."""
        out = Round()
        seed = int(_round_rng(self.seed, r).integers(2**31))
        n_batches = math.ceil(self.N_POINTS / self.BATCH_POINTS)
        counts = dict.fromkeys(
            ("ingest.flushes", "ingest.blocks_written",
             "ingest.overflow_points", "reorg.pages_freed", "sim.reorg_ms",
             "sim.pipeline_ms"), 0)
        for layout in layouts:
            out.sim[layout] = {}
            for loader in self.LOADERS:
                ds = self._build(layout, seed)
                rep = out.call(
                    lambda: self._ingest(ds, loader, seed, self.N_POINTS),
                    n_batches)
                if rep is None:
                    continue
                tag = f"{layout}/{loader}"
                if rep.n_points != self.N_POINTS \
                        or rep.store["n_points"] != self.N_POINTS:
                    out.problems.append(
                        f"{tag}: streamed {rep.n_points}, stored "
                        f"{rep.store['n_points']} of {self.N_POINTS} points")
                if rep.n_batches != n_batches \
                        or rep.acked_batches != n_batches:
                    out.problems.append(
                        f"{tag}: acked {rep.acked_batches}/{n_batches} "
                        f"batches")
                if rep.blocks_written < self.COPIES * rep.home_blocks \
                        or rep.home_blocks <= 0:
                    out.problems.append(
                        f"{tag}: wrote {rep.blocks_written} blocks for "
                        f"{rep.home_blocks} home blocks x {self.COPIES}")
                if rep.store["overflow_pages"]:
                    out.problems.append(
                        f"{tag}: {rep.store['overflow_pages']} overflow "
                        f"pages left after reorganisation")
                counts["ingest.flushes"] += rep.flushes
                counts["ingest.blocks_written"] += rep.blocks_written
                counts["ingest.overflow_points"] += rep.overflow_points
                counts["sim.pipeline_ms"] += rep.total_ms
                if rep.reorg is not None:
                    counts["reorg.pages_freed"] += rep.reorg["pages_freed"]
                    counts["sim.reorg_ms"] += rep.reorg["reorg_ms"]
                out.sim[layout][loader] = (rep.home_blocks, rep.total_ms)
        out.counts.update(counts)
        return out

    def summarize(self, rounds: list) -> tuple[dict, list]:
        """Goodput per layout and loader, and the streaming-ingest
        example's claims: multimap ahead of every baseline under both
        loaders, and adaptive at least as fast as fixed on multimap."""
        goodput = {}
        for layout in LAYOUTS:
            for loader in self.LOADERS:
                blocks = sum(rd.sim[layout][loader][0] for rd in rounds)
                ms = sum(rd.sim[layout][loader][1] for rd in rounds)
                goodput[layout, loader] = blocks * 512 / 1e6 / (ms / 1e3)
        problems = [
            f"multimap goodput behind {layout} under {loader}"
            for loader in self.LOADERS for layout in BASELINES
            if not goodput["multimap", loader] > goodput[layout, loader]
        ]
        if goodput["multimap", "adaptive"] < goodput["multimap", "fixed"]:
            problems.append("adaptive loader slower than fixed on multimap")

        def total(layout, i):
            return sum(rd.sim[layout][loader][i]
                       for rd in rounds for loader in self.LOADERS)

        speedup = (total("multimap", 0) / total("multimap", 1)) / (
            total("naive", 0) / total("naive", 1))
        metrics = {
            "sim_speedup": speedup,
            "sim_multimap_ms":
                total("multimap", 1) / (len(rounds) * len(self.LOADERS)),
        }
        return metrics, problems


WORKLOADS = {w.name: w for w in (PaperBatch, FailoverStorm, IngestReorg)}
