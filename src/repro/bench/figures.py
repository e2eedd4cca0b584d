"""One regenerator per figure of the paper's evaluation (§5).

Every function returns plain dict/list data (JSON-friendly) with the same
rows/series as the corresponding paper artefact, so the harness can print
paper-style tables and the README's "Deviations from the paper" section
can set them against the published values.  Scale is controlled by a
:class:`Scale` preset: ``paper`` runs the full chunk sizes and sweeps,
``small`` shrinks them for CI runs while preserving each experiment's
structure.

The grid figures (6a, 6b, 8 and the model check) run on one
:class:`~repro.api.Dataset` per layout — fresh identical disks for each,
the paper's fairness condition — so they take the same storage path as
every other workload and EXPLAIN.  Each passes its own generator to
``run``, which draws every query and then its head position from it.
Fig. 7's leaf layouts are not registered layouts, so those figures
service their plans on the drive directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analytic.model import AnalyticModel, DriveParameters
from repro.datasets.earthquake import EarthquakeDataset, build_leaf_layouts
from repro.datasets.grid import MAPPER_ORDER
from repro.datasets.olap import OLAP_CHUNK_DIMS, paper_olap_queries
from repro.disk import AdjacencyModel, DiskDrive, paper_disks
from repro.disk.characterize import measure_seek_profile
from repro.query.scheduler import DEFAULT_WINDOW

__all__ = [
    "Scale",
    "PAPER_SCALE",
    "SMALL_SCALE",
    "fig1a_seek_profile",
    "fig1b_semi_sequential",
    "fig6a_beam",
    "fig6b_range",
    "fig7a_beam",
    "fig7b_range",
    "fig8_olap",
    "headline_summary",
]


@dataclass(frozen=True)
class Scale:
    """Experiment sizing preset."""

    name: str
    chunk_dims: tuple[int, int, int]
    selectivities: tuple[float, ...]
    beam_runs: int
    range_runs: int
    quake_depth: int
    quake_selectivities: tuple[float, ...]
    olap_chunk: tuple[int, int, int, int]
    olap_runs: int


PAPER_SCALE = Scale(
    name="paper",
    chunk_dims=(259, 259, 259),
    selectivities=(0.01, 0.1, 1.0, 5.0, 10.0, 20.0, 40.0, 60.0, 80.0, 100.0),
    beam_runs=15,
    range_runs=3,
    quake_depth=7,
    quake_selectivities=(0.05, 0.2, 0.6),
    olap_chunk=OLAP_CHUNK_DIMS,
    olap_runs=5,
)

# The small preset shrinks cell counts but keeps the Dim0 extent large
# enough that Naive's stride waits stay above one settle time — below
# that, the qualitative ordering of the paper inverts (a 96-sector stride
# rotates past in less time than a head settle, which 259-cell chunks
# never exhibit).
SMALL_SCALE = Scale(
    name="small",
    chunk_dims=(216, 64, 64),
    selectivities=(0.1, 1.0, 10.0, 100.0),
    beam_runs=3,
    range_runs=2,
    quake_depth=5,
    quake_selectivities=(0.2, 0.6),
    olap_chunk=(296, 38, 25, 25),
    olap_runs=2,
)


def get_scale(name: str) -> Scale:
    if name == "paper":
        return PAPER_SCALE
    if name == "small":
        return SMALL_SCALE
    raise ValueError(f"unknown scale {name!r}")


def _models():
    return {m.name: m for m in paper_disks()}


# ---------------------------------------------------------------------
# Figure 1
# ---------------------------------------------------------------------

def fig1a_seek_profile(samples: int = 3) -> dict:
    """Figure 1(a): seek time vs cylinder distance for both disks."""
    out = {}
    for name, model in _models().items():
        curve = measure_seek_profile(DiskDrive(model), samples=samples)
        out[name] = {
            "distance": [m.distance_cylinders for m in curve],
            "seek_ms": [round(m.seek_ms, 4) for m in curve],
            "settle_ms": model.mechanics.settle_ms,
            "settle_cylinders": model.mechanics.settle_cylinders,
        }
    return out


def fig1b_semi_sequential(n: int = 300, seed: int = 7) -> dict:
    """Figure 1(b) & §3.2: semi-sequential vs nearby vs random access.

    The paper's claim: semi-sequential access (successive adjacent blocks)
    outperforms nearby access within D tracks "by a factor of four" and is
    the second-best pattern after sequential.
    """
    out = {}
    for name, model in _models().items():
        adj = AdjacencyModel.for_model(model)
        geom = model.geometry
        rng = np.random.default_rng(seed)

        drive = DiskDrive(model)
        path = adj.semi_sequential_path(0, n, 1)
        semi = drive.service_lbns(path, policy="fifo").total_ms / n

        drive = DiskDrive(model)
        start_track = geom.track_of(0)
        tracks = start_track + rng.integers(1, adj.D, size=n)
        sectors = rng.integers(0, geom.track_length(0), size=n)
        nearby = (
            drive.service_lbns(
                geom.lbns_from(tracks, sectors), policy="fifo"
            ).total_ms
            / n
        )

        drive = DiskDrive(model)
        random_lbns = rng.integers(0, geom.n_lbns, size=n)
        rand = drive.service_lbns(random_lbns, policy="fifo").total_ms / n

        drive = DiskDrive(model)
        drive.service(0)
        seq = drive.service(1, nblocks=n).total_ms / n

        out[name] = {
            "sequential_ms": round(seq, 5),
            "semi_sequential_ms": round(semi, 4),
            "nearby_within_D_ms": round(nearby, 4),
            "random_ms": round(rand, 4),
            "nearby_over_semi": round(nearby / semi, 2),
        }
    return out


# ---------------------------------------------------------------------
# Figure 6: synthetic 3-D dataset
# ---------------------------------------------------------------------

def _grid_datasets(shape, model, layouts=MAPPER_ORDER) -> dict:
    """One dataset per layout, each on its own fresh disk of ``model``."""
    # imported here: repro.api loads repro.bench for its report tables
    from repro.api import Dataset

    return {name: Dataset.create(shape, name, model) for name in layouts}


def fig6a_beam(scale: Scale = PAPER_SCALE, seed: int = 42) -> dict:
    """Figure 6(a): beam queries per dimension, avg I/O time per cell."""
    out = {}
    for disk_name, model in _models().items():
        datasets = _grid_datasets(scale.chunk_dims, model)
        per_mapper = {}
        for mname, ds in datasets.items():
            axes = {}
            for axis in range(len(scale.chunk_dims)):
                rng = np.random.default_rng(seed + axis)
                report = ds.random_beams(axis, scale.beam_runs).run(rng=rng)
                axes[f"dim{axis}"] = round(report.mean("ms_per_cell"), 4)
            per_mapper[mname] = axes
        out[disk_name] = per_mapper
    return out


def fig6b_range(scale: Scale = PAPER_SCALE, seed: int = 99) -> dict:
    """Figure 6(b): range-query speedup relative to Naive vs selectivity."""
    out = {}
    for disk_name, model in _models().items():
        datasets = _grid_datasets(scale.chunk_dims, model)
        totals: dict[str, dict[float, float]] = {m: {} for m in datasets}
        for sel in scale.selectivities:
            for mname, ds in datasets.items():
                rng = np.random.default_rng(seed)
                report = (ds.range_selectivity(sel)
                          .repeats(scale.range_runs).run(rng=rng))
                totals[mname][sel] = report.mean("total_ms")
        speedups = {
            mname: {
                sel: round(totals["naive"][sel] / t, 3)
                for sel, t in series.items()
            }
            for mname, series in totals.items()
        }
        out[disk_name] = {
            "speedup_vs_naive": speedups,
            "naive_total_ms": {
                sel: round(t, 1) for sel, t in totals["naive"].items()
            },
        }
    return out


# ---------------------------------------------------------------------
# Figure 7: earthquake dataset
# ---------------------------------------------------------------------

def _quake_setup(scale: Scale):
    dataset = EarthquakeDataset(depth=scale.quake_depth)
    layouts = {}
    for disk_name, model in _models().items():
        layouts[disk_name] = build_leaf_layouts(
            dataset, lambda m=model: m
        )
    return dataset, layouts


def fig7a_beam(scale: Scale = PAPER_SCALE, seed: int = 11) -> dict:
    """Figure 7(a): earthquake beams along X/Y/Z, per-cell I/O time."""
    dataset, all_layouts = _quake_setup(scale)
    out = {"n_elements": dataset.n_elements,
           "top2_region_coverage": round(dataset.region_coverage(2), 3)}
    for disk_name, layouts in all_layouts.items():
        per_mapper = {}
        for mname, layout in layouts.items():
            axes = {}
            for axis, label in enumerate("XYZ"):
                rng = np.random.default_rng(seed + axis)
                vals = []
                for _ in range(scale.beam_runs):
                    leaves = dataset.beam_leaves(axis, rng)
                    if leaves.size == 0:
                        continue
                    plan = layout.plan_for_leaves(leaves, for_beam=True)
                    # a LeafLayout is not a Mapper; execute via the drive
                    drive = layout.volume.drive(layout.disk)
                    drive.randomize_position(rng)
                    res = drive.service_runs(
                        plan.starts, plan.lengths, policy=plan.policy,
                        window=DEFAULT_WINDOW,
                    )
                    vals.append(res.total_ms / leaves.size)
                axes[label] = round(float(np.mean(vals)), 4)
            per_mapper[mname] = axes
        out[disk_name] = per_mapper
    return out


def fig7b_range(scale: Scale = PAPER_SCALE, seed: int = 13) -> dict:
    """Figure 7(b): earthquake range queries, total I/O time.

    The paper sweeps 0.0001-0.003% of its 114 M elements (hundreds to a
    few thousand elements); our synthetic stand-in has fewer elements, so
    the selectivities are scaled to touch comparable element counts — the
    `elements` field records how many each query actually fetched.
    """
    dataset, all_layouts = _quake_setup(scale)
    out = {"n_elements": dataset.n_elements}
    for disk_name, layouts in all_layouts.items():
        per_mapper: dict = {}
        counts = {}
        for mname, layout in layouts.items():
            series = {}
            for sel in scale.quake_selectivities:
                rng = np.random.default_rng(seed)
                vals = []
                nleaves = []
                for _ in range(scale.range_runs):
                    leaves = dataset.range_leaves(sel, rng)
                    if leaves.size == 0:
                        continue
                    nleaves.append(leaves.size)
                    plan = layout.plan_for_leaves(leaves)
                    drive = layout.volume.drive(layout.disk)
                    drive.randomize_position(rng)
                    res = drive.service_runs(
                        plan.starts, plan.lengths, policy=plan.policy,
                        window=DEFAULT_WINDOW,
                    )
                    vals.append(res.total_ms)
                series[sel] = round(float(np.mean(vals)), 2)
                counts[sel] = int(np.mean(nleaves))
            per_mapper[mname] = series
        out[disk_name] = per_mapper
        out["elements_fetched"] = counts
    return out


# ---------------------------------------------------------------------
# Figure 8: OLAP dataset
# ---------------------------------------------------------------------

def fig8_olap(scale: Scale = PAPER_SCALE, seed: int = 23) -> dict:
    """Figure 8: the five OLAP queries, avg I/O time per cell."""
    out = {}
    for disk_name, model in _models().items():
        datasets = _grid_datasets(scale.olap_chunk, model)
        per_mapper = {}
        for mname, ds in datasets.items():
            series = {}
            for run in range(scale.olap_runs):
                rng = np.random.default_rng(seed + run)
                queries = paper_olap_queries(scale.olap_chunk, rng)
                report = ds.run(list(queries.values()), rng=rng)
                for qname, res in zip(queries, report.results):
                    series.setdefault(qname, []).append(res.ms_per_cell)
            per_mapper[mname] = {
                q: round(float(np.mean(v)), 4) for q, v in series.items()
            }
        out[disk_name] = per_mapper
    return out


# ---------------------------------------------------------------------
# headline claims (abstract / §5 text)
# ---------------------------------------------------------------------

def headline_summary(fig6a: dict, fig6b: dict) -> dict:
    """Aggregate the abstract's claims from measured figure data."""
    out = {}
    for disk in fig6a:
        beams = fig6a[disk]
        speedups = fig6b[disk]["speedup_vs_naive"]
        non_primary = [
            beams["naive"][d] / beams["multimap"][d]
            for d in beams["naive"]
            if d != "dim0"
        ]
        curve_dim0 = min(
            beams["zorder"]["dim0"], beams["hilbert"]["dim0"]
        )
        out[disk] = {
            "beam_speedup_vs_naive_nonprimary": round(
                float(np.mean(non_primary)), 2
            ),
            "dim0_streaming_advantage_vs_curves": round(
                curve_dim0 / beams["multimap"]["dim0"], 1
            ),
            "max_range_speedup_multimap": max(
                speedups["multimap"].values()
            ),
            "max_range_speedup_zorder": max(speedups["zorder"].values()),
            "max_range_speedup_hilbert": max(speedups["hilbert"].values()),
            "min_range_speedup_multimap": min(
                speedups["multimap"].values()
            ),
        }
    return out


# ---------------------------------------------------------------------
# analytic-model validation (§5's cost model)
# ---------------------------------------------------------------------

def model_validation(scale: Scale = SMALL_SCALE, seed: int = 5) -> dict:
    """Compare the analytic model's predictions against the simulator."""
    out = {}
    dims = scale.chunk_dims
    for disk_name, model in _models().items():
        params = DriveParameters.from_model(model)
        analytic = AnalyticModel(params)
        datasets = _grid_datasets(dims, model, ("naive", "multimap"))
        rows = {}
        for mname, ds in datasets.items():
            for axis in range(3):
                rng = np.random.default_rng(seed)
                sim = ds.random_beams(axis, 1).run(rng=rng).total_ms
                if mname == "naive":
                    pred = analytic.naive_beam_ms(dims, axis)
                else:
                    pred = analytic.multimap_beam_ms(dims, axis,
                                                     ds.mapper.K)
                rows[f"{mname}_beam_dim{axis}"] = {
                    "simulated_ms": round(sim, 2),
                    "predicted_ms": round(pred, 2),
                    "ratio": round(pred / sim, 3) if sim else None,
                }
        out[disk_name] = rows
    return out
