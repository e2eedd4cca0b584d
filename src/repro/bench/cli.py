"""Command-line entry point: ``python -m repro.bench`` / ``repro-bench``
(also installed as ``multimap-bench``).

Ten modes: without a subcommand it regenerates the paper figures
(``--figure``, ``--scale``).  Five subcommands are layout sweeps, each
the paper's §5 comparison carried over to one more layer:

``traffic``    layouts x client counts under a seeded storm
               (:mod:`repro.traffic`)
``cache``      layouts x buffer-pool capacities (:mod:`repro.cache`)
``scale``      layouts x shard counts (:mod:`repro.shard`)
``avail``      layouts x replication factors under a seeded disk
               failure (:mod:`repro.replica`)
``ingest``     layouts x bulk loaders, write goodput (:mod:`repro.ingest`)

and four run one job each:

``perf``       plan-preparation throughput per layout; ``--check`` gates
               it against a pinned baseline such as ``BENCH_perf.json``
               and exits 1 on regression (:mod:`repro.perf.sweep`)
``trace``      one telemetry-attached storm: slowest queries, phase
               totals, per-disk utilisation; ``--trace-out`` writes the
               span trace as Chrome JSON (:mod:`repro.obs.trace_cmd`)
``explain``    a query's plan and predicted cost per layout;
               ``--analyze`` reconciles it against one execution,
               ``--model`` prints the analytic model (:mod:`repro.explain`)
``diff``       compares two exported run reports, exiting 1 on a
               regression; ``--attribute`` ranks the suspects
               (:mod:`repro.bench.diff`)

The sweeps share one engine (:mod:`repro.bench.sweep`), one main
(``_sweep_main``, driven by the ``_SWEEPS`` table below) and one parser
helper for the flags they share: ``--shape``, ``--layouts``,
``--drive``, ``--seed``, ``--json`` and ``--quiet``, plus ``--beams``
and ``--axes`` for the beam workloads of ``cache``, ``scale`` and
``avail``.  Every other flag of a sweep is named after its runner's
keyword.  ``traffic`` and ``trace`` share the storm workload flags
(``_STORM_KEYS``): both storm runners
(:func:`repro.traffic.storm.run_storm` and
:func:`repro.traffic.storm.run_one_storm`) take them by name.
``diff``, ``diff --attribute`` and ``perf --check`` share one band rule
(:func:`repro.bench.diff.band_score`).  The ``--list-*`` flags (one
per registry, driven by the ``_LISTINGS`` table below) print the
registered names with descriptions and exit.

Examples::

    repro-bench --list-layouts --list-drives --list-prefetchers
    repro-bench --scale small --figure fig6a
    repro-bench --scale paper --out results/
    repro-bench traffic --shape 64,64,32 --clients 1,2,4 --queries 10
    repro-bench traffic --arrival poisson --rate 50 --json storm.json
    repro-bench cache --shape 32,16,16 --capacities 0,1024,4096
    repro-bench cache --prefetch none --json curve.json
    repro-bench scale --shape 64,64,32 --shards 1,2,4,8
    repro-bench scale --strategy round_robin --json scale.json
    repro-bench avail --shape 64,16,16 --disks 3 --ks 1,2,3
    repro-bench avail --kill-disk 0 --json avail.json
    repro-bench --list-loaders --list-streams
    repro-bench ingest --shape 64,16,16 --stream clustered --k 2
    repro-bench ingest --loaders fixed,adaptive --json ingest.json
    repro-bench perf --json BENCH_perf.json
    repro-bench perf --check BENCH_perf.json --json results/perf.json
    repro-bench trace --shape 24,12,12 --drive minidrive --json run_a.json
    repro-bench trace --shape 24,12,12 --trace-out results/trace.json
    repro-bench diff run_a.json run_b.json --tolerance 0.05
    repro-bench --list-costs
    repro-bench explain --shape 240,12,12 --layouts multimap,zorder
    repro-bench explain --axis 1 --analyze --model --json explain.json
    repro-bench diff run_a.json run_b.json --attribute
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro.bench.harness import FIGURES, run_all
from repro.errors import QueryError
from repro.traffic.arrivals import ARRIVALS, ClosedLoop, PoissonArrivals
from repro.traffic.clients import BeamDraw, QueryMix

__all__ = ["main"]


def _write_json_report(dest: str, data: dict, default_name: str,
                       quiet: bool) -> Path:
    """Shared ``--json`` writer for report subcommands.

    ``dest`` may be a ``.json`` file path or a directory (the payload
    then lands in ``dest/default_name``); parents are created either
    way and the resolved path is announced unless ``quiet``.
    """
    path = Path(dest)
    if path.suffix != ".json":
        path.mkdir(parents=True, exist_ok=True)
        path = path / default_name
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, indent=2, default=str))
    if not quiet:
        print(f"\nsaved {path}")
    return path


def _emit(args, data: dict, render, default_name: str) -> int:
    """Print ``render(data)`` unless ``--quiet``, then write ``--json``;
    returns the exit code."""
    if not args.quiet:
        print(render(data))
    if args.json:
        _write_json_report(args.json, data, default_name, args.quiet)
    return 0


def _int_at_least(text: str, low: int, what: str) -> int:
    """``text`` as an integer of at least ``low``; anything else exits 2
    through argparse with a message naming ``what`` it must be."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer, got {text!r}"
        ) from None
    if value < low:
        raise argparse.ArgumentTypeError(
            f"must be a {what} integer, got {value}"
        )
    return value


def _positive_int(text: str) -> int:
    """Argparse type for counts that must be >= 1 (a zero or negative
    value would silently render an empty table or fail mid-run)."""
    return _int_at_least(text, 1, "positive")


def _nonnegative_int(text: str) -> int:
    """Argparse type for an integer >= 0: a seed, a disk or axis index,
    or a count where 0 means none (``--slice-runs 0`` is whole queries,
    ``--cache-blocks 0`` no pool)."""
    return _int_at_least(text, 0, "non-negative")


def _csv_ints(text: str) -> tuple[int, ...]:
    """Argparse type for comma-separated integers (``16,8,8``); a bad
    entry exits 2 with a usage message instead of a traceback."""
    try:
        return tuple(int(v) for v in text.split(",") if v)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None


def _csv_ints_at_least(text: str, low: int,
                       what: str) -> tuple[int, ...]:
    """``text`` as comma-separated integers, each at least ``low``."""
    values = _csv_ints(text)
    for value in values:
        if value < low:
            raise argparse.ArgumentTypeError(
                f"each entry must be a {what} integer, got {value}"
            )
    return values


def _csv_positive_ints(text: str) -> tuple[int, ...]:
    """Argparse type for comma-separated counts or dims, each >= 1."""
    return _csv_ints_at_least(text, 1, "positive")


def _csv_nonnegative_ints(text: str) -> tuple[int, ...]:
    """Argparse type for comma-separated integers, each >= 0 (pool
    capacities, where 0 is the uncached baseline)."""
    return _csv_ints_at_least(text, 0, "non-negative")


def _sweep_values(parse):
    """Argparse type for a swept list: ``parse(text)``, refused unless it
    holds at least one value and no value twice, as
    :func:`repro.bench.sweep.run_sweep` requires."""

    def check(text: str) -> tuple:
        values = parse(text)
        if not values or len(set(values)) < len(values):
            raise argparse.ArgumentTypeError(
                f"a sweep needs distinct values, at least one; got {text!r}"
            )
        return values

    return check


def _csv_strs(text: str) -> tuple[str, ...]:
    return tuple(v.strip() for v in text.split(",") if v.strip())


def _parse_mix(text: str):
    """``beam:1,beam:2,range:1.0`` -> :class:`QueryMix`, each part
    checked as :meth:`QueryMix.beams` / :meth:`QueryMix.ranges` check
    theirs (an axis of at least 0, a selectivity in (0, 100]); whether
    an axis fits ``--shape`` is checked once both are parsed
    (:func:`_check_mix_axes`)."""
    parts = []
    for item in _csv_strs(text):
        kind, _, arg = item.partition(":")
        try:
            if kind == "beam":
                parts += QueryMix.beams(int(arg)).parts
            elif kind == "range":
                parts += QueryMix.ranges(float(arg)).parts
            else:
                raise ValueError(kind)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"mix parts are beam:<axis> or range:<pct>; got {item!r}"
            ) from None
        except QueryError as exc:
            raise argparse.ArgumentTypeError(f"{item!r}: {exc}") from None
    if not parts:
        raise argparse.ArgumentTypeError(
            "mix needs at least one beam:<axis> or range:<pct> part"
        )
    return QueryMix(parts)


def _check_mix_axes(p, args) -> None:
    """Exit 2 through parser ``p`` when a ``--mix`` beam axis is not an
    axis of ``--shape`` (the storm would raise at its first draw)."""
    ndim = len(args.shape)
    for part in args.mix.parts:
        if isinstance(part, BeamDraw) and part.axis >= ndim:
            p.error(f"argument --mix: beam:{part.axis} is not an axis of "
                    f"the {ndim}-D --shape {args.shape}")


def _arrival_value(model, field: str):
    """Argparse type for a storm flag that becomes arrival ``model``'s
    ``field``, checked as that model checks it: ``--rate`` as
    :class:`PoissonArrivals`'s ``rate_qps``, ``--think-ms`` as
    :class:`ClosedLoop`'s ``think_ms``."""

    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected a number, got {text!r}"
            ) from None
        try:
            model(**{field: value})
        except QueryError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value

    return parse


def _add_output_flags(p, quiet_help: str = "suppress table output") -> None:
    """``--json`` and ``--quiet``, the flags every report subcommand
    shares."""
    p.add_argument("--json", default=None,
                   help="JSON output file (or directory)")
    p.add_argument("--quiet", action="store_true", help=quiet_help)


#: the storm workload flags, named after the keywords both storm runners
#: take: :func:`repro.traffic.storm.run_storm` (``traffic``) and
#: :func:`repro.traffic.storm.run_one_storm` (``trace``)
_STORM_KEYS = ("clients", "queries", "mix", "arrival", "rate", "think_ms",
               "slice_runs")


def _add_storm_flags(p, *, sweep: bool, clients, queries: int) -> None:
    """The storm workload flags (:data:`_STORM_KEYS`).  ``traffic``
    sweeps layouts x client counts (``sweep``: ``clients`` is a
    comma-separated list, and :func:`_add_sweep_parser` adds the dataset
    flags); ``trace`` runs one storm on one layout.  Client and query
    counts are at least 1 (no client count swept twice) and
    ``--slice-runs`` at least 0, checked while parsing."""
    if sweep:
        p.add_argument("--clients", default=clients,
                       type=_sweep_values(_csv_positive_ints),
                       help="comma-separated client counts to sweep")
    else:
        p.add_argument("--shape", default="64,64,32",
                       type=_csv_positive_ints,
                       help="dataset dims, comma-separated (default "
                       "64,64,32)")
        p.add_argument("--layout", default="multimap",
                       help="registered layout (default multimap)")
        p.add_argument("--drive", default="atlas10k3",
                       help="registered drive model (default atlas10k3)")
        p.add_argument("--seed", type=_nonnegative_int, default=42,
                       help="base seed; every client stream derives from "
                       "it")
        p.add_argument("--clients", type=_positive_int, default=clients,
                       help=f"concurrent clients (default {clients})")
    p.add_argument("--queries", type=_positive_int, default=queries,
                   help=f"queries per client (default {queries})")
    p.add_argument("--mix", default=None, type=_parse_mix,
                   help="query mix, e.g. 'beam:1,beam:2,range:1.0' "
                   "(default: beams over axes 1..n-1)")
    p.add_argument("--arrival", choices=ARRIVALS, default="closed",
                   help="arrival model (default closed)")
    p.add_argument("--think-ms", default=0.0,
                   type=_arrival_value(ClosedLoop, "think_ms"),
                   help="closed-loop think time in ms")
    p.add_argument("--rate", default=50.0,
                   type=_arrival_value(PoissonArrivals, "rate_qps"),
                   help="per-client poisson rate (q/s)")
    p.add_argument("--slice-runs", type=_nonnegative_int, default=64,
                   help="runs per service slice; 0 = whole query per "
                   "batch (default 64)")


def _storm_kwargs(args) -> dict:
    return {key: getattr(args, key)
            for key in ("layout", "drive", "seed") + _STORM_KEYS}


#: the sweep subcommands: name -> (module, runner, renderer).  Every
#: runner is one :func:`repro.bench.sweep.run_sweep` over the layouts
#: and one swept value.
_SWEEPS = {
    "traffic": ("repro.traffic", "run_storm", "render_storm"),
    "cache": ("repro.cache", "run_cache_sweep", "render_cache_sweep"),
    "scale": ("repro.shard", "run_scale_sweep", "render_scale_sweep"),
    "avail": ("repro.replica", "run_avail_sweep", "render_avail_sweep"),
    "ingest": ("repro.ingest", "run_ingest_sweep", "render_ingest_sweep"),
}


def _sweep_main(args) -> int:
    """Run a sweep subcommand: its runner gets ``--shape`` and the flags
    ``args.sweep_keys`` names, its renderer prints the result."""
    from importlib import import_module

    module, run, render = _SWEEPS[args.command]
    module = import_module(module)
    data = getattr(module, run)(
        args.shape, **{key: getattr(args, key) for key in args.sweep_keys}
    )
    return _emit(args, data, getattr(module, render),
                 f"{args.command}.json")


def _add_sweep_parser(subparsers, name: str, keys, *,
                      shape: str = "64,64,32", drive: str = "atlas10k3",
                      beams: int | None = None, axes: str | None = None,
                      seed_help: str = "workload + head-position seed",
                      **parser_kw):
    """The parser of sweep subcommand ``name``, holding the flags every
    sweep shares: ``--shape``, ``--layouts``, ``--drive``, ``--seed``,
    ``--json`` and ``--quiet``, and with ``beams`` also ``--beams`` and
    ``--axes`` (default ``axes``, else every non-streaming axis).  The
    caller adds the sweep's own flags, each with its runner keyword as
    ``dest``, and lists those keywords in ``keys``."""
    p = subparsers.add_parser(name, **parser_kw)
    p.add_argument("--shape", default=shape, type=_csv_positive_ints,
                   help=f"dataset dims, comma-separated (default {shape})")
    p.add_argument("--layouts", default="naive,zorder,hilbert,multimap",
                   type=_sweep_values(_csv_strs),
                   help="comma-separated registered layouts")
    p.add_argument("--drive", default=drive,
                   help=f"registered drive model (default {drive})")
    p.add_argument("--seed", type=_nonnegative_int, default=42,
                   help=seed_help)
    keys = ("layouts", "drive", "seed") + tuple(keys)
    if beams is not None:
        p.add_argument("--beams", dest="n_beams", type=_positive_int,
                       default=beams,
                       help=f"beams in the workload (default {beams})")
        p.add_argument("--axes", default=axes, type=_csv_ints,
                       help="beam axes, cycled (default: "
                       f"{axes or 'every non-streaming axis'})")
        keys += ("n_beams", "axes")
    _add_output_flags(p)
    p.set_defaults(func=_sweep_main, sweep_keys=keys)
    return p


def _add_traffic_parser(subparsers) -> None:
    p = _add_sweep_parser(
        subparsers, "traffic", _STORM_KEYS,
        seed_help="base seed; every client stream derives from it",
        help="multi-client traffic storm across layouts",
        description="Sweep layouts x client counts under a seeded "
        "concurrent workload and report throughput and latency "
        "percentiles per mapping.",
    )
    _add_storm_flags(p, sweep=True, clients="1,2,4,8", queries=20)


def _add_cache_parser(subparsers) -> None:
    p = _add_sweep_parser(
        subparsers, "cache",
        ("capacities", "prefetch", "repeats", "region_frac"),
        shape="120,16,16", drive="minidrive", beams=16, axes="1",
        help="hit-ratio-vs-capacity sweep per layout",
        description="Replay a seeded overlapping-beam workload against "
        "each layout at rising buffer-pool capacities and report the "
        "cache hit ratio, prefetch accuracy, and query timings — the "
        "memory half of MultiMap's locality dividend.  The default shape "
        "fills whole minidrive tracks along dim 0.",
    )
    p.add_argument("--capacities", default="0,4096,12288,24576",
                   type=_sweep_values(_csv_nonnegative_ints),
                   help="comma-separated pool capacities in blocks "
                   "(0 = uncached baseline)")
    p.add_argument("--prefetch", default="track",
                   help="prefetcher (none, track, or registered)")
    p.add_argument("--repeats", type=_positive_int, default=3,
                   help="rounds over the same beams (default 3)")
    p.add_argument("--region", dest="region_frac", type=float, default=0.4,
                   help="fraction of each dim beam anchors cluster in")


def _add_scale_parser(subparsers) -> None:
    p = _add_sweep_parser(
        subparsers, "scale", ("shard_counts", "strategy", "split_axis"),
        beams=12,
        help="speedup-vs-disks sweep per layout",
        description="Replay a seeded beam workload against each layout "
        "at rising shard counts (chunks declustered across member disks,"
        " queries serviced scatter-gather) and report throughput and "
        "speedup per mapping — the multi-disk half of MultiMap's "
        "locality dividend.",
    )
    p.add_argument("--shards", dest="shard_counts", default="1,2,4",
                   type=_sweep_values(_csv_positive_ints),
                   help="comma-separated shard counts to sweep")
    p.add_argument("--strategy", default="disk_modulo",
                   help="registered declustering strategy "
                   "(round_robin, disk_modulo, ...)")
    p.add_argument("--split-axis", type=int, default=1,
                   help="axis the chunking slabs (default 1)")


def _add_avail_parser(subparsers) -> None:
    p = _add_sweep_parser(
        subparsers, "avail",
        ("ks", "n_disks", "kill_disk"),
        shape="64,16,16", beams=8,
        seed_help="workload + head-position + victim seed",
        help="availability/overhead-vs-k sweep per layout",
        description="Replay a seeded beam workload against each layout "
        "at rising replication factors, healthy and with one seeded "
        "member-disk failure, and report throughput in both modes plus "
        "single-failure availability — the fault-tolerance half of "
        "MultiMap's locality dividend.",
    )
    p.add_argument("--ks", default="1,2,3",
                   type=_sweep_values(_csv_positive_ints),
                   help="comma-separated replication factors to sweep")
    p.add_argument("--disks", dest="n_disks", type=_positive_int,
                   default=3,
                   help="member disks (>= max k, default 3)")
    p.add_argument("--kill-disk", type=_nonnegative_int, default=None,
                   help="member disk to kill (default: seeded draw)")


def _add_ingest_parser(subparsers) -> None:
    p = _add_sweep_parser(
        subparsers, "ingest",
        ("loaders", "stream", "n_points", "batch_points", "flush_points",
         "n_shards", "k", "strategy", "reorganize"),
        shape="64,16,16", drive="minidrive",
        seed_help="stream + head-position seed",
        help="ingest-MB/s sweep, layouts x loaders",
        description="Stream a seeded record stream into each layout "
        "under each registered bulk loader (buffered, flushed as whole "
        "basic cubes, replica-consistent) and report write goodput and "
        "overflow per mapping — the write-path half of MultiMap's "
        "locality dividend.",
    )
    p.add_argument("--loaders", default="fixed,adaptive",
                   type=_sweep_values(_csv_strs),
                   help="comma-separated registered loaders")
    p.add_argument("--stream", default="clustered",
                   help="registered record stream (uniform, clustered)")
    p.add_argument("--points", dest="n_points", type=_positive_int,
                   default=4096,
                   help="points streamed per cell (default 4096)")
    p.add_argument("--batch-points", type=_positive_int, default=256,
                   help="points per arriving batch (default 256)")
    p.add_argument("--flush-points", type=_positive_int, default=1024,
                   help="per-disk backlog that triggers a flush")
    p.add_argument("--shards", dest="n_shards", type=_positive_int,
                   default=2,
                   help="member disks (default 2)")
    p.add_argument("--k", type=_positive_int, default=1,
                   help="replication factor (default 1)")
    p.add_argument("--strategy", default="disk_modulo",
                   help="registered declustering strategy")
    p.add_argument("--reorganize", action="store_true",
                   help="fold overflow chains back after the stream "
                   "(modelled background I/O counted in total time)")


#: one row per registry the CLI can list: (argparse dest, printed
#: title, defining module, registry attribute, --help text).  Both the
#: flag definitions in :func:`main` and :func:`_list_registries` are
#: generated from this table, so adding a registry is one line here.
_LISTINGS = (
    ("list_layouts", "layouts", "repro.api.registry", "LAYOUTS",
     "print registered layout names and exit"),
    ("list_drives", "drives", "repro.api.registry", "DRIVES",
     "print registered drive-model names and exit"),
    ("list_strategies", "strategies", "repro.lvm.striping", "STRATEGIES",
     "print registered declustering strategies and exit"),
    ("list_prefetchers", "prefetchers", "repro.cache", "PREFETCHERS",
     "print registered cache prefetchers and exit"),
    ("list_loaders", "bulk loaders", "repro.ingest", "LOADERS",
     "print registered bulk loaders and exit"),
    ("list_streams", "record streams", "repro.ingest", "STREAMS",
     "print registered record streams and exit"),
    ("list_costs", "dominant-cost classes", "repro.explain",
     "COST_CLASSES",
     "print the dominant-cost classifier's classes and exit"),
)


def _list_registries(args) -> bool:
    """Print the requested registry listings; True if any were asked.

    :class:`~repro.registry.DocsView` resolves each entry's description
    uniformly (``.description`` attribute, else the registrant's
    docstring first line), and ``Registry.items()`` sorts by name, so
    every section prints identically to its hand-written predecessor.
    """
    from importlib import import_module

    from repro.registry import DocsView

    sections = []
    for dest, kind, module, attr, _ in _LISTINGS:
        if not getattr(args, dest):
            continue
        registry = getattr(import_module(module), attr)
        docs = DocsView(registry)
        sections.append((kind, [(name, docs[name]) for name in registry]))
    for kind, rows in sections:
        print(f"registered {kind}:")
        width = max((len(name) for name, _ in rows), default=0)
        for name, desc in rows:
            print(f"  {name:<{width}}  {desc}")
    return bool(sections)


def _perf_main(args) -> int:
    from repro.errors import BenchmarkError
    from repro.bench.diff import load_report
    from repro.perf import check_perf, render_perf_sweep, run_perf_sweep

    baseline = (load_report(args.check, BenchmarkError)
                if args.check else None)
    data = run_perf_sweep(
        args.shape,
        layouts=_csv_strs(args.layouts),
        drive=args.drive,
        n_beams=args.beams,
        n_ranges=args.ranges,
        selectivity_pct=args.selectivity,
        full_ranges=args.full_ranges,
        repeats=args.repeats,
        ref_plans=args.ref_plans,
        ref_cell_cap=args.ref_cell_cap,
        seed=args.seed,
    )
    _emit(args, data, render_perf_sweep, "perf.json")
    if args.check:
        violations = check_perf(
            data, baseline,
            tolerance=args.tolerance,
            throughput_tolerance=args.throughput_tolerance,
        )
        if violations:
            print(f"perf check FAILED against {args.check}:")
            for v in violations:
                print(f"  {v}")
            return 1
        if not args.quiet:
            print(f"perf check passed against {args.check}")
    return 0


def _add_perf_parser(subparsers) -> None:
    p = subparsers.add_parser(
        "perf",
        help="plan-preparation throughput sweep per layout",
        description="Replay a seeded beam+range workload through each "
        "layout's vectorized plan-preparation fast path and report "
        "plans/s, cells/s, the prep-vs-service split, and the speedup "
        "over the pure-Python per-cell reference (asserted bit-identical"
        " before timing is trusted).  With --check, gate the numbers "
        "against a pinned baseline JSON and exit 1 on regression.",
    )
    p.add_argument("--shape", default="64,64,32", type=_csv_positive_ints,
                   help="dataset dims, comma-separated (default 64,64,32)")
    p.add_argument("--layouts", default="naive,zorder,hilbert,multimap",
                   help="comma-separated registered layouts")
    p.add_argument("--drive", default="atlas10k3",
                   help="registered drive model (default atlas10k3)")
    p.add_argument("--beams", type=_nonnegative_int, default=12,
                   help="beams in the workload, axes cycled (default 12)")
    p.add_argument("--ranges", type=_nonnegative_int, default=4,
                   help="random range cubes in the workload (default 4)")
    p.add_argument("--selectivity", type=float, default=12.5,
                   help="range-cube selectivity in percent (default 12.5)")
    p.add_argument("--full-ranges", type=_nonnegative_int, default=1,
                   help="full-box scans in the workload (default 1)")
    p.add_argument("--repeats", type=_positive_int, default=3,
                   help="timing passes, best-of (default 3)")
    p.add_argument("--ref-plans", type=_positive_int, default=8,
                   help="workload prefix prepared through the reference "
                   "path for the speedup metric (default 8)")
    p.add_argument("--ref-cell-cap", type=_positive_int, default=4096,
                   help="skip queries above this many cells in the "
                   "reference subset (default 4096)")
    p.add_argument("--seed", type=_nonnegative_int, default=42,
                   help="workload seed (default 42)")
    p.add_argument("--check", default=None, metavar="BASELINE",
                   help="baseline JSON (e.g. BENCH_perf.json) to gate "
                   "against; exit 1 on regression")
    p.add_argument("--tolerance", type=float, default=0.5,
                   help="allowed fractional drop in speedup_vs_reference "
                   "(default 0.5)")
    p.add_argument("--throughput-tolerance", type=float, default=0.9,
                   help="allowed fractional drop in absolute plans/s and "
                   "cells/s — wide by design, shared runners vary "
                   "(default 0.9)")
    _add_output_flags(p)
    p.set_defaults(func=_perf_main)


def _trace_main(args) -> int:
    from repro.obs.trace_cmd import render_trace, run_trace

    data, tele = run_trace(
        args.shape, top=args.top, bins=args.bins, **_storm_kwargs(args),
    )
    if not args.quiet:
        print(render_trace(data))
    if args.trace_out:
        tele.export(args.trace_out)
        if not args.quiet:
            print(f"wrote chrome trace to {args.trace_out}")
    if args.json:
        _write_json_report(args.json, data, "trace.json", args.quiet)
    return 0


def _add_trace_parser(subparsers) -> None:
    p = subparsers.add_parser(
        "trace",
        help="telemetry-attached storm: slowest queries, phase totals, "
        "per-disk utilisation",
        description="Run one traffic storm with tracing and metrics "
        "attached, then print the top-N slowest queries with per-phase "
        "breakdowns, aggregate phase totals, and a per-disk utilisation "
        "timeline.  --trace-out writes the span trace as Chrome "
        "trace_event JSON.",
    )
    _add_storm_flags(p, sweep=False, clients=2, queries=8)
    p.add_argument("--top", type=_positive_int, default=5,
                   help="slowest queries to show (default 5, must be "
                   "positive)")
    p.add_argument("--bins", type=_positive_int, default=24,
                   help="time bins in the utilisation timeline "
                   "(default 24)")
    p.add_argument("--trace-out", default=None,
                   help="write the span trace to this file as Chrome "
                   "trace_event JSON (chrome://tracing, Perfetto)")
    _add_output_flags(p)
    p.set_defaults(func=_trace_main)


def _parse_box(spec: str):
    """``lo,lo,..:hi,hi,..`` -> (lo tuple, hi tuple)."""
    try:
        lo_s, hi_s = spec.split(":")
        lo = tuple(int(v) for v in lo_s.split(","))
        hi = tuple(int(v) for v in hi_s.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"box must look like lo,lo:hi,hi — got {spec!r}"
        ) from None
    return lo, hi


def _explain_main(args) -> int:
    from repro.explain import render_explain, run_explain

    data = run_explain(
        args.shape,
        layouts=_csv_strs(args.layouts),
        drive=args.drive,
        axis=args.axis,
        fixed=args.fixed or None,
        box=args.box,
        shards=args.shards,
        k=args.k,
        cache_blocks=args.cache_blocks,
        prefetch=args.prefetch,
        seed=args.seed,
        analyze=args.analyze,
        model=args.model,
    )
    return _emit(args, data, render_explain, "explain.json")


def _add_explain_parser(subparsers) -> None:
    p = subparsers.add_parser(
        "explain",
        help="inspect a query's plan and predicted cost (EXPLAIN), "
        "optionally execute and reconcile (ANALYZE)",
        description="EXPLAIN one beam or range query per layout: the "
        "prepared plan's run structure and access-pattern "
        "classification, the predicted mechanical cost from the drive "
        "model, expected cache hits, shard fan-out, and replica "
        "routing — with zero side effects on the dataset.  With "
        "--analyze the query is then executed once under a private "
        "trace and the prediction is reconciled against measurement "
        "per phase and per disk.  --model prints the analytic model's "
        "predicted beam/range speedups.",
    )
    p.add_argument("--shape", default="240,12,12", type=_csv_positive_ints,
                   help="dataset dimensions, comma separated")
    p.add_argument("--layouts", default="multimap",
                   help="comma-separated layouts to explain")
    p.add_argument("--drive", default="minidrive",
                   help="drive model (see --list-drives)")
    p.add_argument("--axis", type=_nonnegative_int, default=None,
                   help="beam axis (default 0)")
    p.add_argument("--fixed", default=None, type=_csv_ints,
                   help="beam's pinned coordinates, comma separated "
                   "(default: centre of each other dimension)")
    p.add_argument("--box", type=_parse_box, default=None,
                   help="range query instead of a beam: lo,lo,..:hi,hi,..")
    p.add_argument("--shards", type=_positive_int, default=None,
                   help="shard the dataset over this many disks")
    p.add_argument("--k", type=_positive_int, default=None,
                   help="replication factor (needs --shards)")
    p.add_argument("--cache-blocks", type=_nonnegative_int, default=0,
                   help="attach a buffer pool of this many blocks")
    p.add_argument("--prefetch", default="none",
                   help="pool prefetcher (see --list-prefetchers)")
    p.add_argument("--seed", type=_nonnegative_int, default=42,
                   help="base seed")
    p.add_argument("--analyze", action="store_true",
                   help="execute the query once and reconcile "
                   "predicted vs measured cost")
    p.add_argument("--model", action="store_true",
                   help="print the analytic model's predicted "
                   "beam/range speedups")
    _add_output_flags(p, "suppress plan-tree output")
    p.set_defaults(func=_explain_main)


def _diff_main(args) -> int:
    from repro.bench.diff import diff_runs, load_report, render_diff

    base = load_report(args.base)
    cur = load_report(args.current)
    data = diff_runs(base, cur, tolerance=args.tolerance)
    if getattr(args, "attribute", False):
        from repro.explain import attribute_runs

        data["attribution"] = attribute_runs(
            base, cur, tolerance=args.tolerance
        )
    if not args.quiet:
        print(render_diff(data))
        if "attribution" in data:
            from repro.explain import render_attribution

            print(render_attribution(data["attribution"]))
    if args.json:
        _write_json_report(args.json, data, "diff.json", args.quiet)
    return 1 if data["regressions"] else 0


def _add_diff_parser(subparsers) -> None:
    p = subparsers.add_parser(
        "diff",
        help="compare two exported run reports; exit 1 on regression",
        description="Load two trace --json exports and compare the "
        "makespan, throughput and phase totals, flagging every metric "
        "that moved beyond the tolerance band in the bad direction.  "
        "Two same-seed "
        "runs are bit-identical, so a clean diff is an exact-zero "
        "check; exits 1 when regressions are flagged.",
    )
    p.add_argument("base", help="baseline report JSON")
    p.add_argument("current", help="current report JSON")
    p.add_argument("--tolerance", type=float, default=0.1,
                   help="relative band a metric may move before it "
                   "flags (default 0.1)")
    p.add_argument("--attribute", action="store_true",
                   help="rank the suspects behind the regression "
                   "(phases, disks, queries)")
    p.add_argument("--json", default=None,
                   help="JSON output file (or directory) for the diff")
    p.add_argument("--quiet", action="store_true",
                   help="suppress table output")
    p.set_defaults(func=_diff_main)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="multimap-bench",
        description="Regenerate the MultiMap paper's figures on the "
        "simulated disks, or run the traffic simulator.",
    )
    parser.add_argument(
        "--scale",
        choices=("paper", "small"),
        default="paper",
        help="experiment sizing (paper = full chunks and sweeps)",
    )
    parser.add_argument(
        "--figure",
        action="append",
        choices=FIGURES,
        help="run only the given figure(s); repeatable",
    )
    parser.add_argument(
        "--out", default=None, help="directory for JSON results"
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress table output"
    )
    for dest, _, _, _, help_text in _LISTINGS:
        parser.add_argument(
            "--" + dest.replace("_", "-"), action="store_true",
            help=help_text,
        )
    subparsers = parser.add_subparsers(dest="command")
    _add_traffic_parser(subparsers)
    _add_cache_parser(subparsers)
    _add_scale_parser(subparsers)
    _add_avail_parser(subparsers)
    _add_ingest_parser(subparsers)
    _add_perf_parser(subparsers)
    _add_trace_parser(subparsers)
    _add_explain_parser(subparsers)
    _add_diff_parser(subparsers)
    args = parser.parse_args(argv)
    if getattr(args, "mix", None) is not None:
        # traffic and trace: checked before any dataset is built
        _check_mix_axes(subparsers.choices[args.command], args)
    listed = _list_registries(args)
    if args.command is not None:
        # a listing combined with a subcommand prints both: the listing
        # must never silently swallow the requested run
        return args.func(args)
    if listed:
        return 0
    run_all(
        scale_name=args.scale,
        out_dir=args.out,
        only=tuple(args.figure) if args.figure else None,
        quiet=args.quiet,
    )
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
