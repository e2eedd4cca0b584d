"""Plan-preparation fast path: memoized mapper tables, a pure-Python
reference pipeline, and the pinned perf sweep.

``repro.perf`` is the speed scoreboard of the repository:

``memo``       the process-wide :data:`MEMO` sharing curve rank tables
               and basic-cube plans across ``with_layout``/``with_shards``
               clones instead of re-deriving them per mapper
``reference``  the slow per-cell preparation pipeline vectorized plans
               are pinned bit-identical against; it ranks curve cells
               by encode + binary search, never through the mappers'
               rank tables
``sweep``      ``repro-bench perf``: plans/s, cells/s, prep-vs-service
               split per layout, and the ``--check`` regression gate
               against the checked-in ``BENCH_perf.json``, scored by
               the shared band rule of :mod:`repro.bench.diff`

Host time per layer is measured from outside the program by
``perfbench/run.py --trace 1``.  ``memo`` imports nothing from the rest
of the package so mappers can use it without cycles; the sweep (which
builds Datasets) loads lazily.
"""

from __future__ import annotations

from repro.perf.memo import MEMO, MapperMemo

#: lazily loaded names -> defining module (sweep/reference pull in the
#: Dataset façade, which imports the mappers that import repro.perf.memo)
_LAZY_EXPORTS = {
    "reference_prepare": "repro.perf.reference",
    "reference_intersections": "repro.perf.reference",
    "run_perf_sweep": "repro.perf.sweep",
    "render_perf_sweep": "repro.perf.sweep",
    "check_perf": "repro.perf.sweep",
}

__all__ = [
    "MEMO",
    "MapperMemo",
    *_LAZY_EXPORTS,
]


def __getattr__(name: str):
    module_name = _LAZY_EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro.perf' has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY_EXPORTS))
