"""Benchmark harness: one regenerator per paper figure, and the sweep
engine (:mod:`repro.bench.sweep`) behind the five layout sweeps.

The figure names are loaded lazily (PEP 562): the storage stack imports
:mod:`repro.bench.reporting` and :mod:`repro.bench.sweep`, and importing
either must not load the figure harness.
"""

from __future__ import annotations

#: the lazy public surface: name -> module
_LAZY_EXPORTS = {
    "PAPER_SCALE": "repro.bench.figures",
    "SMALL_SCALE": "repro.bench.figures",
    "Scale": "repro.bench.figures",
    "fig1a_seek_profile": "repro.bench.figures",
    "fig1b_semi_sequential": "repro.bench.figures",
    "fig6a_beam": "repro.bench.figures",
    "fig6b_range": "repro.bench.figures",
    "fig7a_beam": "repro.bench.figures",
    "fig7b_range": "repro.bench.figures",
    "fig8_olap": "repro.bench.figures",
    "headline_summary": "repro.bench.figures",
    "FIGURES": "repro.bench.harness",
    "run_all": "repro.bench.harness",
    "run_figure": "repro.bench.harness",
}

__all__ = sorted(_LAZY_EXPORTS)


def __getattr__(name: str):
    try:
        module = _LAZY_EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    from importlib import import_module

    return getattr(import_module(module), name)


def __dir__():
    return sorted(__all__)
