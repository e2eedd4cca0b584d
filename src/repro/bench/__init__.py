"""Benchmark harness: one regenerator per paper figure, and the sweep
engine (:mod:`repro.bench.sweep`) behind the five layout sweeps."""

from repro.bench.figures import (
    PAPER_SCALE,
    SMALL_SCALE,
    Scale,
    fig1a_seek_profile,
    fig1b_semi_sequential,
    fig6a_beam,
    fig6b_range,
    fig7a_beam,
    fig7b_range,
    fig8_olap,
    headline_summary,
)
from repro.bench.harness import FIGURES, run_all, run_figure

__all__ = [
    "FIGURES",
    "PAPER_SCALE",
    "SMALL_SCALE",
    "Scale",
    "fig1a_seek_profile",
    "fig1b_semi_sequential",
    "fig6a_beam",
    "fig6b_range",
    "fig7a_beam",
    "fig7b_range",
    "fig8_olap",
    "headline_summary",
    "run_all",
    "run_figure",
]
