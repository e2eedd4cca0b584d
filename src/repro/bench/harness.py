"""Run-everything driver: regenerates every paper figure and saves JSON.

``run_all`` executes each figure regenerator at the requested scale,
prints paper-style tables, and (optionally) writes ``results/<fig>.json``,
the payloads ``BENCH_small.json`` and ``BENCH_paper.json`` pin.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.bench import figures, reporting

__all__ = ["run_all", "run_figure", "FIGURES"]

FIGURES = (
    "fig1a",
    "fig1b",
    "fig6a",
    "fig6b",
    "fig7a",
    "fig7b",
    "fig8",
    "model",
)


def run_figure(name: str, scale_name: str = "paper") -> dict:
    """Regenerate one figure's data."""
    scale = figures.get_scale(scale_name)
    if name == "fig1a":
        return figures.fig1a_seek_profile()
    if name == "fig1b":
        return figures.fig1b_semi_sequential()
    if name == "fig6a":
        return figures.fig6a_beam(scale)
    if name == "fig6b":
        return figures.fig6b_range(scale)
    if name == "fig7a":
        return figures.fig7a_beam(scale)
    if name == "fig7b":
        return figures.fig7b_range(scale)
    if name == "fig8":
        return figures.fig8_olap(scale)
    if name == "model":
        return figures.model_validation(scale)
    raise ValueError(f"unknown figure {name!r}")


def _render(name: str, data: dict) -> str:
    if name == "fig6a":
        return reporting.render_fig6a(data)
    if name == "fig6b":
        return reporting.render_fig6b(data)
    if name == "fig8":
        return reporting.render_fig8(data)
    if name == "fig7a":
        plain = {k: v for k, v in data.items()
                 if isinstance(v, dict) and "naive" in v}
        return reporting.render_fig6a(plain)
    return json.dumps(data, indent=2, default=str)


def run_all(
    scale_name: str = "paper",
    out_dir: str | Path | None = None,
    only: tuple[str, ...] | None = None,
    quiet: bool = False,
) -> dict:
    """Run every figure; returns {figure: data} and optionally saves JSON."""
    results = {}
    names = only if only else FIGURES
    for name in names:
        t0 = time.time()
        data = run_figure(name, scale_name)
        elapsed = time.time() - t0
        results[name] = data
        if not quiet:
            print(f"\n=== {name} (scale={scale_name}, {elapsed:.1f}s) ===")
            print(_render(name, data))
        if out_dir is not None:
            out = Path(out_dir)
            out.mkdir(parents=True, exist_ok=True)
            payload = {"scale": scale_name, "elapsed_s": round(elapsed, 1),
                       "data": data}
            (out / f"{name}.json").write_text(
                json.dumps(payload, indent=2, default=str)
            )
    return results
