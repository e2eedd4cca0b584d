"""One engine behind the layout sweeps: ``cache``, ``scale``, ``avail``,
``ingest`` and ``traffic``.

Each sweep carries the paper's §5 method over to one more layer: the
same seeded workload replays on every layout, and only the placement
differs.  :func:`run_sweep` is that loop — every (layout, value) cell
measures on fresh datasets built from the same seed — and
:func:`render_sweep` prints its tables, one row per layout and one
column per swept value.  A sweep module supplies only its workload, a
``measure`` function, its meta record and its table captions.
"""

from __future__ import annotations

from repro.bench.reporting import render_table
from repro.errors import BenchmarkError

__all__ = ["DEFAULT_LAYOUTS", "render_sweep", "run_sweep"]

DEFAULT_LAYOUTS = ("naive", "zorder", "hilbert", "multimap")


def run_sweep(shape, layouts, values, measure, *, drive, seed,
              meta: dict) -> dict:
    """Sweep ``layouts`` x ``values``; returns
    ``{layout: {value: cell}, "meta": {"shape", "drive", **meta}}``.

    ``measure(fresh, value)`` returns one cell.  ``fresh()`` builds a new
    :meth:`~repro.api.Dataset.create` dataset of the cell's layout on
    ``drive`` from ``seed``, as often as the cell needs one (the
    availability sweep measures a healthy and a degraded copy).
    """
    from repro.api.dataset import Dataset

    layouts, values = tuple(layouts), tuple(values)
    for name, items in (("layouts", layouts), ("values", values)):
        if not items or len(set(items)) < len(items):
            raise BenchmarkError(
                f"a sweep needs distinct {name}, at least one; "
                f"got {list(items)}"
            )
    data: dict = {}
    for layout in layouts:
        def fresh(layout=layout):
            return Dataset.create(shape, layout=layout, drive=drive,
                                  seed=seed)

        data[layout] = {value: measure(fresh, value) for value in values}
    data["meta"] = {
        "shape": list(shape),
        "drive": drive if isinstance(drive, str)
        else getattr(drive, "name", str(drive)),
        **meta,
    }
    return data


def render_sweep(data: dict, title: str, values, tables) -> str:
    """``title``, then one fixed-width table per ``(caption, label,
    fmt)`` in ``tables``: a row per layout, a column per swept value
    headed ``label(value)``, and ``fmt(cell)`` in each cell."""
    layouts = [key for key in data if key != "meta"]
    parts = [title]
    for caption, label, fmt in tables:
        headers = ["layout"] + [label(value) for value in values]
        rows = [[layout] + [fmt(data[layout][value]) for value in values]
                for layout in layouts]
        parts += [caption, render_table(headers, rows)]
    return "\n\n".join(parts)
