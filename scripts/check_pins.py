"""Compare regenerated figure payloads with a pinned BENCH file.

Usage::

    python scripts/check_pins.py BENCH_small.json results/small
    python scripts/check_pins.py BENCH_paper.json results/paper

Every entry ``NAME`` of the pinned file must equal ``DIR/NAME.json``
with its ``elapsed_s`` dropped (the sweep payloads have none).  The
script exits non-zero naming the first entry and key that differ.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def first_diff(want, got, path: str) -> str | None:
    """Path of the first key or list item where ``got`` differs from
    ``want``, or None when they are equal."""
    if isinstance(want, dict) and isinstance(got, dict):
        for key in [*want, *(k for k in got if k not in want)]:
            if key not in want or key not in got:
                return f"{path}.{key}"
            where = first_diff(want[key], got[key], f"{path}.{key}")
            if where:
                return where
        return None
    if (isinstance(want, list) and isinstance(got, list)
            and len(want) == len(got)):
        for i, (w, g) in enumerate(zip(want, got)):
            where = first_diff(w, g, f"{path}[{i}]")
            if where:
                return where
        return None
    return None if want == got else path


def check(pinned_path: str, results_dir: str) -> str | None:
    """First difference between the pinned file and the payloads in
    ``results_dir``, or None when every entry matches."""
    pinned = json.loads(Path(pinned_path).read_text())
    for name, want in pinned.items():
        got = json.loads((Path(results_dir) / f"{name}.json").read_text())
        got.pop("elapsed_s", None)
        where = first_diff(want, got, name)
        if where:
            return where
    return None


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    pinned_path, results_dir = argv
    where = check(pinned_path, results_dir)
    if where:
        print(f"{where} differs from {pinned_path}", file=sys.stderr)
        return 1
    n = len(json.loads(Path(pinned_path).read_text()))
    print(f"ok: {n} entries match {pinned_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
