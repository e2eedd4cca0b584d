#!/usr/bin/env python3
"""High-dimensional mapping: the paper's §4.3 dimensionality bound.

With D adjacent blocks a disk supports N_max = 2 + log2(D) dimensions
(each inner dimension needs K_i >= 2).  Our simulated drives expose
D = 128, so a 9-D dataset still gets streaming on Dim0 and semi-sequential
access on all eight other dimensions — this example maps one and times a
beam along the ninth dimension, whose hops land exactly D tracks apart.

Run:  python examples/high_dimensional.py
"""

import numpy as np

from repro.api import Dataset
from repro.bench.reporting import render_table
from repro.core import max_dimensions
from repro.disk import atlas_10k3


def main() -> None:
    model = atlas_10k3()
    print(f"D = 128  =>  N_max = {max_dimensions(128)} dimensions\n")

    dims = (32,) + (2,) * 7 + (8,)   # 9-D, inner sides at the K_i = 2 limit
    ds = Dataset.create(dims, "multimap", model, depth=128,
                        strategy="volume")
    mapper = ds.mapper
    print(f"dataset {dims}  ({mapper.n_cells} cells)")
    print(f"basic cube K = {mapper.K}")
    print(f"inner volume prod(K1..K7) = {int(np.prod(mapper.K[1:-1]))} "
          f"(= D: Equation 3 is tight)\n")

    drive = ds.volume.drive(0)
    geom = model.geometry
    rows = []
    for axis in (1, 4, 7, 8):
        # position exactly on the first cell, then time the hop alone
        a = np.zeros((1, 9), dtype=np.int64)
        b = a.copy()
        b[0, axis] = 1
        la = int(mapper.lbns(a)[0])
        lb = int(mapper.lbns(b)[0])
        drive.reset(track=geom.track_of(la))
        drive.service(la)
        tm = drive.service(lb)
        step = int(np.prod(mapper.K[1:axis]))
        rows.append([
            f"dim{axis}",
            step,
            geom.track_of(lb) - geom.track_of(la),
            f"{tm.total_ms:.3f}",
            f"{tm.rotation_ms:.4f}",
        ])
    print("single hops between neighbouring cells "
          "(step = prod(K1..K_i-1))")
    print(render_table(
        ["axis", "step", "tracks apart", "hop ms", "rotational wait ms"],
        rows,
    ))
    report = ds.beam(0, (0,) * 9).run(rng=np.random.default_rng(1))
    print(f"\ndim0 beam streams at {report.mean():.3f} ms/cell")
    print(
        "Every hop costs one settle with zero rotational latency, even"
        "\nthe dim8 hop spanning all 128 adjacent tracks — the whole"
        "\nsettle region of the seek curve."
    )


if __name__ == "__main__":
    main()
