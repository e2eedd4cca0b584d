#!/usr/bin/env python3
"""Cache effects: the memory half of MultiMap's locality dividend.

The paper rewards locality only at seek time — every block still comes
off the platter.  This scenario adds the layer above: a shared buffer
pool with *track-aligned prefetch*, and a workload of overlapping beam
queries whose anchors cluster in one sub-region (the repeated,
overlapping access OLAP slices and earthquake replays produce).

Under MultiMap a beam along a non-streaming axis touches one block per
track, and rounding those fetches out to whole tracks pulls in exactly
the neighboring cells the next overlapping beams want — a small, fully
useful footprint.  Space-filling curves scatter the same beam across
the volume, so the same prefetch drags in whole tracks of far-away
cells: pollution that evicts the working set.  Expected shape: at every
tested pool capacity MultiMap's hit ratio is at least every baseline's,
and it strictly beats the best space-filling curve.

Run:  python examples/cache_effects.py           (quick, < 1 s)
      python examples/cache_effects.py --full    (bigger sweep)
"""

import argparse
import sys
import time

from repro.cache import render_cache_sweep, run_cache_sweep

QUICK = dict(
    shape=(120, 16, 16),
    capacities=(12288, 16384, 24576),
    assert_from=12288,
    n_beams=16,
    repeats=3,
)
# The full sweep also shows the thrash region: below ~12k blocks the
# working set of whole z-planes (distinct planes x K1 tracks x T)
# no longer fits, so MultiMap churns like everyone else and the curves
# cross.  The locality claim is asserted where the working set fits.
FULL = dict(
    shape=(120, 16, 16),
    capacities=(4096, 8192, 12288, 16384, 24576, 32768),
    assert_from=12288,
    n_beams=24,
    repeats=4,
)
LAYOUTS = ("naive", "zorder", "hilbert", "multimap")
SFC = ("zorder", "hilbert")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--full", action="store_true",
                        help="more capacities, beams, and repeats")
    args = parser.parse_args(argv)
    params = FULL if args.full else QUICK

    t0 = time.time()
    data = run_cache_sweep(
        params["shape"],
        layouts=LAYOUTS,
        capacities=params["capacities"],
        prefetch="track",
        n_beams=params["n_beams"],
        repeats=params["repeats"],
        axes=(1,),
        region_frac=0.4,
        drive="minidrive",
        seed=42,
    )
    print(render_cache_sweep(data))
    print(f"\n[{time.time() - t0:.1f} s simulated-wall time]")

    # The claim this example demonstrates: once the pool holds the
    # working set, MultiMap's hit ratio is >= every baseline's at every
    # tested capacity and strictly above the best space-filling curve.
    ok = True
    strict = False
    tested = [c for c in params["capacities"]
              if c >= params["assert_from"]]
    for cap in tested:
        mm = data["multimap"][cap]["hit_ratio"]
        best_sfc = max(data[s][cap]["hit_ratio"] for s in SFC)
        if mm > best_sfc:
            strict = True
        for layout in LAYOUTS:
            if layout == "multimap":
                continue
            other = data[layout][cap]["hit_ratio"]
            if mm < other:
                ok = False
                print(f"UNEXPECTED: {layout} beats multimap at capacity "
                      f"{cap} ({other:.1%} vs {mm:.1%})")
    if not strict:
        ok = False
        print("UNEXPECTED: multimap never strictly beat the best "
              "space-filling curve")
    print("multimap hit ratio >= every layout at every capacity, "
          "strictly above the best space-filling curve"
          if ok else "multimap fell behind — see above")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
