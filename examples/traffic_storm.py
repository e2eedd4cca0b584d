#!/usr/bin/env python3
"""Traffic storm: layouts under rising concurrent client counts.

The paper evaluates each mapping one query at a time on an idle drive.
This scenario asks the production question instead: when 1, 2, 4, 8
clients hammer the same volume with beam queries concurrently — slices
of different queries interleaving at the drive — which placement
sustains throughput and keeps tail latency down?

Every (layout, client count) cell replays the *same* seeded per-client
query streams (client k draws identical queries in every cell), so only
the placement differs.  Expected shape: MultiMap's semi-sequential
fetches keep per-query service time low, so it sustains at least the
throughput of the linearised layouts at every load while their p95/p99
latencies blow up with queueing.

Run:  python examples/traffic_storm.py           (quick, < 60 s)
      python examples/traffic_storm.py --full    (bigger sweep)
"""

import argparse
import sys
import time

from repro.traffic import QueryMix, render_storm, run_storm

QUICK = dict(
    shape=(64, 64, 32),
    clients=(1, 2, 4, 8),
    queries=12,
)
FULL = dict(
    shape=(128, 64, 64),
    clients=(1, 2, 4, 8, 16),
    queries=30,
)
LAYOUTS = ("naive", "zorder", "hilbert", "multimap")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--full", action="store_true",
                        help="bigger dataset and sweep")
    args = parser.parse_args(argv)
    params = FULL if args.full else QUICK

    t0 = time.time()
    data = run_storm(
        params["shape"],
        layouts=LAYOUTS,
        clients=params["clients"],
        queries=params["queries"],
        mix=QueryMix.beams(1, 2),
        seed=42,
        slice_runs=64,
    )
    print(render_storm(data))
    print(f"\n[{time.time() - t0:.1f} s simulated-wall time]")

    # The claim this example demonstrates: MultiMap sustains at least the
    # throughput of every linearised layout at every tested client count.
    ok = True
    for n in params["clients"]:
        mm = data["multimap"][n]["throughput_qps"]
        for layout in LAYOUTS:
            if layout == "multimap":
                continue
            other = data[layout][n]["throughput_qps"]
            if mm < other:
                ok = False
                print(f"UNEXPECTED: {layout} beats multimap at "
                      f"{n} clients ({other:.2f} vs {mm:.2f} q/s)")
    print("multimap sustained >= every linearised layout at every load"
          if ok else "multimap fell behind — see above")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
