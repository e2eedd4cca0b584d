"""Figure 7 regenerators: the skewed earthquake dataset (paper §5.4).

Validated shape: MultiMap (applied per uniform region, §4.5) achieves the
best or near-best performance for beam queries along every axis while
matching X-major streaming, and stays ahead on small range queries.
"""

from conftest import run_once

from repro.bench import fig7a_beam, fig7b_range
from repro.bench.reporting import render_fig6a, render_table


def test_fig7a_beam_queries(benchmark, scale, report):
    data = run_once(benchmark, fig7a_beam, scale)
    disks = [k for k in data if isinstance(data[k], dict)
             and "naive" in data[k]]
    plain = {d: data[d] for d in disks}
    report(f"\nelements={data['n_elements']}  "
          f"top-2 region coverage={data['top2_region_coverage']}")
    report(render_fig6a(plain))
    # structural property the generator must reproduce (§5.4: two subareas
    # hold >60% of all elements)
    assert data["top2_region_coverage"] > 0.6
    for disk in disks:
        per = data[disk]
        # Z (the deepest stride for X-major Naive) shows the clean win;
        # Y ties within 10 % at both scales (README, "Deviations from
        # the paper").
        assert per["multimap"]["Z"] < per["naive"]["Z"]
        for axis in ("Y", "Z"):
            assert per["multimap"][axis] <= per["naive"][axis] * 1.1
            assert per["multimap"][axis] < per["zorder"][axis] * 1.1
            assert per["multimap"][axis] < per["hilbert"][axis] * 1.1


def test_fig7b_range_queries(benchmark, scale, report):
    data = run_once(benchmark, fig7b_range, scale)
    disks = [k for k in data if isinstance(data[k], dict)
             and "naive" in data[k]]
    for disk in disks:
        per = data[disk]
        sels = sorted(next(iter(per.values())))
        rows = [
            [name] + [per[name][s] for s in sels] for name in per
        ]
        report(f"\n[{disk}] earthquake ranges, total ms "
              f"(elements: {data.get('elements_fetched')})")
        report(render_table(["mapping"] + [f"{s}%" for s in sels], rows))
        for s in sels:
            # multimap stays within 1.8x of the best (Naive leads, at
            # both scales — README, "Deviations from the paper") and
            # clearly beats both curve layouts
            best = min(per[name][s] for name in per)
            assert per["multimap"][s] <= best * 1.8
            assert per["multimap"][s] < per["zorder"][s]
            assert per["multimap"][s] < per["hilbert"][s]
