"""Determinism regressions for the traffic engine.

Two guarantees are pinned:

* same seed ⇒ bit-identical :class:`TrafficReport` JSON across runs
  (no wall-clock, no hash-order anywhere in the engine);
* per-client random streams depend only on the client's own submission
  order, so re-interleaving service at the drive (different slice
  granularity) never changes *what* is read — only *when* — and
  per-drive served-block totals are invariant.
"""

import pytest

from repro.traffic import PoissonArrivals, QueryMix


def beams_run(make_dataset, *, seed=42, slice_runs=16, n_clients=3,
              queries=5, layout="multimap"):
    return (
        make_dataset(layout=layout, seed=seed)
        .traffic()
        .clients(n_clients, mix=QueryMix.beams(1, 2), queries=queries)
        .slice_runs(slice_runs)
        .run()
    )


class TestBitIdenticalReplay:
    @pytest.mark.parametrize("layout", ["multimap", "zorder"])
    def test_same_seed_same_json(self, make_dataset, layout):
        a = beams_run(make_dataset, layout=layout)
        b = beams_run(make_dataset, layout=layout)
        assert a.to_json() == b.to_json()

    def test_same_seed_same_json_open_loop(self, make_dataset):
        def go():
            return (
                make_dataset(seed=11)
                .traffic()
                .clients(2, arrival=PoissonArrivals(rate_qps=80),
                         queries=6)
                .run()
                .to_json()
            )

        assert go() == go()

    def test_different_seed_differs(self, make_dataset):
        a = beams_run(make_dataset, seed=1)
        b = beams_run(make_dataset, seed=2)
        assert a.to_json() != b.to_json()


class TestInterleavingInvariance:
    @pytest.mark.parametrize("variant", [
        dict(slice_runs=4),
        dict(slice_runs=None),
    ])
    def test_served_block_totals_closed_loop(self, make_dataset,
                                             variant):
        base = beams_run(make_dataset, slice_runs=16)
        other = beams_run(make_dataset, **variant)
        assert (
            [d.served_blocks for d in base.drives]
            == [d.served_blocks for d in other.drives]
        )
        # ... and per-client totals, not just the drive sum
        assert {
            n: s["served_blocks"] for n, s in base.per_client().items()
        } == {
            n: s["served_blocks"] for n, s in other.per_client().items()
        }

    @pytest.mark.parametrize("variant", [
        dict(slice_runs=4),
        dict(slice_runs=None),
    ])
    def test_served_block_totals_open_loop(self, make_dataset, variant):
        def go(slice_runs=16):
            return (
                make_dataset(seed=13)
                .traffic()
                .clients(3, arrival=PoissonArrivals(rate_qps=150),
                         queries=8, mix=QueryMix.beams(1, 2))
                .slice_runs(slice_runs)
                .run()
            )

        # interleaving = slice granularity; per-query head draws are part
        # of each client's stream, so they stay fixed
        base = go()
        other = go(**variant)
        assert (
            [d.served_blocks for d in base.drives]
            == [d.served_blocks for d in other.drives]
        )
        # identical queries were drawn: same labels per client in order
        for name in base.client_names():
            assert (
                [t.label for t in base.for_client(name)]
                == [t.label for t in other.for_client(name)]
            )

    def test_interleaving_changes_timing_not_blocks(self, make_dataset):
        """Sanity: the variants above are not accidentally identical."""
        a = beams_run(make_dataset, slice_runs=4)
        b = beams_run(make_dataset, slice_runs=None)
        assert a.makespan_ms != b.makespan_ms or (
            [t.completion_ms for t in a.traces]
            != [t.completion_ms for t in b.traces]
        )
