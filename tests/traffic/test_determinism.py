"""Determinism regressions for the traffic engine.

Three guarantees are pinned:

* same seed ⇒ bit-identical :class:`TrafficReport` JSON across runs
  (no wall-clock, no hash-order anywhere in the engine);
* a storm on a reused dataset reports exactly what it reports on a
  fresh one of the same configuration: runs park the heads and count
  their own stats;
* per-client random streams depend only on the client's own submission
  order, so re-interleaving service at the drive (different slice
  granularity) never changes *what* is read — only *when* — and
  per-drive served-block totals are invariant.
"""

import numpy as np
import pytest

from repro.api import Dataset
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


def failover_dataset(layout):
    return (Dataset.create((64, 64, 32), layout=layout, drive="atlas10k3",
                           seed=5)
            .with_shards(3).with_replication(2))


def failover_storm(ds, seed):
    """One Dim1 beam, four runs a slice, disk 0 killed at 1 ms: a
    sub-plan on disk 0 fails over onto a survivor that has served
    nothing in this run, so it starts wherever that drive's head is."""
    return (ds.traffic()
            .clients(1, mix=QueryMix.beams(1), queries=1)
            .slice_runs(4)
            .kill(1.0, 0)
            .run(rng=np.random.default_rng(seed)))


class TestReusedDataset:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("layout",
                             ["naive", "zorder", "hilbert", "multimap"])
    def test_storm_after_another_storm_replays_fresh(self, layout, seed):
        """An earlier storm moved the heads and read through the
        replicas; neither reaches this storm's report (a third of
        these cases used to report other traces, and every one the
        earlier storm's routing totals)."""
        ds = failover_dataset(layout)
        (ds.traffic().clients(1, mix=QueryMix.beams(2), queries=2)
         .run(rng=np.random.default_rng(100 + seed)))
        got = failover_storm(ds, seed)
        want = failover_storm(failover_dataset(layout), seed)
        assert got.to_json() == want.to_json()


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
