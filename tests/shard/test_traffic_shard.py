"""Sharded datasets under the traffic engine: multi-queue jobs."""

import pytest

from repro.api import Dataset
from repro.traffic import QueryMix

SHAPE = (24, 12, 12)


def make(small_model, n=3, seed=7, layout="multimap"):
    return Dataset.create(SHAPE, layout=layout, drive=small_model,
                          seed=seed).with_shards(n)


class TestMultiDriveJobs:
    def test_cross_shard_queries_occupy_every_drive(self, small_model):
        ds = make(small_model, n=3)
        report = (
            ds.traffic()
            .clients(2, mix=QueryMix.beams(2), queries=5)
            .slice_runs(8)
            .run()
        )
        assert sorted(d.disk for d in report.drives) == [0, 1, 2]
        assert all(d.served_blocks > 0 for d in report.drives)
        # every issued query completed exactly once
        assert len(report.traces) == 10
        assert {tr.index for tr in report.for_client("c0")} == set(range(5))

    def test_completion_on_last_subplan(self, small_model):
        """Latency covers the slowest drive's work: a cross-shard query's
        service time is at least any single sub-plan's share."""
        ds = make(small_model, n=3)
        report = (
            ds.traffic()
            .clients(1, mix=QueryMix.beams(2), queries=4)
            .slice_runs(4)
            .run()
        )
        for tr in report.traces:
            assert tr.completion_ms >= tr.start_ms
            assert tr.n_blocks == SHAPE[2]

    def test_same_seed_bit_identical(self, small_model):
        def run():
            ds = make(small_model, n=3, seed=23)
            return (
                ds.traffic()
                .clients(3, mix=QueryMix.beams(1, 2), queries=6)
                .slice_runs(8)
                .run()
                .to_json()
            )

        assert run() == run()

    def test_served_blocks_invariant_under_slicing(self, small_model):
        """Re-interleavings change timing, never the blocks served."""
        def totals(slice_runs):
            ds = make(small_model, n=3, seed=31)
            rep = (
                ds.traffic()
                .clients(2, mix=QueryMix.beams(1, 2), queries=6)
                .slice_runs(slice_runs)
                .run()
            )
            return sorted(
                (d.disk, d.served_blocks) for d in rep.drives
            )

        assert totals(4) == totals(64) == totals(None)

    def test_mixed_sharded_clients_with_cache(self, small_model):
        ds = make(small_model, n=2, seed=41).with_cache(
            2048, prefetch="track",
        )
        rep = (
            ds.traffic()
            .clients(2, mix=QueryMix.beams(1, 2), queries=6)
            .slice_runs(8)
            .run()
        )
        assert rep.cache_stats() is not None
        assert len(rep.traces) == 12

    def test_all_hit_query_billed_per_disk_makespan(self, small_model):
        """A fully cached cross-shard query completes at the slowest
        disk's memory-service share, not the sum over disks — the batch
        executor's makespan rule."""
        from repro.api import Dataset
        from repro.query.workload import BeamQuery
        from repro.traffic import Replay

        ds = Dataset.create(SHAPE, layout="multimap", drive=small_model,
                            seed=11).with_shards(2).with_cache(
            8192, prefetch="none",
        )
        beam = BeamQuery(axis=2, fixed=(0, 0, 0))
        rep = (
            ds.traffic()
            .clients(1, mix=Replay([beam]), queries=2)
            .run()
        )
        warm = rep.traces[1]
        assert warm.n_runs == 0 or warm.seek_ms + warm.transfer_ms == 0
        total_cache = warm.service_ms  # sum over both disks' hits
        per_block = ds.cache.service_ms_per_block
        # each disk serves half the beam's blocks from memory
        expected_latency = (SHAPE[2] / 2) * per_block
        assert warm.latency_ms == pytest.approx(expected_latency)
        assert warm.latency_ms < total_cache
