"""Parity: a lone zero-think closed-loop traffic client reproduces the
one-shot :class:`StorageManager` timings bit-for-bit.

This is the guard on the executor refactor (prepare/execute split and
the engine's pre-drawn head positions): the traffic path must consume
the dataset's seed stream in exactly the order ``QueryBatch.run`` does
(query draw, head draw, query draw, ...) and service each prepared plan
identically.  Every field is compared with ``==`` — no tolerances.
"""

import pytest

from repro.api import Dataset
from repro.traffic import QueryMix

FIELDS = ("total_ms", "seek_ms", "rotation_ms", "transfer_ms",
          "switch_ms", "n_blocks", "n_runs", "n_cells")

TRACE_FIELDS = {"total_ms": "service_ms"}  # renamed on QueryTrace


def assert_bit_identical(report, traffic_report):
    assert len(report.records) == len(traffic_report.traces)
    for rec, tr in zip(report.records, traffic_report.traces):
        for f in FIELDS:
            want = getattr(rec.result, f)
            got = getattr(tr, TRACE_FIELDS.get(f, f))
            assert got == want, (f, got, want)


@pytest.mark.parametrize("layout", ["multimap", "naive", "zorder",
                                    "hilbert"])
class TestBeamParity:
    def test_random_beams(self, small_model, layout):
        shape = (24, 12, 12)
        batch_ds = Dataset.create(shape, layout=layout,
                                  drive=small_model, seed=7)
        report = batch_ds.random_beams(axis=1, n=8).run()

        traffic_ds = Dataset.create(shape, layout=layout,
                                    drive=small_model, seed=7)
        traffic_report = (
            traffic_ds.traffic()
            .clients(1, mix=QueryMix.beams(1), queries=8)
            .slice_runs(None)
            .run()
        )
        assert_bit_identical(report, traffic_report)


class TestRangeParity:
    def test_random_ranges(self, small_model):
        shape = (24, 12, 12)
        batch_ds = Dataset.create(shape, layout="multimap",
                                  drive=small_model, seed=21)
        batch = batch_ds.query()
        for _ in range(6):
            batch.range_selectivity(5.0)
        report = batch.run()

        traffic_ds = Dataset.create(shape, layout="multimap",
                                    drive=small_model, seed=21)
        traffic_report = (
            traffic_ds.traffic()
            .clients(1, mix=QueryMix.ranges(5.0), queries=6)
            .slice_runs(None)
            .run()
        )
        assert_bit_identical(report, traffic_report)


class TestExplicitRngParity:
    def test_shared_generator(self, small_model):
        """run(rng=...) mirrors QueryBatch.run(rng=...) for one client."""
        import numpy as np

        shape = (24, 12, 12)
        ds1 = Dataset.create(shape, layout="multimap", drive=small_model)
        report = ds1.random_beams(axis=2, n=5).run(
            rng=np.random.default_rng(99)
        )
        ds2 = Dataset.create(shape, layout="multimap", drive=small_model)
        traffic_report = (
            ds2.traffic()
            .clients(1, mix=QueryMix.beams(2), queries=5)
            .slice_runs(None)
            .run(rng=np.random.default_rng(99))
        )
        assert_bit_identical(report, traffic_report)


class TestPreparedPathParity:
    """The refactored execute_plan == prepare + execute_prepared."""

    @pytest.mark.parametrize("layout", ["multimap", "naive"])
    def test_execute_prepared_matches(self, small_model, layout):
        import numpy as np

        from repro.query.workload import random_beam, random_range_cube

        shape = (24, 12, 12)
        ds1 = Dataset.create(shape, layout=layout, drive=small_model)
        ds2 = Dataset.create(shape, layout=layout, drive=small_model)
        rng1 = np.random.default_rng(5)
        rng2 = np.random.default_rng(5)
        for i in range(4):
            q = random_beam(shape, 1, rng1)
            r1 = ds1.storage.run_query(q, rng=rng1)
            q2 = random_beam(shape, 1, rng2)
            prepared = ds2.storage.prepare(q2)
            r2 = ds2.storage.execute_prepared(prepared, rng=rng2)
            assert r1 == r2
        for i in range(3):
            q = random_range_cube(shape, 10.0, rng1)
            r1 = ds1.storage.run_query(q, rng=rng1)
            q2 = random_range_cube(shape, 10.0, rng2)
            prepared = ds2.storage.prepare(q2)
            r2 = ds2.storage.execute_prepared(prepared, rng=rng2)
            assert r1 == r2

    def test_single_slice_equals_whole_plan(self, small_model):
        """Servicing a prepared plan as back-to-back fifo/sorted slices
        is timing-identical to one batch (the resumable-position
        property the engine relies on)."""
        import numpy as np

        from repro.query.scheduler import slice_plan
        from repro.query.workload import random_range_cube

        shape = (24, 12, 12)
        ds1 = Dataset.create(shape, layout="multimap", drive=small_model)
        ds2 = Dataset.create(shape, layout="multimap", drive=small_model)
        rng = np.random.default_rng(17)
        q = random_range_cube(shape, 20.0, rng)

        prep1 = ds1.storage.prepare(q)
        prep2 = ds2.storage.prepare(q)
        if prep1.policy == "sptf":
            pytest.skip("sptf schedules across the whole batch")

        drive1 = ds1.volume.drive(0)
        drive1.reset(100, 1.0)
        whole = drive1.service_runs(
            prep1.plan.starts, prep1.plan.lengths, policy=prep1.policy
        )

        drive2 = ds2.volume.drive(0)
        drive2.reset(100, 1.0)
        total = 0.0
        for sl in slice_plan(prep2.plan, 3):
            total += drive2.service_runs(
                sl.starts, sl.lengths, policy=prep2.policy
            ).total_ms
        assert total == pytest.approx(whole.total_ms, abs=1e-9)
        assert drive2.current_track == drive1.current_track
