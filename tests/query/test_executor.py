"""Tests for the storage manager (query execution end to end)."""

import numpy as np
import pytest

import repro.query.executor
from repro.api import Dataset
from repro.errors import QueryError
from repro.lvm import LogicalVolume
from repro.mappings.base import RequestPlan
from repro.query import BeamQuery, RangeQuery, StorageManager
from repro.query.executor import PreparedQuery, WritePrepared


def make(small_model, dims, layout="naive", **opts):
    """A one-disk dataset on the small test disk (D = 16)."""
    return Dataset.create(dims, layout, small_model, depth=16, **opts)


def beam(ds, axis, fixed, *, rng=None):
    return ds.storage.run_query(BeamQuery(axis, tuple(fixed)), rng=rng)


def box(ds, lo, hi, *, rng=None):
    return ds.storage.run_query(RangeQuery(tuple(lo), tuple(hi)), rng=rng)


@pytest.fixture()
def setup(small_model):
    dims = (40, 12, 10)
    return make(small_model, dims), dims


class TestExecution:
    def test_beam_result_counts(self, setup):
        naive, dims = setup
        res = beam(naive, 0, (0, 3, 4))
        assert res.n_cells == 40
        assert res.n_blocks == 40
        assert res.total_ms > 0
        assert res.mapper == "naive"

    def test_range_result_counts(self, setup):
        naive, dims = setup
        res = box(naive, (0, 0, 0), (10, 5, 5))
        assert res.n_cells == 250
        assert res.n_blocks >= 250  # gap coalescing may read extra

    def test_breakdown_sums(self, setup):
        naive, dims = setup
        res = box(naive, (0, 0, 0), (10, 5, 5))
        parts = res.seek_ms + res.rotation_ms + res.transfer_ms + res.switch_ms
        # remainder is per-command overhead
        assert parts <= res.total_ms + 1e-9

    def test_ms_per_cell(self, setup):
        naive, dims = setup
        res = beam(naive, 1, (5, 0, 5))
        assert res.ms_per_cell == pytest.approx(res.total_ms / 12)

    def test_run_query_dispatch_beam(self, setup):
        naive, dims = setup
        q = BeamQuery(axis=0, fixed=(0, 1, 1))
        res = naive.storage.run_query(q)
        assert res.n_cells == 40

    def test_run_query_dispatch_range(self, setup):
        naive, dims = setup
        q = RangeQuery(lo=(0, 0, 0), hi=(5, 5, 5))
        res = naive.storage.run_query(q)
        assert res.n_cells == 125

    def test_run_query_rejects_unknown(self, setup):
        naive, dims = setup
        with pytest.raises(QueryError):
            naive.storage.run_query(object())

    def test_rng_randomises_start_position(self, setup, small_model):
        naive, dims = setup
        r1 = beam(naive, 1, (5, 0, 5), rng=np.random.default_rng(1))
        r2 = beam(naive, 1, (5, 0, 5), rng=np.random.default_rng(99))
        # different head positions -> different initial positioning
        assert r1.total_ms != pytest.approx(r2.total_ms, abs=1e-9)

    def test_deterministic_given_seed(self, small_model):
        def run():
            m = make(small_model, (40, 12, 10))
            return box(
                m, (0, 0, 0), (20, 6, 5), rng=np.random.default_rng(7)
            ).total_ms

        assert run() == pytest.approx(run())


class TestPolicyHandling:
    def test_multimap_range_uses_sptf(self, small_model):
        mm = make(small_model, (40, 12, 10), "multimap")
        res = box(mm, (0, 0, 0), (30, 10, 8))
        assert res.policy == "sptf"

    def test_sptf_clamp_on_large_batches(self, small_model, monkeypatch):
        mm = make(small_model, (40, 12, 10), "multimap")
        monkeypatch.setattr(repro.query.executor, "SPTF_RUN_LIMIT", 3)
        res = box(mm, (0, 0, 0), (30, 10, 8))
        assert res.policy == "sorted"

    @pytest.mark.parametrize("window", [0, -3])
    def test_window_below_one_rejected(self, small_model, window):
        vol = LogicalVolume([small_model], depth=16)
        with pytest.raises(QueryError, match="window"):
            StorageManager(vol, window=window)

    def test_beam_plans_never_merge_gaps(self, small_model, monkeypatch):
        """Beams must fetch exactly their blocks (paper issues per-block
        requests); n_blocks must equal the beam length."""
        m = make(small_model, (16, 16, 16), "zorder")
        monkeypatch.setattr(repro.query.executor, "COALESCE_GAP_BLOCKS",
                            1000)
        res = beam(m, 1, (3, 0, 9))
        assert res.n_blocks == 16

    def test_range_plans_merge_small_gaps(self, small_model):
        # rows of 5 with gap 5: the 24-block threshold merges all rows
        m = make(small_model, (10, 50, 1))
        res = box(m, (0, 0, 0), (5, 50, 1))
        assert res.n_runs == 1

    def test_zero_gap_threshold(self, small_model, monkeypatch):
        m = make(small_model, (10, 50, 1))
        monkeypatch.setattr(repro.query.executor, "COALESCE_GAP_BLOCKS",
                            0)
        res = box(m, (0, 0, 0), (5, 50, 1))
        assert res.n_runs == 50


class TestRelativePerformance:
    """End-to-end sanity of the paper's core comparisons on a small disk."""

    def test_multimap_beats_naive_on_nonprimary_beams(self, small_model):
        dims = (100, 16, 12)
        naive = make(small_model, dims)
        mm = make(small_model, dims, "multimap", strategy="volume")
        rng1, rng2 = np.random.default_rng(3), np.random.default_rng(3)
        t_naive = sum(
            beam(naive, 2, (5, 5, 0), rng=rng1).total_ms
            for _ in range(3)
        )
        t_mm = sum(
            beam(mm, 2, (5, 5, 0), rng=rng2).total_ms for _ in range(3)
        )
        assert t_mm < t_naive

    def test_streaming_equal_for_naive_and_multimap(self, small_model):
        dims = (100, 16, 12)
        naive = make(small_model, dims)
        mm = make(small_model, dims, "multimap")
        rng1, rng2 = np.random.default_rng(3), np.random.default_rng(3)
        t_naive = beam(naive, 0, (0, 5, 5), rng=rng1).total_ms
        t_mm = beam(mm, 0, (0, 5, 5), rng=rng2).total_ms
        assert t_mm < t_naive * 1.8


class TestTrustedRecords:
    """The records the traffic path builds once per query or sub-plan
    are set in one step and equal what the dataclasses' own
    constructors build from the same values."""

    @pytest.mark.parametrize("cls", [PreparedQuery, WritePrepared])
    def test_prepared_query(self, cls):
        plan = RequestPlan(np.array([4, 9]), np.array([2, 1]), "fifo", 0)
        fields = dict(mapper_name="naive", disk_index=1, plan=plan,
                      policy="fifo", n_cells=3, cache_hits=1, cache_runs=1,
                      cache_ms=0.25)
        got = cls.from_fields(**fields, obs={"raw_runs": 2})
        want = cls(**fields)
        assert type(got) is cls
        assert got == want and repr(got) == repr(want)
        assert got.obs == {"raw_runs": 2} and got.n_blocks == 3
        assert cls.from_fields("naive", 1, plan, "fifo", 3) == cls(
            "naive", 1, plan, "fifo", 3)

    def test_query_trace(self):
        from dataclasses import asdict

        from repro.traffic.stats import QueryTrace

        values = dict(
            client="c0", label="beam[axis=1]", index=2, disk=1,
            arrival_ms=1.0, start_ms=1.5, completion_ms=9.0,
            service_ms=6.0, n_slices=2, n_runs=11, n_blocks=11,
            n_cells=11, seek_ms=1.0, rotation_ms=2.0, transfer_ms=2.5,
            switch_ms=0.0,
        )
        got = QueryTrace.from_fields(**values)
        want = QueryTrace(**values)
        assert got == want and asdict(got) == asdict(want)
        assert got.queue_ms == want.queue_ms == 2.0
