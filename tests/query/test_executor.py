"""Tests for the storage manager (query execution end to end)."""

import numpy as np
import pytest

from repro.core import MultiMapMapper
from repro.errors import QueryError
from repro.lvm import LogicalVolume
from repro.mappings import NaiveMapper, ZOrderMapper
from repro.query import (
    BeamQuery,
    RangeQuery,
    StorageManager,
    random_range_cube,
)


@pytest.fixture()
def setup(small_model):
    vol = LogicalVolume([small_model], depth=16)
    dims = (40, 12, 10)
    naive = NaiveMapper(dims, vol.allocate_blocks(0, int(np.prod(dims))))
    sm = StorageManager(vol)
    return vol, naive, sm, dims


class TestExecution:
    def test_beam_result_counts(self, setup):
        vol, naive, sm, dims = setup
        res = sm.beam(naive, 0, (0, 3, 4))
        assert res.n_cells == 40
        assert res.n_blocks == 40
        assert res.total_ms > 0
        assert res.mapper == "naive"

    def test_range_result_counts(self, setup):
        vol, naive, sm, dims = setup
        res = sm.range(naive, (0, 0, 0), (10, 5, 5))
        assert res.n_cells == 250
        assert res.n_blocks >= 250  # gap coalescing may read extra

    def test_breakdown_sums(self, setup):
        vol, naive, sm, dims = setup
        res = sm.range(naive, (0, 0, 0), (10, 5, 5))
        parts = res.seek_ms + res.rotation_ms + res.transfer_ms + res.switch_ms
        # remainder is per-command overhead
        assert parts <= res.total_ms + 1e-9

    def test_ms_per_cell(self, setup):
        vol, naive, sm, dims = setup
        res = sm.beam(naive, 1, (5, 0, 5))
        assert res.ms_per_cell == pytest.approx(res.total_ms / 12)

    def test_run_query_dispatch_beam(self, setup):
        vol, naive, sm, dims = setup
        q = BeamQuery(axis=0, fixed=(0, 1, 1))
        res = sm.run_query(naive, q)
        assert res.n_cells == 40

    def test_run_query_dispatch_range(self, setup):
        vol, naive, sm, dims = setup
        q = RangeQuery(lo=(0, 0, 0), hi=(5, 5, 5))
        res = sm.run_query(naive, q)
        assert res.n_cells == 125

    def test_run_query_rejects_unknown(self, setup):
        vol, naive, sm, dims = setup
        with pytest.raises(QueryError):
            sm.run_query(naive, object())

    def test_rng_randomises_start_position(self, setup, small_model):
        vol, naive, sm, dims = setup
        r1 = sm.beam(naive, 1, (5, 0, 5), rng=np.random.default_rng(1))
        r2 = sm.beam(naive, 1, (5, 0, 5), rng=np.random.default_rng(99))
        # different head positions -> different initial positioning
        assert r1.total_ms != pytest.approx(r2.total_ms, abs=1e-9)

    def test_deterministic_given_seed(self, small_model):
        def run():
            vol = LogicalVolume([small_model], depth=16)
            m = NaiveMapper((40, 12, 10), vol.allocate_blocks(0, 4800))
            sm = StorageManager(vol)
            return sm.range(
                m, (0, 0, 0), (20, 6, 5), rng=np.random.default_rng(7)
            ).total_ms

        assert run() == pytest.approx(run())


class TestPolicyHandling:
    def test_multimap_range_uses_sptf(self, small_model):
        vol = LogicalVolume([small_model], depth=16)
        mm = MultiMapMapper((40, 12, 10), vol)
        sm = StorageManager(vol)
        res = sm.range(mm, (0, 0, 0), (30, 10, 8))
        assert res.policy == "sptf"

    def test_sptf_clamp_on_large_batches(self, small_model):
        vol = LogicalVolume([small_model], depth=16)
        mm = MultiMapMapper((40, 12, 10), vol)
        sm = StorageManager(vol, sptf_run_limit=3)
        res = sm.range(mm, (0, 0, 0), (30, 10, 8))
        assert res.policy == "sorted"

    @pytest.mark.parametrize("window", [0, -3])
    def test_window_below_one_rejected(self, small_model, window):
        vol = LogicalVolume([small_model], depth=16)
        with pytest.raises(QueryError, match="window"):
            StorageManager(vol, window=window)

    def test_beam_plans_never_merge_gaps(self, small_model):
        """Beams must fetch exactly their blocks (paper issues per-block
        requests); n_blocks must equal the beam length."""
        vol = LogicalVolume([small_model], depth=16)
        m = ZOrderMapper((16, 16, 16), vol.allocate_blocks(0, 4096))
        sm = StorageManager(vol, coalesce_gap_blocks=1000)
        res = sm.beam(m, 1, (3, 0, 9))
        assert res.n_blocks == 16

    def test_range_plans_merge_small_gaps(self, small_model):
        vol = LogicalVolume([small_model], depth=16)
        m = NaiveMapper((10, 50, 1), vol.allocate_blocks(0, 500))
        # rows of 5 with gap 5: generous threshold merges all rows
        sm = StorageManager(vol, coalesce_gap_blocks=6)
        res = sm.range(m, (0, 0, 0), (5, 50, 1))
        assert res.n_runs == 1

    def test_zero_gap_threshold(self, small_model):
        vol = LogicalVolume([small_model], depth=16)
        m = NaiveMapper((10, 50, 1), vol.allocate_blocks(0, 500))
        sm = StorageManager(vol, coalesce_gap_blocks=0)
        res = sm.range(m, (0, 0, 0), (5, 50, 1))
        assert res.n_runs == 50


class TestRelativePerformance:
    """End-to-end sanity of the paper's core comparisons on a small disk."""

    def test_multimap_beats_naive_on_nonprimary_beams(self, small_model):
        dims = (100, 16, 12)
        voln = LogicalVolume([small_model], depth=16)
        naive = NaiveMapper(dims, voln.allocate_blocks(0, int(np.prod(dims))))
        smn = StorageManager(voln)
        volm = LogicalVolume([small_model], depth=16)
        mm = MultiMapMapper(dims, volm, strategy="volume")
        smm = StorageManager(volm)
        rng1, rng2 = np.random.default_rng(3), np.random.default_rng(3)
        t_naive = sum(
            smn.beam(naive, 2, (5, 5, 0), rng=rng1).total_ms
            for _ in range(3)
        )
        t_mm = sum(
            smm.beam(mm, 2, (5, 5, 0), rng=rng2).total_ms for _ in range(3)
        )
        assert t_mm < t_naive

    def test_streaming_equal_for_naive_and_multimap(self, small_model):
        dims = (100, 16, 12)
        voln = LogicalVolume([small_model], depth=16)
        naive = NaiveMapper(dims, voln.allocate_blocks(0, int(np.prod(dims))))
        volm = LogicalVolume([small_model], depth=16)
        mm = MultiMapMapper(dims, volm)
        rng1, rng2 = np.random.default_rng(3), np.random.default_rng(3)
        t_naive = StorageManager(voln).beam(
            naive, 0, (0, 5, 5), rng=rng1
        ).total_ms
        t_mm = StorageManager(volm).beam(mm, 0, (0, 5, 5), rng=rng2).total_ms
        assert t_mm < t_naive * 1.8
