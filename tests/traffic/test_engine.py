"""Engine behaviour: queueing, slicing, head modes, horizons."""

import numpy as np
import pytest

from repro.errors import QueryError
from repro.query.workload import BeamQuery, RangeQuery
from repro.traffic import (
    ClosedLoop,
    PoissonArrivals,
    QueryMix,
    Replay,
    TrafficClient,
    TrafficConfig,
    TrafficSim,
)


class TestConfig:
    def test_rejects_bad_head(self):
        with pytest.raises(QueryError):
            TrafficConfig(head="sideways")

    def test_rejects_bad_slice_runs(self):
        with pytest.raises(QueryError):
            TrafficConfig(slice_runs=0)

    def test_none_slice_runs_ok(self):
        assert TrafficConfig(slice_runs=None).slice_runs is None


class TestSingleClient:
    def test_trace_fields(self, make_dataset):
        ds = make_dataset()
        rep = (
            ds.traffic()
            .clients(1, mix=QueryMix.beams(1), queries=4)
            .run()
        )
        assert len(rep) == 4
        for tr in rep:
            assert tr.client == "c0"
            assert tr.label == "beam[axis=1]"
            assert tr.completion_ms >= tr.start_ms >= tr.arrival_ms
            assert tr.service_ms > 0
            assert tr.n_blocks == tr.n_cells  # one block per cell
            assert tr.latency_ms == pytest.approx(
                tr.service_ms + tr.queue_ms
            )

    def test_closed_loop_no_queueing(self, make_dataset):
        """A lone zero-think client never waits behind anyone."""
        rep = (
            make_dataset().traffic()
            .clients(1, queries=5)
            .slice_runs(None)
            .run()
        )
        for tr in rep:
            assert tr.queue_ms == pytest.approx(0.0, abs=1e-9)

    def test_think_time_spaces_arrivals(self, make_dataset):
        rep = (
            make_dataset().traffic()
            .closed(1, think_ms=100.0, queries=3)
            .run()
        )
        arr = [tr.arrival_ms for tr in rep.traces]
        comp = [tr.completion_ms for tr in rep.traces]
        assert arr[1] == pytest.approx(comp[0] + 100.0)
        assert arr[2] == pytest.approx(comp[1] + 100.0)


class TestContention:
    def test_queueing_appears_under_load(self, make_dataset):
        rep = (
            make_dataset().traffic()
            .clients(4, mix=QueryMix.beams(1), queries=4)
            .run()
        )
        agg = rep.aggregate()
        assert agg["mean_queue_ms"] > 0
        assert rep.drives[0].utilization(rep.makespan_ms) <= 1.0 + 1e-9

    def test_slices_interleave_between_clients(self, make_dataset):
        """With tiny slices, a range query is split and other clients'
        queries complete inside its submission->completion window."""
        ds = make_dataset()
        rep = (
            ds.traffic()
            .clients(1, mix=QueryMix.ranges(20.0), queries=1,
                     name="big")
            .clients(3, mix=QueryMix.beams(1), queries=3)
            .slice_runs(4)
            .run()
        )
        big = rep.for_client("big")[0]
        assert big.n_slices > 1
        inside = [
            tr for tr in rep.traces
            if tr.client != "big"
            and big.start_ms < tr.completion_ms < big.completion_ms
        ]
        assert inside, "no other query completed inside the big query"

    def test_total_blocks_conserved(self, make_dataset):
        rep = (
            make_dataset().traffic()
            .clients(3, mix=QueryMix.beams(1), queries=5)
            .run()
        )
        from_traces = sum(tr.n_blocks for tr in rep.traces)
        from_drives = sum(d.served_blocks for d in rep.drives)
        assert from_traces == from_drives
        assert from_drives == 3 * 5 * 12  # beams along axis 1, dim=12

    def test_busy_ms_matches_service(self, make_dataset):
        rep = (
            make_dataset().traffic()
            .clients(2, queries=4)
            .run()
        )
        total_service = sum(tr.service_ms for tr in rep.traces)
        total_busy = sum(d.busy_ms for d in rep.drives)
        assert total_busy == pytest.approx(total_service)


class TestHeadModes:
    def test_carry_mode_runs(self, make_dataset):
        rep = (
            make_dataset().traffic()
            .clients(2, queries=4)
            .head("carry")
            .run()
        )
        assert len(rep) == 8

    def test_carry_differs_from_random(self, make_dataset):
        r1 = make_dataset(seed=3).traffic().clients(1, queries=5).run()
        r2 = (
            make_dataset(seed=3).traffic().clients(1, queries=5)
            .head("carry").run()
        )
        lat1 = [tr.latency_ms for tr in r1.traces]
        lat2 = [tr.latency_ms for tr in r2.traces]
        assert lat1 != lat2


class TestOpenLoop:
    def test_poisson_queue_buildup(self, make_dataset):
        """Arrivals faster than service -> waiting grows."""
        rep = (
            make_dataset().traffic()
            .poisson(1, rate_qps=200, queries=10,
                     mix=QueryMix.beams(1))
            .run()
        )
        assert len(rep) == 10
        # open loop: later queries wait behind earlier ones
        assert rep.aggregate()["mean_queue_ms"] > 0

    def test_horizon_cuts_submissions(self, make_dataset):
        ds = make_dataset()
        full = (
            ds.traffic()
            .poisson(1, rate_qps=100, queries=50)
            .run()
        )
        cut = (
            make_dataset().traffic()
            .poisson(1, rate_qps=100, queries=50)
            .horizon(full.makespan_ms / 4)
            .run()
        )
        assert 0 < len(cut) < len(full)


class TestReplayMix:
    def test_cycles_fixed_queries(self, make_dataset):
        ds = make_dataset()
        queries = [
            BeamQuery(axis=1, fixed=(0, 0, 3)),
            RangeQuery(lo=(0, 0, 0), hi=(4, 4, 4)),
        ]
        rep = (
            ds.traffic()
            .clients(1, mix=Replay(queries), queries=4)
            .run()
        )
        labels = [tr.label for tr in rep.traces]
        assert labels == [
            "beam[axis=1]", "range(4, 4, 4)",
            "beam[axis=1]", "range(4, 4, 4)",
        ]


class TestEngineValidation:
    def test_needs_clients(self):
        with pytest.raises(QueryError):
            TrafficSim([])

    def test_unique_names(self, make_dataset):
        ds = make_dataset()
        mk = lambda name: TrafficClient(
            name=name, storage=ds.storage, mapper=ds.mapper,
            mix=QueryMix.beams(1), rng=np.random.default_rng(0),
        )
        with pytest.raises(QueryError):
            TrafficSim([mk("a"), mk("a")])

    def test_run_requires_client(self, make_dataset):
        with pytest.raises(QueryError):
            make_dataset().traffic().run()

    def test_rejects_hand_wired_single_disk_manager(self, make_dataset):
        """The engine reads sub-plans and failure state off a dataset's
        manager; a bare StorageManager fails typed, at construction."""
        from repro.query import StorageManager

        ds = make_dataset()
        client = TrafficClient(
            name="a", storage=StorageManager(ds.volume), mapper=ds.mapper,
            mix=QueryMix.beams(1), rng=np.random.default_rng(0),
        )
        with pytest.raises(QueryError, match="ShardedStorageManager"):
            TrafficSim([client])


class TestReportShape:
    def test_render_and_str(self, make_dataset):
        rep = make_dataset().traffic().clients(2, queries=3).run()
        table = rep.render_table()
        assert "TOTAL" in table and "disk0" in table
        assert "q/s" in str(rep)

    def test_to_dict_layout(self, make_dataset):
        d = make_dataset().traffic().clients(2, queries=3).run().to_dict()
        assert set(d) == {
            "meta", "makespan_ms", "aggregate", "clients", "drives",
            "traces",
        }
        assert d["meta"]["config"]["head"] == "random"
        assert [c["name"] for c in d["meta"]["clients"]] == ["c0", "c1"]
        agg = d["aggregate"]
        assert agg["n_queries"] == 6
        for key in ("p50", "p90", "p95", "p99"):
            assert key in agg["latency_ms"]

    def test_traces_off(self, make_dataset):
        rep = (
            make_dataset().traffic().clients(1, queries=3)
            .traces(False).run()
        )
        assert len(rep) == 0
        assert rep.drives[0].served_blocks > 0

    def test_zero_trace_report_still_renders(self, make_dataset):
        rep = (
            make_dataset().traffic().clients(1, queries=3)
            .traces(False).run()
        )
        table = rep.render_table()
        assert "TOTAL" in table and "-" in table
        str(rep)
        rep.to_json()
