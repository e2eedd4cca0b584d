"""Engine behaviour: queueing, slicing, open loops."""

import numpy as np
import pytest

from repro.errors import QueryError
from repro.mappings.base import RequestPlan
from repro.query.scheduler import slice_plan
from repro.query.workload import BeamQuery, RangeQuery
from repro.traffic import (
    ClosedLoop,
    PoissonArrivals,
    QueryMix,
    Replay,
    TrafficClient,
    TrafficConfig,
    TrafficReport,
    TrafficSim,
)


class TestConfig:
    def test_rejects_bad_slice_runs(self):
        with pytest.raises(QueryError):
            TrafficConfig(slice_runs=0)

    def test_none_slice_runs_ok(self):
        assert TrafficConfig(slice_runs=None).slice_runs is None

    # 2.5 and nan used to fail at run time in a bare TypeError from
    # slice_plan, "4" in a bare TypeError, and True sliced one run at a
    # time
    @pytest.mark.parametrize("bad", [2.5, float("nan"), "4", True])
    def test_rejects_non_integer_slice_runs(self, bad):
        with pytest.raises(QueryError, match="slice_runs"):
            TrafficConfig(slice_runs=bad)

    def test_numpy_slice_runs_stored_as_int(self):
        n = TrafficConfig(slice_runs=np.int64(8)).slice_runs
        assert n == 8 and type(n) is int

    @pytest.mark.parametrize("bad", [2.5, float("nan"), "4", True])
    def test_run_rejects_bad_slice_runs_before_drawing(self, make_dataset,
                                                       bad):
        """A rejected run leaves the dataset's generator stream alone:
        the next run replays a fresh same-seed dataset's first run."""
        ds = make_dataset()
        with pytest.raises(QueryError, match="slice_runs"):
            ds.traffic().clients(2, queries=3).slice_runs(bad).run()
        got = ds.traffic().clients(2, queries=3).slice_runs(8).run()
        want = make_dataset().traffic().clients(2, queries=3).slice_runs(
            8).run()
        assert got.to_dict() == want.to_dict()

    @pytest.mark.parametrize("max_runs", [0, -1])
    def test_slice_plan_below_one_raises_query_error(self, max_runs):
        plan = RequestPlan(np.arange(0, 30, 3), np.ones(10, dtype=np.int64))
        for p in (plan, RequestPlan(plan.starts[:0], plan.lengths[:0])):
            with pytest.raises(QueryError, match="max_runs"):
                slice_plan(p, max_runs)


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
            .clients(1, arrival=ClosedLoop(think_ms=100.0), queries=3)
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


class TestOpenLoop:
    def test_poisson_queue_buildup(self, make_dataset):
        """Arrivals faster than service -> waiting grows."""
        rep = (
            make_dataset().traffic()
            .clients(1, arrival=PoissonArrivals(rate_qps=200),
                     queries=10, mix=QueryMix.beams(1))
            .run()
        )
        assert len(rep) == 10
        # open loop: later queries wait behind earlier ones
        assert rep.aggregate()["mean_queue_ms"] > 0


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


class TestMetaGating:
    """A storm only reads: its meta carries no ingest block, and its
    failure block no write counter."""

    def test_no_ingest_client_no_ingest_meta(self, make_dataset):
        ds = make_dataset().with_shards(2)
        rep = ds.traffic().clients(1, queries=3).run()
        assert "ingest" not in rep.meta
        assert "failures" not in rep.meta

    def test_read_only_failures_have_no_write_counter(self, make_dataset):
        ds = make_dataset().with_shards(2).with_replication(2)
        rep = (
            ds.traffic().clients(2, queries=4).kill(5.0, 1).run()
        )
        assert "dropped_write_subs" not in rep.meta["failures"]


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

    def test_zero_trace_report_still_renders(self):
        # every client submits all of its queries, so an empty report
        # is built directly
        rep = TrafficReport(traces=(), drives=(), makespan_ms=0.0)
        assert len(rep) == 0
        table = rep.render_table()
        assert "TOTAL" in table and "-" in table
        str(rep)
        rep.to_json()
