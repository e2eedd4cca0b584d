"""TrafficRun builder API, storm sweeps, and the CLI subcommand."""

import json

import numpy as np
import pytest

from repro.api import Dataset, TrafficRun
from repro.errors import QueryError
from repro.traffic import QueryMix, Replay, render_storm, run_storm

SHAPE = (24, 12, 12)


@pytest.fixture()
def ds(small_model):
    return Dataset.create(SHAPE, layout="multimap", drive=small_model,
                          seed=42)


class TestBuilder:
    def test_facade_exports(self):
        import repro

        assert repro.TrafficRun is TrafficRun
        assert "TrafficReport" in dir(repro)

    def test_traffic_returns_builder(self, ds):
        run = ds.traffic()
        assert isinstance(run, TrafficRun)
        assert len(run) == 0

    def test_client_naming(self, ds):
        run = (
            ds.traffic()
            .clients(2)
            .clients(1, name="vip")
            .clients(2, name="batch")
        )
        rep = run.run()
        assert rep.client_names() == ("c0", "c1", "vip", "batch0",
                                      "batch1")

    def test_default_mix_skips_streaming_axis(self, ds):
        rep = ds.traffic().clients(1, queries=6).run()
        labels = {tr.label for tr in rep.traces}
        assert labels <= {"beam[axis=1]", "beam[axis=2]"}

    def test_arrival_shorthands(self, ds):
        run = (
            ds.traffic()
            .closed(1, think_ms=5.0, queries=2)
            .poisson(1, rate_qps=100, queries=2)
            .bursty(1, burst_rate_per_s=50, queries=2)
        )
        rep = run.run()
        models = [c["arrival"]["model"] for c in rep.meta["clients"]]
        assert models == ["closed", "poisson", "bursty"]
        assert len(rep) == 6

    def test_rejects_zero_clients(self, ds):
        with pytest.raises(QueryError):
            ds.traffic().clients(0)

    def test_replay_mix_accepted(self, ds):
        from repro.query.workload import BeamQuery

        rep = (
            ds.traffic()
            .clients(1, mix=Replay([BeamQuery(1, (2, 0, 3))]),
                     queries=3)
            .run()
        )
        assert all(tr.label == "beam[axis=1]" for tr in rep.traces)

    def test_meta_records_dataset_and_seed(self, ds):
        rep = ds.traffic().clients(1, queries=2).run()
        assert rep.meta["seed"] == 42
        assert rep.meta["dataset"]["layout"] == "multimap"
        assert rep.meta["dataset"]["shape"] == list(SHAPE)

    def test_explicit_rng_multi_client(self, small_model):
        d1 = Dataset.create(SHAPE, layout="multimap", drive=small_model)
        d2 = Dataset.create(SHAPE, layout="multimap", drive=small_model)
        a = (d1.traffic().clients(3, queries=3)
             .run(rng=np.random.default_rng(5)))
        b = (d2.traffic().clients(3, queries=3)
             .run(rng=np.random.default_rng(5)))
        assert a.to_json() == b.to_json()


class TestStorm:
    def test_sweep_structure_and_render(self, small_model):
        data = run_storm(
            SHAPE,
            layouts=("naive", "multimap"),
            clients=(1, 2),
            drive=small_model,
            queries=3,
            seed=1,
        )
        assert set(data) == {"naive", "multimap", "meta"}
        for layout in ("naive", "multimap"):
            assert set(data[layout]) == {1, 2}
            for agg in data[layout].values():
                assert agg["throughput_qps"] > 0
                assert "p95" in agg["latency_ms"]
        text = render_storm(data)
        assert "throughput" in text
        for pct in ("p50", "p95", "p99"):
            assert f"{pct} latency" in text

    def test_same_streams_across_layouts(self, small_model):
        """Fairness: client k draws identical queries per layout cell."""
        data = run_storm(
            SHAPE,
            layouts=("naive", "multimap"),
            clients=(2,),
            drive=small_model,
            queries=4,
            seed=3,
        )
        assert (
            data["naive"][2]["served_blocks"]
            == data["multimap"][2]["served_blocks"]
        )


class TestCliTraffic:
    def test_subcommand_runs(self, capsys):
        from repro.bench.cli import main

        rc = main([
            "traffic", "--shape", "16,8,8", "--clients", "1,2",
            "--queries", "2", "--layouts", "naive,multimap",
            "--slice-runs", "4",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "throughput" in out and "multimap" in out

    def test_subcommand_json_out(self, tmp_path, capsys):
        from repro.bench.cli import main

        out = tmp_path / "storm.json"
        rc = main([
            "traffic", "--shape", "16,8,8", "--clients", "1",
            "--queries", "2", "--layouts", "multimap",
            "--quiet", "--json", str(out),
            "--mix", "beam:1,range:5.0", "--arrival", "poisson",
            "--rate", "100",
        ])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["meta"]["mix"] == "beam:1+range:5"
        assert payload["meta"]["arrival"]["model"] == "poisson"
        assert "multimap" in payload

    def test_rejects_bad_mix(self):
        from repro.bench.cli import main

        with pytest.raises(SystemExit):
            main(["traffic", "--mix", "diagonal:3"])
