"""TrafficRun builder API, storm sweeps, and the CLI subcommand."""

import json

import numpy as np
import pytest

from repro.api import Dataset, TrafficRun
from repro.errors import QueryError
from repro.traffic import (
    BeamDraw,
    ClosedLoop,
    PoissonArrivals,
    QueryMix,
    RangeDraw,
    Replay,
    render_storm,
    run_storm,
)

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
        """The ``closed`` / ``poisson`` / ``bursty`` shorthands are gone:
        each arrival model is one ``clients(arrival=...)`` call."""
        assert not any(hasattr(TrafficRun, name)
                       for name in ("closed", "poisson", "bursty"))
        run = (
            ds.traffic()
            .clients(1, arrival=ClosedLoop(think_ms=5.0), queries=2)
            .clients(1, arrival=PoissonArrivals(rate_qps=100), queries=2)
        )
        rep = run.run()
        models = [c["arrival"]["model"] for c in rep.meta["clients"]]
        assert models == ["closed", "poisson"]
        assert len(rep) == 4

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


class TestMixSelection:
    def test_part_is_numpy_searchsorted_pick(self):
        """A multi-part mix bisects its cumulative weights: the part
        ``np.searchsorted(..., side="right")`` picks, clamped, for every
        uniform draw, the edges and the top included."""
        mix = QueryMix([BeamDraw(0, 1.0), BeamDraw(1, 3.0),
                        BeamDraw(2, 0.5), RangeDraw(10.0, 2.5)])
        cum = np.cumsum(np.array([1.0, 3.0, 0.5, 2.5]) / 7.0)
        draws = [0.0, *cum.tolist(), np.nextafter(cum[0], 0.0),
                 np.nextafter(cum[-1], 0.0),
                 *np.random.default_rng(2).random(500).tolist()]
        for u in draws:
            want = min(int(np.searchsorted(cum, u, side="right")), 3)
            rng = _FixedDraw(u)
            got = mix.draw((8, 8, 8), rng, 0)
            part = mix.parts[want]
            assert got == part.draw((8, 8, 8), _FixedDraw(None)), u


class _FixedDraw:
    """A generator stand-in: ``random()`` returns ``u``; a part's own
    draws return zeros."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u

    def integers(self, low, high=None):
        return 0


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


class TestTypedWorkloadInputs:
    """A mix's axes and selectivities, and a batch's range selectivity,
    are checked when they are built (:class:`QueryError`)."""

    def test_beam_axis_float(self):
        # used to run as axis 1
        with pytest.raises(QueryError, match="axis must be an integer"):
            QueryMix.beams(1.5)

    def test_beam_axis_bool(self):
        # used to run as axis 1
        with pytest.raises(QueryError, match="axis must be an integer"):
            QueryMix.beams(True)

    def test_beam_axis_negative(self):
        with pytest.raises(QueryError, match="axis must be >= 0"):
            QueryMix.beams(-1)

    def test_range_selectivity_string(self):
        # used to raise a bare ValueError
        with pytest.raises(QueryError, match="selectivity must be a number"):
            QueryMix.ranges("x")

    def test_range_selectivity_zero(self):
        # used to fail only at run
        with pytest.raises(QueryError, match=r"\(0, 100\]"):
            QueryMix.ranges(0)

    def test_range_selectivity_nan(self):
        # used to fail only at run
        with pytest.raises(QueryError, match="selectivity must be finite"):
            QueryMix.ranges(float("nan"))

    def test_batch_selectivity_string(self, ds):
        # used to raise a bare TypeError
        with pytest.raises(QueryError, match="selectivity must be a number"):
            ds.range_selectivity("x")

    def test_batch_selectivity_bool(self, ds):
        # used to run a 1 % cube
        with pytest.raises(QueryError, match="selectivity must be a number"):
            ds.range_selectivity(True)

    def test_cli_rate_nan(self, capsys):
        # used to exit 0 with NaN latencies and 0.0 throughput, then to
        # end in the arrival model's QueryError; argparse refuses it now
        from repro.bench.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["traffic", "--shape", "16,8,8", "--clients", "1",
                  "--queries", "2", "--layouts", "naive", "--quiet",
                  "--arrival", "poisson", "--rate", "nan"])
        assert exc.value.code == 2
        assert "rate_qps must be finite" in capsys.readouterr().err
