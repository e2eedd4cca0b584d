"""The ingest sweep: layouts x loaders under one seeded stream."""

import json

import pytest

from repro.ingest import render_ingest_sweep, run_ingest_sweep

SHAPE = (16, 8, 8)
QUICK = dict(
    stream="clustered",
    n_points=512,
    batch_points=128,
    flush_points=256,
    n_shards=2,
    seed=42,
)


@pytest.fixture(scope="module")
def data(small_model):
    return run_ingest_sweep(
        SHAPE,
        layouts=("naive", "multimap"),
        loaders=("fixed",),
        drive=small_model,
        **QUICK,
    )


class TestRunIngestSweep:
    def test_structure(self, data):
        assert set(data) == {"naive", "multimap", "meta"}
        for layout in ("naive", "multimap"):
            cell = data[layout]["fixed"]
            assert cell["mb_per_s"] > 0
            assert cell["total_ms"] > 0
            assert cell["flushes"] >= 1
            assert cell["home_blocks"] > 0
            assert cell["plan"]["points_per_cell"] >= 1

    def test_meta_records_parameters(self, data):
        meta = data["meta"]
        assert meta["shape"] == list(SHAPE)
        assert meta["stream"] == "clustered"
        assert meta["n_points"] == 512
        assert meta["n_shards"] == 2
        assert meta["layouts"] == ["naive", "multimap"]
        assert meta["loaders"] == ["fixed"]

    def test_payload_is_json_serialisable(self, data):
        json.dumps(data)

    def test_cells_replay_identically(self, small_model):
        def one():
            return run_ingest_sweep(
                SHAPE, layouts=("zorder",), loaders=("fixed",),
                drive=small_model, **QUICK,
            )["zorder"]["fixed"]

        assert one() == one()


class TestRenderIngestSweep:
    def test_tables_name_every_layout_and_loader(self, data):
        out = render_ingest_sweep(data)
        assert "ingest goodput (MB/s) per loader" in out
        assert "overflowed points per loader" in out
        assert "write makespan (ms) per loader" in out
        assert "naive" in out and "multimap" in out
        assert "fixed MB/s" in out
