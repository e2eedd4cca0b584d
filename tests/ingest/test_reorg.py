"""Background reorganisation: chain folding, the window, interference."""

import json

import numpy as np
import pytest

from repro.api import Dataset
from repro.errors import IngestError
from repro.ingest.loader import resolve_loader
from repro.ingest.pipeline import IngestPipeline
from repro.ingest.reorg import plan_reorganize
from repro.ingest.streams import UniformStream

SHAPE = (16, 8, 8)


def overflowing_pipeline(small_model, *, shards=2, ppc=1):
    """A pipeline whose flush left chains hanging off hot cells."""
    ds = Dataset.create(SHAPE, layout="zorder", drive=small_model,
                        seed=5)
    if shards:
        ds = ds.with_shards(shards)
    stream = UniformStream(SHAPE, n_points=8, seed=1)
    plan = resolve_loader("fixed").fn(ds, stream, points_per_cell=ppc)
    pipe = IngestPipeline(ds, stream, plan, flush_points=1)
    coords = np.repeat([[0, 0, 0], [15, 7, 7]], 6, axis=0)
    pipe.stage(coords)
    pipe.build_flush(pipe.drain_disks())
    return pipe


class TestPlanReorganize:
    def test_nothing_to_do_returns_none(self, small_model):
        # 6 points per cell: above the reclaim floor, below capacity —
        # no chains and no underflow, so there is nothing to fold
        pipe = overflowing_pipeline(small_model, ppc=8)
        assert not pipe.needs_reorganization
        assert plan_reorganize(pipe) is None

    def test_folds_chains_back_into_cells(self, small_model):
        pipe = overflowing_pipeline(small_model)
        assert any(s.chained_cells().size for s in pipe.stores)
        report = plan_reorganize(pipe)
        assert report is not None
        assert report.pages_freed > 0
        assert report.n_blocks > 0
        assert all(s.chained_cells().size == 0 for s in pipe.stores)

    def test_models_io_on_every_touched_disk(self, small_model):
        pipe = overflowing_pipeline(small_model)
        report = plan_reorganize(pipe)
        touched = {
            pipe.chunks[ci].disk for ci in report.chunks
        }
        assert set(report.io_ms_by_disk) == touched
        assert all(ms > 0 for ms in report.io_ms_by_disk.values())

    def test_window_is_the_ideal_makespan(self, small_model):
        """The window is the busiest disk's I/O time; the payload keeps
        its ``ideal_ms`` key beside it and a ``throttle`` of 1.0."""
        report = plan_reorganize(overflowing_pipeline(small_model))
        assert report.reorg_ms == max(report.io_ms_by_disk.values())
        payload = report.to_dict()
        assert payload["ideal_ms"] == payload["reorg_ms"] == report.reorg_ms
        assert payload["throttle"] == 1.0

    def test_throttle_validation(self, small_model):
        """The throttle is retired: a reorganisation takes only its
        pipeline, and a run refuses the keyword when it is built."""
        pipe = overflowing_pipeline(small_model)
        with pytest.raises(TypeError, match="throttle"):
            plan_reorganize(pipe, throttle=0.5)
        with pytest.raises(IngestError, match="unknown .* 'throttle'"):
            pipe.dataset.ingest(reorganize=True, throttle=0.5)

    def test_foreground_head_state_is_untouched(self, small_model):
        """The background model runs on fresh drive instances."""
        pipe = overflowing_pipeline(small_model)
        drives = pipe.storage.volume.drives
        before = [(d._track, d._time_ms) for d in drives]
        plan_reorganize(pipe)
        assert [(d._track, d._time_ms) for d in drives] == before


class TestReorgReport:
    def test_interference_reuses_the_rebuild_dilation(self, small_model):
        report = plan_reorganize(overflowing_pipeline(small_model))
        profile = report.interference()
        assert set(profile) == set(report.io_ms_by_disk)
        for disk, row in profile.items():
            assert 0 < row["busy_frac"] < 1
            assert row["foreground_dilation"] >= 1.0
            assert row["foreground_dilation"] == pytest.approx(
                1.0 / (1.0 - row["busy_frac"])
            )

    def test_to_dict_round_trips_through_json(self, small_model):
        report = plan_reorganize(overflowing_pipeline(small_model))
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["pages_freed"] == report.pages_freed
        assert payload["throttle"] == 1.0
        assert payload["reorg_ms"] == pytest.approx(report.reorg_ms)
        assert set(payload["interference"]) == {
            str(d) for d in report.io_ms_by_disk
        }
