"""Bulk loaders: the fixed defaults and the adaptive sampling plan."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Dataset
from repro.errors import IngestError
from repro.ingest.loader import (
    LOADERS,
    IngestPlan,
    _linear_quantile,
    loader_names,
    resolve_loader,
)
from repro.ingest.streams import ClusteredStream, UniformStream

SHAPE = (16, 8, 8)


@pytest.fixture()
def plain(small_model):
    return Dataset.create(SHAPE, layout="zorder", drive=small_model,
                          seed=5)


@pytest.fixture()
def sharded(small_model):
    return Dataset.create(SHAPE, layout="zorder", drive=small_model,
                          seed=5).with_shards(2)


class TestRegistry:
    def test_builtins_registered(self):
        assert "fixed" in loader_names()
        assert "adaptive" in loader_names()

    def test_resolve_by_name_and_entry(self):
        """A loader resolves by registered name only: its entry is
        refused."""
        entry = LOADERS.get("fixed")
        assert resolve_loader("fixed") is entry
        with pytest.raises(IngestError, match="unknown loader spec"):
            resolve_loader(entry)

    def test_resolve_rejects_unknown_spec(self):
        with pytest.raises(IngestError, match="unknown loader spec"):
            resolve_loader(3.14)

    def test_entries_carry_descriptions(self):
        for name in loader_names():
            assert LOADERS.get(name).description


class TestFixedLoader:
    def test_keeps_configured_defaults(self, plain):
        stream = UniformStream(SHAPE, n_points=128, seed=1)
        plan = LOADERS.get("fixed").fn(plain, stream)
        assert isinstance(plan, IngestPlan)
        assert plan.points_per_cell == 16
        assert plan.fill_factor == 1.0
        assert plan.chunk_shape is None

    def test_honours_overrides(self, plain):
        stream = UniformStream(SHAPE, n_points=128, seed=1)
        plan = LOADERS.get("fixed").fn(plain, stream,
                                       points_per_cell=4,
                                       fill_factor=0.5)
        assert plan.points_per_cell == 4
        assert plan.fill_factor == 0.5


class TestAdaptiveLoader:
    def test_ppc_never_below_configured_floor(self, plain):
        stream = UniformStream(SHAPE, n_points=64, seed=2)
        plan = LOADERS.get("adaptive").fn(plain, stream,
                                          points_per_cell=16)
        assert plan.points_per_cell >= 16

    def test_sizes_cells_to_clustered_density(self, plain):
        """A hot clustered stream needs bigger cells than a uniform one
        of the same size — the density estimate must see the skew."""
        n = 2048
        hot = ClusteredStream(SHAPE, n_points=n, seed=3, n_clusters=2,
                              spread=0.02)
        flat = UniformStream(SHAPE, n_points=n, seed=3)
        fn = LOADERS.get("adaptive").fn
        assert fn(plain, hot).points_per_cell \
            > fn(plain, flat).points_per_cell

    def test_no_chunk_shape_when_unsharded(self, plain):
        stream = ClusteredStream(SHAPE, n_points=256, seed=4)
        plan = LOADERS.get("adaptive").fn(plain, stream)
        assert plan.chunk_shape is None
        assert plan.meta["split_axis"] is None

    def test_chunk_shape_slabs_one_axis_when_sharded(self, sharded):
        stream = ClusteredStream(SHAPE, n_points=256, seed=4)
        plan = LOADERS.get("adaptive").fn(sharded, stream)
        shape = plan.chunk_shape
        assert shape is not None and len(shape) == len(SHAPE)
        axis = plan.meta["split_axis"]
        for d, (s, full) in enumerate(zip(shape, SHAPE)):
            if d == axis:
                assert s == -(-full // 2)
            else:
                assert s == full

    def test_sampling_does_not_disturb_the_stream(self, plain):
        import numpy as np

        stream = ClusteredStream(SHAPE, n_points=256, seed=6)
        before = np.concatenate(list(stream.batches()))
        LOADERS.get("adaptive").fn(plain, stream)
        after = np.concatenate(list(stream.batches()))
        assert np.array_equal(before, after)

    def test_validates_quantile_and_headroom(self, plain):
        stream = UniformStream(SHAPE, n_points=64, seed=7)
        fn = LOADERS.get("adaptive").fn
        with pytest.raises(IngestError):
            fn(plain, stream, quantile=0.0)
        with pytest.raises(IngestError):
            fn(plain, stream, quantile=1.5)
        with pytest.raises(IngestError):
            fn(plain, stream, headroom=0.5)

    def test_plan_describe_round_trips(self, sharded):
        stream = ClusteredStream(SHAPE, n_points=256, seed=8)
        plan = LOADERS.get("adaptive").fn(sharded, stream)
        out = plan.describe()
        assert out["points_per_cell"] == plan.points_per_cell
        assert out["chunk_shape"] == list(plan.chunk_shape)
        assert out["loader"] == "adaptive"
        assert out["sampled_points"] == 256


class TestLinearQuantile:
    """The adaptive loader's order statistic against ``np.quantile``."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.integers(0, 5000), min_size=1, max_size=600),
        st.floats(0.0, 1.0, exclude_min=True),
    )
    def test_equals_numpy_quantile(self, values, q):
        import numpy as np

        assert _linear_quantile(np.array(values), q) == float(
            np.quantile(np.array(values), q))

    @pytest.mark.parametrize("q", [0.98, 0.5, 1.0, 1e-9])
    def test_one_value_and_the_default_quantile(self, q):
        import numpy as np

        for values in ([7], [3, 3], [1, 9], list(range(100, 0, -1))):
            assert _linear_quantile(np.array(values), q) == float(
                np.quantile(np.array(values), q))

    def test_ingest_run_does_not_load_numpy_ma(self):
        """``np.quantile`` imports ``numpy.ma`` on first use; a cold
        adaptive ingest (the perfbench ``ingest-reorg`` set-up's shape)
        must not."""
        code = (
            "import sys\n"
            "from repro.api import Dataset\n"
            "for loader in ('fixed', 'adaptive'):\n"
            "    ds = (Dataset.create((32, 8, 8), layout='multimap',\n"
            "                         drive='minidrive', seed=1)\n"
            "          .with_shards(2).with_replication(2))\n"
            "    ds.ingest(stream='clustered', loader=loader,\n"
            "              n_points=256, batch_points=256,\n"
            "              flush_points=512, seed=1,\n"
            "              reorganize=True).run()\n"
            "assert 'numpy.ma' not in sys.modules, 'numpy.ma loaded'\n"
        )
        src = Path(__file__).resolve().parents[2] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
