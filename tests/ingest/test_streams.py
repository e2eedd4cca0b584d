"""Record streams: seeded, replayable, in-bounds, sample-independent."""

import numpy as np
import pytest

from repro.errors import IngestError
from repro.ingest.streams import (
    STREAMS,
    ClusteredStream,
    DriftingStream,
    ReplayStream,
    UniformStream,
    make_stream,
    stream_names,
)

DIMS = (16, 8, 8)


def _drain(stream):
    return np.concatenate(list(stream.batches()))


class TestRegistry:
    def test_builtins_registered(self):
        names = stream_names()
        for name in ("uniform", "clustered", "drifting", "replay"):
            assert name in names

    def test_entries_carry_descriptions(self):
        for name in ("uniform", "clustered", "drifting"):
            assert STREAMS.get(name).description

    def test_make_stream_by_name_class_and_instance(self):
        """A stream is built by registered name only: a class or an
        instance is refused."""
        by_name = make_stream("uniform", DIMS, n_points=32)
        assert isinstance(by_name, UniformStream)
        for spec in (UniformStream, by_name):
            with pytest.raises(IngestError, match="unknown stream spec"):
                make_stream(spec, DIMS, n_points=32)

    def test_make_stream_rejects_unknown_spec(self):
        with pytest.raises(IngestError, match="unknown stream spec"):
            make_stream(42, DIMS)


class TestReplayability:
    @pytest.mark.parametrize("name", ["uniform", "clustered", "drifting"])
    def test_batches_replay_identically(self, name):
        stream = make_stream(name, DIMS, n_points=300, batch_points=64,
                             seed=7)
        first = _drain(stream)
        second = _drain(stream)
        assert np.array_equal(first, second)

    def test_different_seeds_differ(self):
        a = _drain(UniformStream(DIMS, n_points=200, seed=1))
        b = _drain(UniformStream(DIMS, n_points=200, seed=2))
        assert not np.array_equal(a, b)

    def test_sample_does_not_disturb_batches(self):
        stream = ClusteredStream(DIMS, n_points=300, batch_points=50,
                                 seed=3)
        untouched = _drain(stream)
        stream.sample(64)
        assert np.array_equal(_drain(stream), untouched)

    def test_sample_is_deterministic(self):
        stream = DriftingStream(DIMS, n_points=300, seed=5)
        assert np.array_equal(stream.sample(40), stream.sample(40))


class TestShapes:
    @pytest.mark.parametrize("name", ["uniform", "clustered", "drifting"])
    def test_points_in_bounds_and_counted(self, name):
        stream = make_stream(name, DIMS, n_points=250, batch_points=64,
                             seed=11)
        coords = _drain(stream)
        assert coords.shape == (250, len(DIMS))
        assert coords.min() >= 0
        assert (coords < np.asarray(DIMS)).all()

    def test_n_batches_is_ceiling(self):
        stream = UniformStream(DIMS, n_points=250, batch_points=64)
        assert stream.n_batches == 4
        sizes = [len(b) for b in stream.batches()]
        assert sizes == [64, 64, 64, 58]

    def test_sample_clamps_to_stream_size(self):
        stream = UniformStream(DIMS, n_points=20)
        assert len(stream.sample(1000)) == 20

    def test_describe_keys(self):
        out = ClusteredStream(DIMS, n_points=64, seed=9).describe()
        assert out["stream"] == "clustered"
        assert out["dims"] == list(DIMS)
        assert out["n_points"] == 64
        assert "n_clusters" in out and "spread" in out


class TestReplayStream:
    def test_replays_exact_coords(self):
        coords = np.array([[0, 0, 0], [15, 7, 7], [3, 2, 1]])
        stream = ReplayStream(DIMS, coords=coords, batch_points=2)
        assert stream.n_points == 3
        assert np.array_equal(_drain(stream), coords)

    def test_rejects_rank_mismatch(self):
        with pytest.raises(IngestError, match="rank"):
            ReplayStream(DIMS, coords=np.zeros((4, 2), dtype=np.int64))

    def test_rejects_empty(self):
        with pytest.raises(IngestError):
            ReplayStream(DIMS, coords=np.zeros((0, 3), dtype=np.int64))

    @pytest.mark.parametrize("coords, dtype", [
        ([[1.7, 2.2, 3.9]], "float64"),
        ([[0, 0, float("nan")]], "float64"),
        ([[True, False, True]], "bool"),
    ])
    def test_rejects_non_integer_coords(self, coords, dtype):
        with pytest.raises(IngestError,
                           match=f"replay coords must be integers.*{dtype}"):
            ReplayStream(DIMS, coords=coords)

    @pytest.mark.parametrize("row", [[100, 0, 0], [0, -5, 0], [0, 0, 8]])
    def test_rejects_off_grid_coords(self, row):
        """Caller coordinates are never clipped onto the grid: the
        first off-grid row is named instead."""
        coords = [[1, 1, 1], row]
        with pytest.raises(IngestError, match=r"row 1 \[.*\] is off"):
            ReplayStream(DIMS, coords=coords)


class TestValidation:
    def test_bad_dims(self):
        with pytest.raises(IngestError):
            UniformStream(())
        with pytest.raises(IngestError):
            UniformStream((4, 0))

    def test_bad_counts(self):
        with pytest.raises(IngestError):
            UniformStream(DIMS, n_points=0)
        with pytest.raises(IngestError):
            UniformStream(DIMS, batch_points=0)

    def test_non_integer_counts_are_not_truncated(self):
        with pytest.raises(IngestError, match="n_points must be an integer"):
            UniformStream(DIMS, n_points=100.7)
        with pytest.raises(IngestError,
                           match="batch_points must be an integer"):
            UniformStream(DIMS, batch_points=True)

    def test_bad_cluster_opts(self):
        with pytest.raises(IngestError):
            ClusteredStream(DIMS, n_clusters=0)
        with pytest.raises(IngestError):
            ClusteredStream(DIMS, spread=0.0)
        with pytest.raises(IngestError):
            DriftingStream(DIMS, spread=-1.0)

    def test_sample_size_must_be_positive(self):
        with pytest.raises(IngestError):
            UniformStream(DIMS).sample(0)
