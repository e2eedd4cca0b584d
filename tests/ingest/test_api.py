"""The façade: ``with_ingest`` specs, ``Dataset.ingest()`` runs."""

import json

import pytest

from repro.api import Dataset
from repro.api.ingest import IngestRun
from repro.errors import (
    DatasetError,
    IngestError,
    RegistryError,
    ReplicaError,
)
from repro.ingest import LOADERS
from repro.ingest.report import IngestReport
from repro.ingest.streams import ClusteredStream, UniformStream

SHAPE = (16, 8, 8)


@pytest.fixture()
def plain(small_model):
    return Dataset.create(SHAPE, layout="zorder", drive=small_model,
                          seed=5)


class TestWithIngest:
    def test_spec_is_validated_eagerly(self, plain):
        with pytest.raises(RegistryError, match="unknown stream"):
            plain.with_ingest(stream="nope")
        with pytest.raises(RegistryError, match="unknown loader"):
            plain.with_ingest(loader="nope")
        with pytest.raises(DatasetError, match="stream"):
            plain.with_ingest(stream=42)

    def test_refuses_stream_classes_and_instances(self, plain):
        """A stream is a registered name: a class or a built instance is
        refused, by the spec and by a run (an instance used to replace
        the run's own options silently)."""
        for stream in (UniformStream, UniformStream(SHAPE, n_points=16)):
            with pytest.raises(DatasetError, match="registered name"):
                plain.with_ingest(stream=stream)
            with pytest.raises(IngestError, match="stream"):
                plain.ingest(stream=stream, n_points=500)
        assert plain._ingest_spec is None

    def test_loader_must_be_a_registered_name(self, plain):
        for loader in (5, LOADERS.get("fixed"), ["fixed"]):
            with pytest.raises(RegistryError, match="unknown loader"):
                plain.with_ingest(loader=loader)
        assert plain._ingest_spec is None

    def test_describe_key_gated_on_spec(self, plain):
        assert "ingest" not in plain.describe()
        plain.with_ingest(stream="clustered", n_points=64)
        out = plain.describe()["ingest"]
        assert out["stream"] == "clustered"
        assert out["loader"] == "fixed"
        assert out["n_points"] == 64

    def test_spec_survives_with_layout_clone(self, plain):
        plain.with_ingest(stream="clustered", n_points=64)
        clone = plain.with_layout("naive")
        assert clone.describe()["ingest"]["stream"] == "clustered"
        clone._ingest_spec["stream"] = "uniform"
        assert plain._ingest_spec["stream"] == "clustered"

    def test_spec_survives_sharding_and_replication(self, plain):
        plain.with_ingest(stream="clustered")
        plain.with_shards(2).with_replication(2)
        assert plain.describe()["ingest"]["stream"] == "clustered"

    @pytest.mark.parametrize("opts, match", [
        (dict(loader_opts=5, bogus=1, n_points=-3), "n_points"),
        (dict(n_points=-3), "n_points must be >= 1"),
        (dict(batch_points=0), "batch_points"),
        (dict(seed=-1), "seed"),
        (dict(loader_opts=5), "loader_opts must be a dict"),
        (dict(loader_opts={"bogus": 1}), "unknown fixed loader option"),
        (dict(bogus=1), "bogus"),
        (dict(stream="uniform", n_clusters=2), "n_clusters"),
        (dict(stream="clustered", spread=0.0), "spread"),
    ])
    def test_spec_is_checked_before_it_is_stored(self, plain, opts,
                                                 match):
        """A spec a run would refuse is refused when it is set, and the
        dataset keeps its previous spec (``with_ingest`` used to store
        anything and ``describe()`` reported it)."""
        with pytest.raises(IngestError, match=match):
            plain.with_ingest(**opts)
        assert plain._ingest_spec is None
        assert "ingest" not in plain.describe()
        plain.with_ingest(stream="clustered", n_points=64)
        before = plain.describe()
        with pytest.raises(IngestError, match=match):
            plain.with_ingest(**opts)
        assert plain.describe() == before

    def test_spec_is_checked_on_its_own(self, plain):
        """A new spec replaces the old one, so it is checked alone: a
        stream option of the earlier spec does not reach the new one."""
        plain.with_ingest(stream="clustered", n_clusters=2)
        plain.with_ingest(stream="uniform", n_points=64)
        assert plain.describe()["ingest"] == {
            "stream": "uniform", "loader": "fixed", "n_points": 64,
        }
        assert plain.ingest().stream.n_points == 64

    def test_checking_a_spec_draws_nothing(self, plain, small_model):
        """Building the run that checks a spec leaves the dataset's
        generators where they were."""
        plain.with_ingest(stream="clustered", loader="adaptive",
                          n_points=256)
        fresh = Dataset.create(SHAPE, layout="zorder", drive=small_model,
                               seed=5)
        assert plain.rng().random() == fresh.rng().random()


class TestIngestRun:
    def test_overrides_layer_on_spec(self, plain):
        plain.with_ingest(stream="clustered", n_points=64,
                          flush_points=32)
        run = plain.ingest(n_points=128)
        assert run.stream.kind == "clustered"
        assert run.stream.n_points == 128
        assert run.flush_points == 32

    def test_fluent_setters(self, plain):
        """What the retired ``with_stream`` / ``with_loader`` /
        ``with_points`` / ``with_flush`` / ``with_reorganize`` setters
        set, the run's keywords set."""
        run = plain.ingest(
            stream="clustered", spread=0.1, loader="adaptive",
            loader_opts={"quantile": 0.9}, n_points=96, batch_points=32,
            flush_points=48, reorganize=True,
        )
        assert run.stream.kind == "clustered"
        assert run.stream.spread == 0.1
        assert run.loader.name == "adaptive"
        assert run.loader_opts["quantile"] == 0.9
        assert run.stream.n_points == 96 and run.stream.batch_points == 32
        assert run.flush_points == 48
        assert run.reorganize
        assert not any(hasattr(run, name) for name in (
            "with_stream", "with_loader", "with_points", "with_flush",
            "with_reorganize",
        ))

    @pytest.mark.parametrize("field, value", [
        ("n_points", 100.7), ("batch_points", 10.9),
        ("flush_points", 2.5), ("flush_points", 64.0),
        ("n_points", True),
    ])
    def test_non_integer_sizes_rejected(self, plain, field, value):
        with pytest.raises(IngestError,
                           match=f"{field} must be an integer"):
            plain.ingest(**{field: value})
        with pytest.raises(IngestError, match=field):
            plain.with_ingest(**{field: value})
        assert plain._ingest_spec is None

    def test_fluent_setters_reject_non_integer_sizes(self, plain):
        """The sizes the retired setters took are the run's keywords,
        checked the same way."""
        with pytest.raises(IngestError, match="n_points"):
            plain.ingest(n_points=96.5)
        with pytest.raises(IngestError, match="batch_points"):
            plain.ingest(n_points=96, batch_points=32.5)
        with pytest.raises(IngestError, match="flush_points"):
            plain.ingest(flush_points=48.5)

    def test_seed_defaults_to_the_dataset(self, plain):
        assert plain.ingest().stream.seed == plain.seed
        assert plain.ingest(seed=9).stream.seed == 9

    def test_stream_opts_reach_the_factory(self, plain):
        stream = plain.ingest(stream="clustered", n_clusters=2).stream
        assert isinstance(stream, ClusteredStream)
        assert stream.n_clusters == 2


class TestRunExecution:
    def test_every_point_acknowledged(self, plain):
        report = plain.ingest(n_points=200, batch_points=64,
                              flush_points=64).run()
        assert isinstance(report, IngestReport)
        assert report.n_points == 200
        assert report.n_batches == report.acked_batches == 4
        assert report.flushes >= 1
        assert report.store["n_points"] == 200
        assert report.total_ms > 0 and report.mb_per_s > 0

    def test_report_json_round_trips(self, plain):
        report = plain.ingest(n_points=64, flush_points=32).run()
        payload = json.loads(report.to_json())
        assert payload["n_points"] == 64
        assert payload["mb_per_s"] == pytest.approx(report.mb_per_s)
        assert "goodput" in report.render()

    def test_same_seed_runs_are_identical(self, small_model):
        def one():
            ds = Dataset.create(SHAPE, layout="zorder",
                                drive=small_model, seed=7)
            return ds.ingest(stream="clustered", n_points=128,
                             flush_points=64).run()

        assert one().to_json() == one().to_json()

    def test_reorganize_counts_into_total(self, small_model):
        def one(reorganize):
            ds = Dataset.create(SHAPE, layout="zorder",
                                drive=small_model, seed=7)
            return ds.ingest(
                stream="clustered", n_points=256, flush_points=64,
                loader_opts={"points_per_cell": 1},
                reorganize=reorganize,
            ).run()

        plainr = one(False)
        reorged = one(True)
        assert plainr.reorg is None
        assert reorged.reorg is not None
        assert reorged.reorg["pages_freed"] > 0
        assert reorged.total_ms == pytest.approx(
            plainr.total_ms + reorged.reorg["reorg_ms"]
        )


class TestAdaptiveRechunk:
    def test_rechunks_before_first_byte(self, small_model):
        ds = Dataset.create(SHAPE, layout="zorder", drive=small_model,
                            seed=7).with_shards(2)
        run = ds.ingest(stream="clustered", loader="adaptive",
                        n_points=256, flush_points=64)
        plan = LOADERS.get("adaptive").fn(ds, run.stream)
        run.run()
        assert tuple(ds.storage.shard_map.chunks[0].shape) \
            == tuple(plan.chunk_shape)

    def test_adapt_chunks_false_keeps_the_grid(self, small_model):
        """``adapt_chunks`` is retired (a suggested chunk shape always
        re-chunks): the keyword is refused as an unknown stream option
        before the grid changes."""
        ds = Dataset.create(SHAPE, layout="zorder", drive=small_model,
                            seed=7).with_shards(2)
        before = tuple(ds.storage.shard_map.chunks[0].shape)
        with pytest.raises(IngestError, match="adapt_chunks"):
            ds.ingest(stream="clustered", loader="adaptive", n_points=256,
                      flush_points=64, adapt_chunks=False).run()
        assert tuple(ds.storage.shard_map.chunks[0].shape) == before


class TestStoreGate:
    def test_sharded_write_path_the_gate_points_at_works(
            self, small_model):
        """The CellStore gate on sharded datasets names
        ``Dataset.ingest()`` as the write path; that path must accept
        sharded (and replicated) datasets."""
        ds = Dataset.create(SHAPE, layout="zorder", drive=small_model,
                            seed=5).with_shards(2).with_replication(2)
        report = ds.ingest(n_points=64, flush_points=16).run()
        assert report.n_points == 64
        assert report.skipped_copy_writes == 0


class TestFailedDisks:
    """A disk failed before or between runs: the flushes skip and count
    its copies, and a chunk left with no live copy refuses its flush."""

    def test_acked_batches_live_on_survivors(self, small_model):
        ds = Dataset.create(SHAPE, layout="multimap", drive=small_model,
                            seed=42).with_shards(4).with_replication(2)
        ds.storage.fail_disk(1)
        report = ds.ingest(stream="clustered", n_points=512,
                           batch_points=128, flush_points=128).run()
        assert report.n_points == report.store["n_points"] == 512
        assert report.skipped_copy_writes > 0
        rm = ds.storage.replica_map
        failed = ds.storage.failed
        assert failed == {1}
        for ci in range(len(ds.storage.shard_map.chunks)):
            assert rm.live_copies(ci, failed)

    def test_unreplicated_write_loss_is_loud(self, small_model):
        ds = Dataset.create(SHAPE, layout="multimap", drive=small_model,
                            seed=42).with_shards(2)
        ds.storage.fail_disk(1)
        with pytest.raises(ReplicaError, match="unwritable"):
            ds.ingest(stream="clustered", n_points=768,
                      batch_points=128, flush_points=128).run()


NAN, INF = float("nan"), float("inf")


class TestRunOptionsChecked:
    """Bad run options raise :class:`IngestError` before the adaptive
    loader re-chunks the dataset or any block is written."""

    @pytest.fixture()
    def sharded(self, small_model):
        return Dataset.create(SHAPE, layout="zorder", drive=small_model,
                              seed=7).with_shards(2)

    @staticmethod
    def untouched(ds):
        """The dataset's chunk shape and every drive's clock and head."""
        drives = ds.storage.volume.drives
        return (tuple(ds.storage.shard_map.chunks[0].shape),
                [(d.now_ms, d.current_track) for d in drives])

    def assert_refused(self, ds, match, **opts):
        before = self.untouched(ds)
        with pytest.raises(IngestError, match=match):
            ds.ingest(loader="adaptive", n_points=256, flush_points=64,
                      **opts).run()
        assert self.untouched(ds) == before

    @pytest.mark.parametrize("stream", ["clustered"])
    @pytest.mark.parametrize("spread", [NAN, INF, -INF, True, "0.1"])
    def test_spread_must_be_a_finite_number(self, sharded, stream,
                                            spread):
        self.assert_refused(sharded, "spread", stream=stream,
                            spread=spread)

    @pytest.mark.parametrize("n_clusters", [2.5, True, 0])
    def test_n_clusters_is_not_truncated(self, sharded, n_clusters):
        self.assert_refused(sharded, "n_clusters", stream="clustered",
                            n_clusters=n_clusters)

    @pytest.mark.parametrize("seed", [2.5, True, -1])
    def test_seed_is_not_truncated(self, sharded, seed):
        with pytest.raises(IngestError, match="seed"):
            sharded.ingest(seed=seed)
        with pytest.raises(IngestError, match="seed"):
            UniformStream(SHAPE, seed=seed)

    @pytest.mark.parametrize("opts, match", [
        ({"points_per_cell": 2.5}, "points_per_cell"),
        ({"points_per_cell": True}, "points_per_cell"),
        ({"sample_points": 2.5}, "sample_points"),
        ({"headroom": NAN}, "headroom"),
        ({"headroom": INF}, "headroom"),
        ({"quantile": NAN}, "quantile"),
        ({"fill_factor": NAN}, "fill_factor"),
    ])
    def test_loader_options_are_checked(self, sharded, opts, match):
        self.assert_refused(sharded, match, stream="clustered",
                            loader_opts=opts)

    @pytest.mark.parametrize("loader_opts", [5, "ab",
                                             [("points_per_cell", 1)]])
    def test_loader_opts_must_be_a_dict(self, sharded, loader_opts):
        """A bare ``dict(...)`` copy raised a bare TypeError for 5, a
        ValueError for "ab" and took a list of pairs."""
        before = self.untouched(sharded)
        with pytest.raises(IngestError, match="loader_opts must be a dict"):
            sharded.ingest(loader="adaptive", loader_opts=loader_opts)
        assert self.untouched(sharded) == before

    @pytest.mark.parametrize("loader, opts", [
        ("fixed", {"point_per_cell": 1}),
        ("fixed", {"sample_points": 64}),
        ("adaptive", {"bogus": 1}),
    ])
    def test_loader_opts_are_the_loaders_keywords(self, sharded, loader,
                                                  opts):
        """Both loaders swallowed unknown keys: a misspelt
        ``point_per_cell`` ran at 16 points per cell.  The names are
        checked when the run is built, with nothing written."""
        before = self.untouched(sharded)
        with pytest.raises(IngestError,
                           match=f"unknown {loader} loader option.*"
                           f"{next(iter(opts))}"):
            sharded.ingest(loader=loader, loader_opts=opts)
        with pytest.raises(IngestError, match="loader option"):
            sharded.with_ingest(loader=loader, loader_opts=opts)
        assert sharded._ingest_spec is None
        assert self.untouched(sharded) == before

    def test_fixed_loader_options_are_checked(self, sharded):
        before = self.untouched(sharded)
        with pytest.raises(IngestError, match="points_per_cell"):
            sharded.ingest(loader_opts={"points_per_cell": 2.5}).run()
        assert self.untouched(sharded) == before

    @pytest.mark.parametrize("throttle", [NAN, 0, 0.0, 1.5, True, "1"])
    def test_throttle_is_checked_when_the_run_is_built(self, sharded,
                                                       throttle):
        """The reorganisation throttle is retired (the window is the
        ideal makespan): any value is an unknown stream option."""
        with pytest.raises(IngestError, match="unknown .* 'throttle'"):
            sharded.ingest(reorganize=True, throttle=throttle)

    def test_unknown_stream_keyword(self, sharded):
        self.assert_refused(sharded, "bogus", bogus=1)
        before = self.untouched(sharded)
        with pytest.raises(IngestError, match="bogus"):
            sharded.with_ingest(stream="clustered", bogus=1)
        assert sharded._ingest_spec is None
        assert self.untouched(sharded) == before

    def test_every_stream_keyword_is_accepted(self, sharded):
        for stream, opts in [
            ("uniform", {}),
            ("clustered", {"n_clusters": 2, "spread": 0.1}),
        ]:
            report = sharded.ingest(stream=stream, n_points=64,
                                    flush_points=32, **opts).run()
            assert report.n_points == 64
