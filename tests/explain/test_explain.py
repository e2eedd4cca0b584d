"""EXPLAIN: plan inspection with zero side effects."""

import json

import pytest

from repro.api.dataset import Dataset
from repro.query.workload import BeamQuery, RangeQuery


@pytest.fixture()
def ds(make_dataset):
    return make_dataset(shape=(48, 12, 12))


BEAM = BeamQuery(0, (0, 6, 6))


class TestExplainPayload:
    def test_blocks_match_prepared_plan(self, ds):
        from repro.explain import prepare_readonly

        out = ds.explain(BEAM)
        prepared = prepare_readonly(ds, BEAM)
        assert out["plan"]["blocks"] == prepared.n_blocks
        assert out["plan"]["runs"] == prepared.n_runs
        per_disk = out["predicted"]["per_disk"]
        assert sum(r["blocks"] for r in per_disk.values()) \
            == out["plan"]["blocks"]

    def test_histogram_covers_every_run(self, ds):
        out = ds.explain(BEAM)
        hist = out["plan"]["run_length_histogram"]
        assert sum(hist.values()) == out["plan"]["runs"]
        blocks = sum(int(length) * count
                     for length, count in hist.items())
        assert blocks == out["plan"]["blocks"]

    def test_range_query(self, ds):
        out = ds.explain(RangeQuery((0, 0, 0), (6, 6, 6)))
        assert out["query"]["kind"] == "range"
        assert out["plan"]["n_cells"] == 216
        assert out["predicted"]["dominant_cost"] in (
            "seek_bound", "rotation_bound", "transfer_bound",
        )

    def test_multimap_primary_beam_streams(self):
        ds = Dataset.create((240, 12, 12), layout="multimap",
                            drive="minidrive", seed=42)
        out = ds.explain(BEAM)
        assert out["plan"]["pattern"] == "sequential"
        assert out["predicted"]["dominant_cost"] == "transfer_bound"

    def test_multimap_cross_beam_is_semi_sequential(self):
        # (240, 12, 12) plans a K=(120, 12, 12) basic cube, so the cube
        # spans the full beam dimension; smaller shapes plan K1=1 cubes
        # whose cross-beam steps legitimately cross cube boundaries
        ds = Dataset.create((240, 12, 12), layout="multimap",
                            drive="minidrive", seed=42)
        out = ds.explain(BeamQuery(1, (0, 0, 6)))
        assert out["plan"]["pattern"] == "semi_sequential"
        assert out["plan"]["steps"]["semi_sequential"] == 11

    def test_zorder_beam_is_seek_bound(self):
        ds = Dataset.create((240, 12, 12), layout="zorder",
                            drive="minidrive", seed=42)
        out = ds.explain(BEAM)
        assert out["predicted"]["dominant_cost"] == "seek_bound"

    def test_analytic_block_present(self, ds):
        # axis 2 is the deepest adjacency step, where the paper's model
        # predicts a speedup at every scale
        out = ds.explain(BeamQuery(2, (0, 6, 0)))
        analytic = out["analytic"]
        assert analytic["kind"] == "beam" and analytic["axis"] == 2
        assert analytic["predicted_speedup"] > 1.0

    def test_json_serializable(self, ds):
        json.dumps(ds.explain(BEAM))

    def test_unknown_query_type_raises(self, ds):
        from repro.errors import ExplainError

        with pytest.raises(ExplainError):
            ds.explain(object())


class TestZeroSideEffects:
    def test_drives_never_move(self, ds):
        before = [d.now_ms for d in ds.volume.drives]
        ds.explain(BEAM)
        assert [d.now_ms for d in ds.volume.drives] == before

    def test_batch_report_identical_with_and_without_explain(self):
        def run(with_explain):
            d = (Dataset.create((48, 12, 12), layout="multimap",
                                drive="minidrive", seed=42)
                 .with_shards(2).with_replication(2).with_cache(1024))
            if with_explain:
                for _ in range(3):
                    d.explain(BEAM)
            return json.dumps(
                d.random_beams(axis=1, n=4).run().to_dict(),
                sort_keys=True,
            )

        assert run(False) == run(True)

    def test_cache_stats_untouched(self, ds):
        ds.with_cache(1024)
        ds.run([BEAM])
        stats_before = (ds.cache.stats.accesses, ds.cache.stats.hits)
        out = ds.explain(BEAM)
        assert out["predicted"]["cache"]["expected_hits"] > 0
        assert (ds.cache.stats.accesses,
                ds.cache.stats.hits) == stats_before

    def test_replica_routing_counters_untouched(self):
        ds = (Dataset.create((48, 12, 12), layout="multimap",
                             drive="minidrive", seed=42)
              .with_shards(2)
              .with_replication(2))
        stats = ds.storage.replica_stats
        snapshot = (list(stats.reads), list(stats.planned_blocks),
                    stats.primary_reads)
        out = ds.explain(BEAM)
        assert out["routing"]["read_policy"] == "primary"
        # same object, same values: restored in place
        assert ds.storage.replica_stats is stats
        assert snapshot == (list(stats.reads), list(stats.planned_blocks),
                            stats.primary_reads)

    def test_restores_on_prepare_failure(self, ds):
        from repro.errors import ReproError

        cache = ds.with_cache(512).cache
        bad = BeamQuery(0, (0, 99, 99))
        with pytest.raises(ReproError):
            ds.explain(bad)
        assert ds.storage.cache is cache
        assert ds.storage.obs is None


class TestScaleOutBlocks:
    def test_fanout_and_routing_gated(self, ds):
        out = ds.explain(BEAM)
        assert "fanout" not in out and "routing" not in out

    def test_fanout_present_when_sharded(self):
        ds = (Dataset.create((48, 12, 12), layout="multimap",
                             drive="minidrive", seed=42)
              .with_shards(2))
        out = ds.explain(RangeQuery((0, 0, 0), (48, 12, 12)))
        fan = out["fanout"]
        assert fan["shards"] == 2
        assert sorted(fan["disks"]) == [0, 1]
        assert fan["subplans"] == len(out["plan"]["subs"])

    def test_routing_avoids_failed_disk(self):
        ds = (Dataset.create((48, 12, 12), layout="multimap",
                             drive="minidrive", seed=42)
              .with_shards(2).with_replication(2))
        ds.storage.fail_disk(0)
        out = ds.explain(RangeQuery((0, 0, 0), (48, 12, 12)))
        assert out["routing"]["failed_disks"] == [0]
        for src in out["routing"]["sources"]:
            assert src["disk"] != 0

    def test_expected_cache_hits_match_execution(self):
        """peek_plan's prediction equals what filter_plan then reports."""
        ds = (Dataset.create((48, 12, 12), layout="multimap",
                             drive="minidrive", seed=42)
              .with_cache(4096))
        ds.run([BEAM])
        expected = ds.explain(BEAM)["predicted"]["cache"]
        hits_before = ds.cache.stats.hits
        ds.run([BEAM])
        assert ds.cache.stats.hits - hits_before \
            == expected["expected_hits"]
