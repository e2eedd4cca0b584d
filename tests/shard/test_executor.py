"""Scatter-gather semantics of the sharded storage manager."""

import numpy as np
import pytest

from repro.api import Dataset
from repro.errors import DatasetError, QueryError
from repro.query.scatter import ShardedPrepared
from repro.query.workload import BeamQuery, RangeQuery

SHAPE = (24, 12, 12)


def make(small_model, layout="multimap", n=4, **kw):
    return Dataset.create(SHAPE, layout=layout, drive=small_model,
                          seed=17).with_shards(n, **kw)


class TestPrepare:
    def test_cross_shard_beam_fans_out(self, small_model):
        ds = make(small_model, n=4)
        prepared = ds.storage.prepare(BeamQuery(axis=2, fixed=(0, 3, 0)))
        assert isinstance(prepared, ShardedPrepared)
        assert len(prepared.subs) == 4
        assert sorted(prepared.disks) == [0, 1, 2, 3]
        assert prepared.n_cells == SHAPE[2]

    def test_single_shard_beam_stays_local(self, small_model):
        ds = make(small_model, n=4)
        prepared = ds.storage.prepare(BeamQuery(axis=1, fixed=(0, 0, 5)))
        # fixed[2]=5 lives in exactly one last-axis slab
        assert len(prepared.subs) == 1
        assert prepared.n_cells == SHAPE[1]

    def test_range_cells_partition_across_chunks(self, small_model):
        ds = make(small_model, n=3)
        q = RangeQuery((2, 3, 1), (20, 9, 11))
        prepared = ds.storage.prepare(q)
        assert prepared.n_cells == q.n_cells()
        assert sum(s.n_cells for s in prepared.subs) == q.n_cells()

    def test_beam_blocks_conserved_vs_unsharded(self, small_model):
        """Beams fetch exactly their cells (merge_gap=0), so block
        counts are invariant under sharding; range plans may read
        through different gap patterns per chunk shape, so only the
        cell totals are pinned for them (see the partition test)."""
        plain = Dataset.create(SHAPE, layout="multimap",
                               drive=small_model, seed=17)
        sharded = make(small_model, n=4)
        q = BeamQuery(axis=2, fixed=(1, 2, 0))
        p1 = plain.storage.prepare(q)
        p2 = sharded.storage.prepare(q)
        assert p1.n_blocks == p2.n_blocks == SHAPE[2]

    def test_invalid_queries_raise(self, small_model):
        ds = make(small_model, n=2)
        with pytest.raises(QueryError):
            ds.storage.prepare(BeamQuery(axis=9, fixed=(0,) * 3))
        with pytest.raises(QueryError):
            ds.storage.prepare(RangeQuery((0, 0, 0), (25, 12, 12)))
        with pytest.raises(QueryError):
            ds.storage.prepare(object())


class TestExecute:
    def test_makespan_is_max_over_disks(self, small_model):
        from repro.query.scatter import scatter_execute

        ds = make(small_model, n=4)
        prepared = ds.storage.prepare(BeamQuery(axis=2, fixed=(3, 4, 0)))
        result, per_disk = scatter_execute(
            ds.storage, prepared, rng=np.random.default_rng(1)
        )
        assert len(per_disk) == 4
        busiest = max(d["busy_ms"] for d in per_disk.values())
        assert result.total_ms == pytest.approx(busiest)
        assert result.total_ms < sum(
            d["busy_ms"] for d in per_disk.values()
        )
        assert result.n_blocks == sum(
            d["blocks"] for d in per_disk.values()
        )

    def test_cross_shard_beam_speeds_up(self, small_model):
        """A beam along the split axis is faster on 4 shards than 1."""
        def time_beam(n):
            ds = Dataset.create(SHAPE, layout="multimap",
                                drive=small_model, seed=29).with_shards(n)
            rng = np.random.default_rng(5)
            res = ds.storage.run_query(
                BeamQuery(axis=2, fixed=(0, 0, 0)), rng=rng
            )
            return res.total_ms

        assert time_beam(4) < time_beam(1)

    def test_multiple_chunks_per_disk(self, small_model):
        ds = Dataset.create(SHAPE, layout="multimap", drive=small_model,
                            seed=3).with_shards(
            2, chunk_shape=(24, 12, 3),
        )
        assert ds.shard_map.n_chunks == 4
        assert ds.shard_map.chunk_counts() == [2, 2]
        rep = ds.random_beams(axis=2, n=3).run()
        assert len(rep) == 3
        assert rep.meta["shards"]["n_chunks"] == 4

    def test_stats_cover_one_run(self, small_model):
        """A report's shard and replica stats total its own run: the
        same healthy batch run twice reports the same four queries and
        reads, not four and then eight."""
        ds = make(small_model, n=3).with_replication(2)
        reports = [ds.random_beams(axis=1, n=4).run(
            rng=np.random.default_rng(0)) for _ in range(2)]
        assert reports[0].to_json() == reports[1].to_json()
        shards = reports[1].meta["shards"]["stats"]
        assert shards["n_queries"] == 4
        assert sum(d["queries"] for d in shards["per_disk"]) == 4
        assert 0.0 < shards["parallel_efficiency"] <= 1.0
        assert reports[1].meta["replicas"]["stats"]["primary_reads"] == 4

    def test_beam_range_entry_points(self, small_model):
        ds = make(small_model, n=2)
        rng = np.random.default_rng(3)
        res = ds.storage.run_query(BeamQuery(2, (0, 1, 0)), rng=rng)
        assert res.n_cells == SHAPE[2]
        res = ds.storage.run_query(RangeQuery((0, 0, 0), (4, 4, 8)),
                                   rng=rng)
        assert res.n_cells == 4 * 4 * 8


class TestDatasetIntegration:
    def test_with_layout_clone_keeps_sharding(self, small_model):
        ds = make(small_model, n=3)
        clone = ds.with_layout("naive")
        assert clone.n_shards == 3
        assert clone.shard_map.n_disks == 3
        assert clone.volume.n_disks == 3

    def test_with_layout_clone_keeps_identical_chunk_grid(self,
                                                          small_model):
        """Fairness: clones compare layouts on the SAME declustering."""
        for src, dst in (("naive", "multimap"), ("multimap", "naive")):
            ds = Dataset.create((24, 8, 200), layout=src,
                                drive=small_model, seed=1).with_shards(
                2, chunk_shape=(24, 8, 50),
            )
            clone = ds.with_layout(dst)
            assert clone.shard_map.grid == ds.shard_map.grid
            assert [c.disk for c in clone.shard_map.chunks] == \
                [c.disk for c in ds.shard_map.chunks]

    def test_store_rejected_on_sharded(self, small_model):
        ds = make(small_model, n=2)
        with pytest.raises(DatasetError):
            _ = ds.store
        with pytest.raises(DatasetError):
            ds.insert((0, 0, 0))
        with pytest.raises(DatasetError):
            ds.bulk_load(np.zeros((1, 3), dtype=np.int64))

    def test_shard_after_store_rejected(self, small_model):
        ds = Dataset.create(SHAPE, layout="multimap", drive=small_model)
        ds.insert((1, 2, 3))
        with pytest.raises(DatasetError):
            ds.with_shards(2)

    def test_invalid_shard_count(self, small_model):
        ds = Dataset.create(SHAPE, layout="multimap", drive=small_model)
        with pytest.raises(DatasetError):
            ds.with_shards(0)

    def test_failed_with_shards_leaves_dataset_intact(self, small_model):
        """A rejected call must not half-mutate the stack: volume,
        storage, and mapper all stay the originals."""
        from repro.errors import ReproError

        ds = Dataset.create(SHAPE, layout="multimap", drive=small_model,
                            seed=2)
        volume, storage, mapper = ds.volume, ds.storage, ds.mapper
        with pytest.raises(ReproError):
            ds.with_shards(2, strategy="typo")
        assert ds.volume is volume
        assert ds.storage is storage
        assert ds.mapper is mapper
        assert not ds.is_sharded
        # the untouched stack still answers queries
        assert ds.random_beams(axis=1, n=1).run().total_ms > 0

    def test_hand_wired_pool_not_silently_dropped(self, small_model):
        """A pool wired directly into storage.cache (the escape hatch
        with_cache documents) cannot be carried across the rebuild —
        refuse loudly instead of running the experiment uncached."""
        from repro.cache import BufferPool

        ds = Dataset.create(SHAPE, layout="multimap", drive=small_model)
        ds.storage.cache = BufferPool(1024)
        with pytest.raises(DatasetError):
            ds.with_shards(2)
        # with_cache-managed specs still carry over fine
        ds.storage.cache = None
        ds.with_cache(1024).with_shards(2)
        assert ds.cache is not None

    def test_reconfigured_create_builds_no_whole_grid(self, small_model,
                                                      monkeypatch):
        """The storage manager is built on first use: a dataset
        re-sharded or re-laid-out right after create (cache and
        telemetry attached or not) never places the whole grid on the
        single disk it discards."""
        import repro.shard.executor as executor

        built = []
        real = executor.build_mapper

        def spy(layout, shape, *args, **kwargs):
            built.append(tuple(shape))
            return real(layout, shape, *args, **kwargs)

        monkeypatch.setattr(executor, "build_mapper", spy)
        ds = Dataset.create(SHAPE, layout="multimap", drive=small_model)
        ds.with_cache(512).with_telemetry().with_shards(3)
        clone = Dataset.create(SHAPE, drive=small_model).with_layout("naive")
        assert SHAPE not in built
        assert len(built) == 3
        clone.random_beams(axis=1, n=1).run()  # first use builds 1 × 1
        assert built[-1] == SHAPE

    def test_seeded_runs_reproducible(self, small_model):
        def run():
            return make(small_model, n=3).random_beams(axis=2, n=4) \
                .run().to_json()

        assert run() == run()


# ----------------------------------------------------------------------
# one storage path: neutral settings are indistinguishable
# ----------------------------------------------------------------------

LAYOUTS = ["multimap", "naive", "zorder", "hilbert"]

#: constructions that must run byte-identically: every dataset is the
#: same n disks × k copies manager, 1 × 1 after a plain create
EQUIVALENT = {
    "one disk": (
        lambda ds: ds,
        lambda ds: ds.with_shards(1),
        lambda ds: ds.with_shards(1, strategy="round_robin"),
        lambda ds: ds.with_shards(1).with_replication(1),
    ),
    "two disks": (
        lambda ds: ds.with_shards(2),
        lambda ds: ds.with_shards(2).with_replication(1),
    ),
}

CACHES = {
    "uncached": None,
    "shared": dict(capacity_blocks=2048, prefetch="track"),
}


@pytest.mark.parametrize("group", sorted(EQUIVALENT))
@pytest.mark.parametrize("slices", [8, None], ids=["sliced", "whole"])
@pytest.mark.parametrize("cache", sorted(CACHES))
@pytest.mark.parametrize("layout", LAYOUTS)
def test_equivalent_constructions_byte_identical(small_model, layout,
                                                 cache, slices, group):
    """Batch ``Report`` JSON and seeded traffic JSON are byte-identical
    across every construction of the same disks × copies, uncached and
    with a pool, with sliced or whole-query traffic."""
    from repro.traffic import QueryMix

    outputs = set()
    for build in EQUIVALENT[group]:
        ds = build(Dataset.create(SHAPE, layout=layout, drive=small_model,
                                  seed=11))
        if CACHES[cache] is not None:
            ds.with_cache(**CACHES[cache])
        report = ds.query().random_beams(axis=1, n=4) \
            .range_selectivity(5.0).run()
        storm = ds.traffic().clients(2, mix=QueryMix.beams(1, 2),
                                     queries=4).slice_runs(slices).run()
        outputs.add((report.to_json(), storm.to_json()))
    assert len(outputs) == 1


@pytest.mark.parametrize("n", [1, 2])
def test_numpy_integer_queries_report_like_python_ints(small_model, n):
    """Boxes and beams given as numpy integers store, count and
    serialise exactly like the same Python ints."""
    outputs = set()
    for num in (np.int64, int):
        ds = Dataset.create(SHAPE, layout="naive", drive=small_model,
                            seed=5).with_shards(n)
        report = ds.query() \
            .range([num(v) for v in (1, 2, 3)], [num(v) for v in (9, 6, 7)]) \
            .beam(num(1), fixed=[num(v) for v in (4, 0, 5)], lo=num(2)) \
            .run()
        assert all(type(r.result.n_cells) is int for r in report.records)
        outputs.add(report.to_json())
    assert len(outputs) == 1


class TestMetaGating:
    def test_one_shard_meta_has_no_shard_keys(self, small_model):
        ds = Dataset.create(SHAPE, layout="multimap", drive=small_model,
                            seed=1).with_shards(1)
        report = ds.random_beams(axis=1, n=2).run()
        assert "shards" not in report.meta
        assert "shards" not in ds.describe()
        assert ds.n_shards == 1 and ds.is_sharded

    def test_multi_shard_meta_present(self, small_model):
        ds = Dataset.create(SHAPE, layout="multimap", drive=small_model,
                            seed=1).with_shards(3)
        report = ds.random_beams(axis=2, n=2).run()
        assert report.meta["shards"]["n_shards"] == 3
        assert ds.describe()["shards"]["strategy"] == "disk_modulo"
        assert ds.n_shards == 3

    def test_one_copy_meta_has_no_replica_keys(self, small_model):
        ds = Dataset.create(SHAPE, layout="multimap", drive=small_model,
                            seed=1).with_shards(2).with_replication(1)
        report = ds.random_beams(axis=1, n=2).run()
        assert "replicas" not in report.meta
        assert "replicas" not in ds.describe()
        assert ds.replication_k == 1 and ds.is_replicated
        assert ds.replica_map is not None

    def test_multi_copy_meta_present(self, small_model):
        ds = Dataset.create(SHAPE, layout="multimap", drive=small_model,
                            seed=1).with_shards(3).with_replication(2)
        report = ds.random_beams(axis=2, n=2).run()
        assert report.meta["replicas"]["k"] == 2
        assert report.meta["replicas"]["read_policy"] == "primary"
        assert report.meta["replicas"]["placement"] == "rotated"
        assert ds.describe()["replicas"] == {
            "k": 2, "placement": "rotated", "read_policy": "primary",
        }
        assert ds.replication_k == 2

    def test_unreplicated_dataset_properties(self, small_model):
        ds = Dataset.create(SHAPE, layout="multimap", drive=small_model)
        assert ds.replication_k == 1
        assert not ds.is_replicated
        assert ds.replica_map is None
        assert ds.n_shards == 1 and not ds.is_sharded
        assert ds.shard_map is None
