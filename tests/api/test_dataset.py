"""Dataset façade: engine parity, fluent batches, seeding, updates."""

import numpy as np
import pytest

from repro.api import Dataset
from repro.api.registry import build_mapper, layout_names
from repro.errors import DatasetError, QueryError, RegistryError
from repro.lvm import LogicalVolume
from repro.query import BeamQuery, QueryResult, RangeQuery, StorageManager

DIMS = (20, 10, 8)
DEPTH = 16


def plain_engine(small_model, name):
    """The layout's mapper on a fresh one-disk volume with a bare §5.2
    preparation stage over it."""
    volume = LogicalVolume([small_model], depth=DEPTH)
    return build_mapper(name, DIMS, volume, 0), StorageManager(volume)


def oracle_execute(sm, mapper, plan, n_cells, *, rng=None) -> QueryResult:
    """Single-disk execution of one plan: prepare it (§5.2), service it in
    one batch on the mapper's disk, admit it to the cache.  The reference
    a one-disk Dataset must reproduce bit for bit."""
    prepared = sm.prepare_plan(mapper, plan, n_cells)
    drive = sm.volume.drive(prepared.disk_index)
    if rng is not None:
        drive.randomize_position(rng)
    res = drive.service_runs(
        prepared.plan.starts,
        prepared.plan.lengths,
        policy=prepared.policy,
        window=sm.window,
    )
    sm.admit_prepared(prepared)
    return QueryResult(
        mapper=prepared.mapper_name,
        total_ms=res.total_ms + prepared.cache_ms,
        n_cells=prepared.n_cells,
        n_blocks=res.n_blocks + prepared.cache_hits,
        n_runs=res.n_requests + prepared.cache_runs,
        seek_ms=res.seek_ms,
        rotation_ms=res.rotation_ms,
        transfer_ms=res.transfer_ms,
        switch_ms=res.switch_ms,
        policy=prepared.policy,
    )


def oracle_beam(sm, mapper, axis, fixed, *, rng=None) -> QueryResult:
    plan = mapper.beam_plan(axis, fixed)
    return oracle_execute(sm, mapper, plan, mapper.dims[axis], rng=rng)


def oracle_range(sm, mapper, lo, hi, *, rng=None) -> QueryResult:
    plan = mapper.range_plan(lo, hi)
    n_cells = int(np.prod([b - a for a, b in zip(lo, hi)]))
    return oracle_execute(sm, mapper, plan, n_cells, rng=rng)


class TestParity:
    """A one-disk Dataset must match the plain §5.2 engine bit for bit."""

    @pytest.mark.parametrize("name", sorted(layout_names()))
    def test_request_plans_identical(self, small_model, name):
        mapper, _sm = plain_engine(small_model, name)
        ds = Dataset.create(DIMS, layout=name, drive=small_model,
                            depth=DEPTH)
        for hand_plan, ds_plan in (
            (mapper.beam_plan(1, (0, 3, 0)),
             ds.mapper.beam_plan(1, (0, 3, 0))),
            (mapper.beam_plan(0, (0, 7, 2)),
             ds.mapper.beam_plan(0, (0, 7, 2))),
            (mapper.range_plan((1, 2, 0), (9, 6, 5)),
             ds.mapper.range_plan((1, 2, 0), (9, 6, 5))),
        ):
            assert np.array_equal(hand_plan.starts, ds_plan.starts)
            assert np.array_equal(hand_plan.lengths, ds_plan.lengths)
            assert hand_plan.policy == ds_plan.policy
            assert hand_plan.merge_gap == ds_plan.merge_gap

    @pytest.mark.parametrize("name", sorted(layout_names()))
    def test_query_timings_identical(self, small_model, name):
        mapper, sm = plain_engine(small_model, name)
        ds = Dataset.create(DIMS, layout=name, drive=small_model,
                            depth=DEPTH)

        hand = oracle_beam(sm, mapper, 1, (0, 3, 0),
                           rng=np.random.default_rng(5))
        via_ds = ds.beam(1, fixed=(0, 3, 0)).run(
            rng=np.random.default_rng(5)
        ).results[0]
        assert hand == via_ds

        hand = oracle_range(sm, mapper, (0, 0, 0), (6, 6, 6),
                            rng=np.random.default_rng(9))
        via_ds = ds.range((0, 0, 0), (6, 6, 6)).run(
            rng=np.random.default_rng(9)
        ).results[0]
        assert hand == via_ds

    def test_random_stream_matches_hand_loop(self, small_model):
        """Lazy batch entries interleave generation and execution exactly
        like a ``for q in (random_beam(...) ...)`` loop."""
        from repro.query import random_beam

        mapper, sm = plain_engine(small_model, "multimap")
        rng = np.random.default_rng(42)
        hand = [
            oracle_beam(sm, mapper, q.axis, q.fixed, rng=rng).total_ms
            for q in (random_beam(DIMS, 1, rng) for _ in range(4))
        ]

        ds = Dataset.create(DIMS, layout="multimap", drive=small_model,
                            depth=DEPTH)
        report = ds.random_beams(axis=1, n=4).run(
            rng=np.random.default_rng(42)
        )
        assert hand == [r.total_ms for r in report.results]


class TestCreate:
    def test_unknown_layout_raises(self, small_model):
        with pytest.raises(RegistryError, match="multimap"):
            Dataset.create(DIMS, layout="bogus", drive=small_model)

    def test_unknown_drive_raises(self):
        with pytest.raises(RegistryError, match="atlas10k3"):
            Dataset.create(DIMS, drive="bogus")

    def test_window_below_one_raises(self):
        with pytest.raises(QueryError, match="window"):
            Dataset.create((5, 5, 5), layout="multimap", drive="toy",
                           window=0)

    def test_bad_drive_type_raises(self):
        with pytest.raises(DatasetError):
            Dataset.create(DIMS, drive=123)

    def test_registered_drive_name(self):
        ds = Dataset.create((8, 4, 4), layout="naive", drive="toy",
                            depth=4)
        assert ds.drive_name == "toy"
        assert ds.n_cells == 128

    def test_default_depth_adapts_to_drive(self, small_model):
        # depth=None uses each drive's native settle region: every
        # registered drive (even the tiny toy disk) works with defaults.
        ds = Dataset.create((5, 5, 5), layout="multimap", drive="toy")
        assert ds.volume.depth(0) == 9
        ds = Dataset.create(DIMS, layout="naive", drive=small_model)
        assert ds.volume.depth(0) == 16
        ds = Dataset.create((8, 4, 4), layout="naive", drive="atlas10k3")
        assert ds.volume.depth(0) == 128  # the paper's pinned D

    def test_layout_opts_forwarded(self, small_model):
        ds = Dataset.create(DIMS, layout="multimap", drive=small_model,
                            depth=DEPTH, strategy="volume")
        assert ds.layout_opts == {"strategy": "volume"}
        assert ds.mapper.name == "multimap"

    def test_describe_is_json_friendly(self, small_model):
        import json

        ds = Dataset.create(DIMS, layout="naive", drive=small_model,
                            depth=DEPTH, seed=3)
        desc = json.loads(json.dumps(ds.describe()))
        assert desc["layout"] == "naive"
        assert desc["seed"] == 3
        assert desc["n_cells"] == int(np.prod(DIMS))


class TestWithLayout:
    def test_clone_keeps_store_options(self, small_model):
        ds = Dataset.create(DIMS, layout="multimap", drive=small_model,
                            depth=DEPTH).configure_store(
            points_per_cell=8, fill_factor=0.5)
        clone = ds.with_layout("naive")
        assert clone.store.points_per_cell == 8
        assert clone.store.fill_factor == 0.5

    def test_clone_keeps_shape_drive_seed(self, small_model):
        ds = Dataset.create(DIMS, layout="naive", drive=small_model,
                            depth=DEPTH, seed=11)
        clone = ds.with_layout("hilbert")
        assert clone.shape == ds.shape
        assert clone.drive_name == ds.drive_name
        assert clone.seed == ds.seed
        assert clone.layout == "hilbert"
        assert clone.volume is not ds.volume

    def test_clone_matches_fresh_create(self, small_model):
        base = Dataset.create(DIMS, layout="naive", drive=small_model,
                              depth=DEPTH)
        clone = base.with_layout("zorder")
        fresh = Dataset.create(DIMS, layout="zorder", drive=small_model,
                               depth=DEPTH)
        plan_a = clone.mapper.range_plan((0, 0, 0), (5, 5, 5))
        plan_b = fresh.mapper.range_plan((0, 0, 0), (5, 5, 5))
        assert np.array_equal(plan_a.starts, plan_b.starts)
        assert np.array_equal(plan_a.lengths, plan_b.lengths)


class TestSeeding:
    def test_same_seed_same_report(self, small_model):
        def run():
            ds = Dataset.create(DIMS, layout="multimap",
                                drive=small_model, depth=DEPTH, seed=77)
            return ds.random_beams(1, n=3).range_selectivity(5.0).run()

        a, b = run(), run()
        assert [r.total_ms for r in a.results] == \
            [r.total_ms for r in b.results]
        assert [r.query for r in a.records] == [r.query for r in b.records]

    def test_successive_runs_get_independent_streams(self, small_model):
        ds = Dataset.create(DIMS, layout="naive", drive=small_model,
                            depth=DEPTH, seed=77)
        a = ds.random_beams(1, n=3).run()
        b = ds.random_beams(1, n=3).run()
        assert [r.query for r in a.records] != [r.query for r in b.records]

    def test_layout_clone_sees_same_streams(self, small_model):
        ds = Dataset.create(DIMS, layout="naive", drive=small_model,
                            depth=DEPTH, seed=5)
        clone = ds.with_layout("naive")
        a = ds.random_beams(2, n=4).run()
        b = clone.random_beams(2, n=4).run()
        assert [r.query for r in a.records] == [r.query for r in b.records]
        assert [r.result for r in a.records] == \
            [r.result for r in b.records]

    def test_spawned_children_follow_seedsequence(self, small_model):
        ds = Dataset.create(DIMS, layout="naive", drive=small_model,
                            depth=DEPTH, seed=123)
        expected = np.random.default_rng(
            np.random.SeedSequence(123).spawn(1)[0]
        )
        assert ds.rng().integers(1 << 30) == expected.integers(1 << 30)


class TestFluentBatches:
    def test_chaining_accumulates(self, small_model):
        ds = Dataset.create(DIMS, layout="naive", drive=small_model,
                            depth=DEPTH, seed=1)
        batch = ds.beam(0, fixed=(0, 1, 1)).range((0, 0, 0), (4, 4, 4))
        batch.random_beams(1, n=2).range_selectivity(10.0)
        assert len(batch) == 5
        report = batch.run()
        assert len(report) == 5

    def test_repeats_redraw_lazy_entries(self, small_model):
        ds = Dataset.create(DIMS, layout="naive", drive=small_model,
                            depth=DEPTH, seed=2)
        report = ds.beam(1).run(repeats=3)
        assert len(report) == 3
        queries = [r.query for r in report.records]
        assert len(set(queries)) > 1  # random positions differ per repeat
        assert [r.repeat for r in report.records] == [0, 1, 2]

    def test_run_accepts_workload_objects(self, small_model):
        ds = Dataset.create(DIMS, layout="naive", drive=small_model,
                            depth=DEPTH, seed=3)
        queries = [
            BeamQuery(axis=0, fixed=(0, 2, 2)),
            RangeQuery((0, 0, 0), (5, 5, 5)),
        ]
        report = ds.run(queries)
        assert len(report) == 2
        assert report.records[0].query == queries[0]
        assert report.records[1].query == queries[1]

    def test_run_accepts_batch(self, small_model):
        ds = Dataset.create(DIMS, layout="naive", drive=small_model,
                            depth=DEPTH, seed=3)
        report = ds.run(ds.beam(0, fixed=(0, 1, 1)), repeats=2)
        assert len(report) == 2

    def test_run_rebinds_foreign_batch(self, small_model):
        base = Dataset.create(DIMS, layout="naive", drive=small_model,
                              depth=DEPTH, seed=4)
        mm = base.with_layout("multimap")
        batch = base.beam(1, fixed=(0, 3, 0))
        rep = mm.run(batch)
        assert rep.layout == "multimap"
        assert rep.results[0].mapper == "multimap"
        # the original batch still runs on its own dataset
        assert base.run(batch).results[0].mapper == "naive"

    def test_rebind_rejects_shape_mismatch(self, small_model):
        a = Dataset.create(DIMS, layout="naive", drive=small_model,
                           depth=DEPTH)
        b = Dataset.create((10, 10, 4), layout="naive", drive=small_model,
                           depth=DEPTH)
        with pytest.raises(QueryError, match="shape"):
            b.run(a.beam(0, fixed=(0, 1, 1)))

    def test_random_beam_keeps_span(self, small_model):
        ds = Dataset.create(DIMS, layout="naive", drive=small_model,
                            depth=DEPTH, seed=9)
        rep = ds.beam(0, lo=2, hi=7).run()
        q = rep.records[0].query
        assert (q.lo, q.hi) == (2, 7)
        assert rep.results[0].n_cells == 5

    def test_run_honours_batch_repeats(self, small_model):
        ds = Dataset.create(DIMS, layout="naive", drive=small_model,
                            depth=DEPTH, seed=3)
        batch = ds.beam(0, fixed=(0, 1, 1)).repeats(3)
        assert len(ds.run(batch)) == 3          # batch setting wins
        assert len(ds.run(batch, repeats=2)) == 2  # explicit overrides

    def test_validation(self, small_model):
        ds = Dataset.create(DIMS, layout="naive", drive=small_model,
                            depth=DEPTH)
        with pytest.raises(QueryError):
            ds.random_beams(0, n=0)
        with pytest.raises(QueryError):
            ds.range_selectivity(0)
        with pytest.raises(QueryError):
            ds.query().repeats(0)
        with pytest.raises(QueryError):
            ds.run(["not a query"])

    def test_report_metadata(self, small_model):
        ds = Dataset.create(DIMS, layout="hilbert", drive=small_model,
                            depth=DEPTH, seed=4)
        report = ds.beam(0, fixed=(0, 1, 1)).run()
        assert report.layout == "hilbert"
        assert report.drive == ds.drive_name
        assert report.shape == DIMS
        assert report.meta["seed"] == 4


class TestUpdates:
    def test_insert_delete_through_facade(self, small_model):
        ds = Dataset.create((8, 4, 4), layout="multimap",
                            drive=small_model, depth=DEPTH, seed=6)
        ds.configure_store(points_per_cell=4, fill_factor=0.5)
        assert ds.insert((1, 1, 1), 2) == "cell"
        assert ds.insert((1, 1, 1), 10) == "overflow"
        stats = ds.store_stats()
        assert stats.overflow_pages >= 1
        ds.delete((1, 1, 1), 12)
        assert ds.store_stats().overflow_points == 0

    def test_bulk_load_and_reorganize(self, small_model, rng):
        ds = Dataset.create((8, 4, 4), layout="naive", drive=small_model,
                            depth=DEPTH, seed=6)
        ds.configure_store(points_per_cell=4, fill_factor=0.5)
        coords = np.stack(
            [rng.integers(0, s, size=600) for s in (8, 4, 4)], axis=1
        )
        spilled = ds.bulk_load(coords)
        assert spilled > 0
        if ds.needs_reorganization:
            ds.reorganize()
        assert ds.store_stats().n_points == 600

    def test_read_cells_includes_overflow(self, small_model):
        ds = Dataset.create((8, 4, 4), layout="multimap",
                            drive=small_model, depth=DEPTH, seed=6)
        ds.configure_store(points_per_cell=2)
        ds.insert((2, 2, 2), 7)  # 1 cell + 3 overflow pages
        res = ds.read_cells((2, 2, 2))
        assert res.n_blocks == 4
        assert res.total_ms > 0

    def test_configure_after_use_rejected(self, small_model):
        ds = Dataset.create((8, 4, 4), layout="naive", drive=small_model,
                            depth=DEPTH)
        ds.insert((0, 0, 0))
        with pytest.raises(DatasetError):
            ds.configure_store(points_per_cell=8)


class TestLazyImport:
    def test_top_level_reexports(self):
        import repro

        assert repro.Dataset is Dataset
        assert "Dataset" in repro.__all__
        assert repro.BeamQuery is BeamQuery
        with pytest.raises(AttributeError):
            repro.nonexistent_attribute

    def test_every_declared_export_resolves(self):
        import repro
        import repro.api

        for name in repro.__all__:
            assert getattr(repro, name) is not None
        for name in repro.api.__all__:
            assert getattr(repro.api, name) is not None

    def test_import_repro_is_cheap(self):
        import os
        import subprocess
        import sys

        import repro

        # a fresh interpreter importing repro must not pull the façade
        code = (
            "import sys; import repro; "
            "assert 'repro.api.dataset' not in sys.modules, "
            "'facade imported eagerly'; "
            "assert 'numpy' not in sys.modules, 'numpy imported eagerly'"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(
            repro.__file__
        )))
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0, proc.stderr

    def test_bench_and_datasets_exports_resolve(self):
        import repro.bench
        import repro.datasets

        for pkg in (repro.bench, repro.datasets):
            for name in pkg.__all__:
                assert getattr(pkg, name) is not None
            assert sorted(dir(pkg)) == sorted(pkg.__all__)
            with pytest.raises(AttributeError):
                pkg.nonexistent_attribute

    def test_storage_stack_skips_figures_and_generators(self):
        """Building and querying a dataset loads neither the figure
        harness nor the earthquake, OLAP and TPC-H generators."""
        import os
        import subprocess
        import sys

        import repro

        code = (
            "import sys\n"
            "from repro.api import Dataset\n"
            "ds = Dataset.create((12, 8, 8), layout='hilbert', "
            "drive='atlas10k3', seed=1)\n"
            "ds.random_beams(axis=1, n=2).run()\n"
            "ds.range_selectivity(1.0).run()\n"
            "loaded = sorted({'repro.bench.figures', 'repro.bench.harness',"
            " 'repro.datasets.earthquake', 'repro.datasets.olap',"
            " 'repro.datasets.tpch'} & set(sys.modules))\n"
            "assert not loaded, loaded\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(
            repro.__file__
        )))
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0, proc.stderr
