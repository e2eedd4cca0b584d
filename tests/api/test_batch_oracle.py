"""``Dataset.run`` equals running its entries one query at a time.

A batch is served in two phases (:func:`repro.query.scatter.scatter_batch`):
entry by entry, each query is drawn, prepared, given its head positions
and admitted to the pool; then, per disk, one drive preparation covers
every pending sub-plan and each is serviced from its slice.  The oracle
below is the loop that served one query at a time before: draw the
query, prepare it, then per involved disk (first-appearance order) draw
the head, service each sub-plan with ``service_runs`` and admit it, and
record the gather.  The property runs both on twin datasets and requires
equal results, Report JSON, drive clocks, heads and firmware-cache
recency, pool stats, shard and replica stats, and telemetry spans and
metrics, over every registered layout, 1-3 shards x 1-2 copies,
pools with either prefetcher, telemetry, drives with a firmware
track cache, lazy and fixed entries, repeats, small service groups, a
failed disk, and an entry rejected mid-batch (same typed error, same
state).
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Dataset
from repro.api.registry import layout_names
from repro.api.report import Report, make_record
from repro.disk import TrackCache
from repro.errors import ReproError
from repro.query import scatter
from repro.query.executor import QueryResult
from repro.query.workload import (
    BeamQuery,
    RangeQuery,
    random_beam,
    random_range_cube,
)

SHAPE = (16, 8, 6)


def oracle_scatter(storage, prepared, rng):
    """One query, scatter-gather: the per-query loop kept as the
    reference."""
    by_disk = {}
    for sub in prepared.subs:
        by_disk.setdefault(sub.disk_index, []).append(sub)
    tele = storage.obs
    parts, per_disk = [], {}
    seek = rotation = transfer = switch = 0.0
    blocks = runs = 0
    makespan = 0.0
    for disk, disk_subs in by_disk.items():
        drive = storage.volume.drive(disk)
        drive.randomize_position(rng)
        busy = 0.0
        d_blocks = d_runs = 0
        for sub in disk_subs:
            res = drive.service_runs(sub.plan.starts, sub.plan.lengths,
                                     policy=sub.policy,
                                     window=storage.window)
            storage.admit_prepared(sub)
            if tele is not None:
                parts.append((sub, res))
            busy += res.total_ms + sub.cache_ms
            d_blocks += res.n_blocks + sub.cache_hits
            d_runs += res.n_requests + sub.cache_runs
            seek += res.seek_ms
            rotation += res.rotation_ms
            transfer += res.transfer_ms
            switch += res.switch_ms
        blocks += d_blocks
        runs += d_runs
        makespan = max(makespan, busy)
        per_disk[disk] = {"busy_ms": busy, "blocks": d_blocks,
                          "runs": d_runs}
    result = QueryResult(
        mapper=prepared.mapper_name, total_ms=makespan,
        n_cells=prepared.n_cells, n_blocks=blocks, n_runs=runs,
        seek_ms=seek, rotation_ms=rotation, transfer_ms=transfer,
        switch_ms=switch, policy=prepared.policy,
    )
    if tele is not None:
        from repro.obs.span import record_scatter

        record_scatter(tele, prepared, parts, result)
    storage.shard_stats.record(per_disk, result.total_ms)
    return result


def oracle_run(ds, entries, repeats, rng):
    """The one-query-at-a-time batch loop, with the report it built."""
    storage = ds.storage
    records = []
    for rep in range(repeats):
        for entry in entries:
            kind = entry[0]
            if kind == "query":
                q = entry[1]
            elif kind == "random_beam":
                q = random_beam(ds.shape, entry[1], rng)
            else:
                q = random_range_cube(ds.shape, entry[1], rng)
            res = oracle_scatter(storage, storage.prepare(q), rng)
            records.append(make_record(q, res, rep))
    meta = {"repeats": repeats, "seed": ds.seed}
    if ds.cache is not None:
        meta["cache"] = ds.cache.describe()
    if ds.n_shards > 1:
        meta["shards"] = storage.describe_shards()
    if ds.replication_k > 1:
        meta["replicas"] = storage.describe_replicas()
    tele = storage.obs
    if tele is not None:
        meta["obs"] = tele.describe()
    return Report(records=tuple(records), layout=ds.layout,
                  drive=ds.drive_name, shape=ds.shape, meta=meta)


def build(case):
    ds = Dataset.create(SHAPE, layout=case["layout"], drive="minidrive",
                        seed=11)
    if case["shards"] > 1:
        ds.with_shards(case["shards"])
        if case["k"] > 1:
            ds.with_replication(case["k"])
    if case["pool"] is not None:
        ds.with_cache(*case["pool"])
    if case["obs"]:
        ds.with_telemetry()
    for drive in ds.volume.drives:
        if case["track_cache"]:
            drive.cache = TrackCache(case["track_cache"])
    if case["failed"] is not None:
        ds.storage.fail_disk(case["failed"])
    return ds


def state(ds):
    storage = ds.storage
    drives = [(d.now_ms, d.current_track,
               None if d.cache is None else list(d.cache._lru))
              for d in ds.volume.drives]
    tele = storage.obs
    spans = metrics = None
    if tele is not None:
        spans = [root.to_dict() for root in tele.tracer.roots]
        metrics = tele.metrics.snapshot()
    return (drives,
            None if ds.cache is None else ds.cache.describe(),
            storage.describe_shards(), storage.describe_replicas(),
            spans, metrics)


def as_batch(ds, entries, repeats):
    batch = ds.query().repeats(repeats)
    for entry in entries:
        if entry[0] == "query":
            batch.add(entry[1])
        elif entry[0] == "random_beam":
            batch.random_beams(entry[1], 1)
        else:
            batch.range_selectivity(entry[1])
    return batch


ENTRIES = st.one_of(
    st.tuples(st.just("random_beam"), st.integers(0, 2)),
    st.tuples(st.just("random_range"), st.sampled_from([1.0, 5.0, 30.0])),
    st.builds(lambda axis, a, b: ("query", BeamQuery(
        axis, tuple(0 if d == axis else (a, b)[d > axis] % SHAPE[d]
                    for d in range(3)))),
        st.integers(0, 2), st.integers(0, 15), st.integers(0, 15)),
    st.builds(lambda x, y: ("query", RangeQuery(
        (x, 0, y), (x + 4, 8, y + 2))),
        st.integers(0, 12), st.integers(0, 4)),
)

#: rejected when prepared: an axis out of range, a box off the grid
BAD = (("query", BeamQuery(5, (0, 0, 0))),
       ("query", RangeQuery((0, 0, 0), (17, 8, 6))))


@st.composite
def cases(draw):
    shards = draw(st.integers(1, 3))
    k = draw(st.integers(1, min(2, shards)))
    entries = draw(st.lists(ENTRIES, min_size=1, max_size=5))
    if draw(st.integers(0, 3)) == 0:
        entries.insert(draw(st.integers(0, len(entries))),
                       draw(st.sampled_from(BAD)))
    return {
        "layout": draw(st.sampled_from(sorted(layout_names()))),
        "shards": shards,
        "k": k,
        "pool": draw(st.one_of(st.none(), st.tuples(
            st.sampled_from([64, 512]),
            st.sampled_from(["none", "track"])))),
        "obs": draw(st.booleans()),
        "track_cache": draw(st.sampled_from([0, 1, 8])),
        "failed": (draw(st.one_of(st.none(), st.integers(0, shards - 1)))
                   if shards > 1 else None),
        "entries": entries,
        "repeats": draw(st.integers(1, 3)),
        "group_runs": draw(st.sampled_from([1, 16, scatter.GROUP_RUNS])),
        "seed": draw(st.integers(0, 2**32 - 1)),
    }


class TestRunEqualsOneQueryAtATime:
    @settings(max_examples=200, deadline=None)
    @given(cases())
    def test_results_report_and_state(self, case):
        batched, oracle = build(case), build(case)
        entries, repeats = case["entries"], case["repeats"]
        got = want = None
        with mock.patch.object(scatter, "GROUP_RUNS", case["group_runs"]):
            try:
                got = batched.run(as_batch(batched, entries, repeats),
                                  rng=np.random.default_rng(case["seed"]))
            except ReproError as exc:
                got = type(exc), str(exc)
        try:
            want = oracle_run(oracle, entries, repeats,
                              np.random.default_rng(case["seed"]))
        except ReproError as exc:
            want = type(exc), str(exc)
        if isinstance(want, Report):
            assert isinstance(got, Report), got
            assert got.results == want.results
            assert got.to_json() == want.to_json()
        else:
            assert got == want
        assert state(batched) == state(oracle)

    @pytest.mark.parametrize("bad", BAD)
    def test_rejected_entry_keeps_the_entries_before_it(self, bad):
        """The entries before a rejected one are serviced and recorded;
        the rejected one is not."""
        case = {"layout": "multimap", "shards": 2, "k": 1,
                "pool": (512, "track"), "obs": True, "track_cache": 0,
                "failed": None}
        ds = build(case)
        batch = as_batch(ds, [("random_beam", 1), ("random_range", 5.0),
                              bad, ("random_beam", 2)], 1)
        with pytest.raises(ReproError):
            batch.run(rng=np.random.default_rng(4))
        assert ds.storage.shard_stats.n_queries == 2
        assert ds.telemetry.tracer.n_queries == 2
        assert ds.cache.stats.accesses > 0
