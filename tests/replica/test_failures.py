"""Failure schedules: typed events, determinism, and degraded traffic."""

import math

import numpy as np
import pytest

from repro.api import Dataset
from repro.errors import QueryError, ReplicaError
from repro.query.workload import RangeQuery
from repro.replica import FailureEvent, FailureSchedule
from repro.traffic import QueryMix, TrafficConfig, TrafficSim
from repro.traffic.clients import TrafficClient

SHAPE = (24, 12, 12)


def build(small_model, *, n=3, k=2, seed=9, layout="multimap", **opts):
    return Dataset.create(
        SHAPE, layout=layout, drive=small_model, seed=seed,
    ).with_shards(n).with_replication(k, **opts)


class TestInjector:
    """Failure injection on its kept forms: ``storage.fail_disk`` /
    ``revive_disk`` between queries, :meth:`TrafficRun.kill` in a storm,
    and the avail sweep's seeded victim draw."""

    def test_pick_disk_deterministic(self):
        """The avail sweep's victim is one seeded draw, the draw the
        retired ``FailureInjector(n_disks, seed).pick_disk()`` made."""
        from repro.replica import run_avail_sweep

        def victim(seed):
            return run_avail_sweep(
                (16, 8, 8), layouts=("naive",), ks=(1,), n_disks=3,
                n_beams=1, drive="minidrive", seed=seed,
            )["meta"]["killed_disk"]

        for seed in (0, 3, 7):
            expected = int(np.random.default_rng(seed).integers(3))
            assert victim(seed) == victim(seed) == expected

    def test_kill_and_revive_roundtrip(self, small_model):
        ds = build(small_model)
        ds.storage.fail_disk(1)
        assert ds.storage.failed == {1}
        ds.storage.revive_disk(1)
        assert not ds.storage.failed

    def test_schedule_builder(self, small_model):
        run = (
            build(small_model).traffic().clients(1, queries=2)
            .kill(10.0, 2, revive_at_ms=50.0)
            .kill(20.0, 0)
        )
        events = run.run().meta["failures"]["schedule"]
        assert [ev["action"] for ev in events] == ["kill", "kill", "revive"]
        assert [ev["t_ms"] for ev in events] == [10.0, 20.0, 50.0]

    def test_revive_must_follow_kill(self, small_model):
        run = build(small_model).traffic().clients(1, queries=2)
        with pytest.raises(ReplicaError, match="revive"):
            run.kill(10.0, 0, revive_at_ms=5.0)


class TestSchedule:
    def test_events_sorted_and_validated(self):
        sched = FailureSchedule((
            FailureEvent(20.0, "revive", 1),
            FailureEvent(5.0, "kill", 1),
        ))
        assert [ev.t_ms for ev in sched.events] == [5.0, 20.0]
        with pytest.raises(ReplicaError, match="unknown failure action"):
            FailureEvent(1.0, "explode", 0)
        with pytest.raises(ReplicaError):
            FailureEvent(-1.0, "kill", 0)

    def test_coerce_forms(self, small_model):
        """A schedule holds events and the engine takes a schedule: the
        coerced forms (``(t_ms, action, disk)`` tuples, a bare list)
        are refused."""
        assert not hasattr(FailureSchedule, "coerce")
        with pytest.raises(ReplicaError, match="FailureEvent"):
            FailureSchedule(((1.0, "kill", 0),))
        ds = build(small_model)
        client = TrafficClient(name="c0", mix=QueryMix.beams(1, 2),
                               n_queries=1, rng=ds.rng())
        with pytest.raises(QueryError, match="FailureSchedule"):
            TrafficSim(ds.storage, [client],
                       failures=[FailureEvent(1.0, "kill", 0)])

    def test_describe_round_trips_json(self):
        import json

        sched = FailureSchedule((FailureEvent(1.5, "kill", 2),))
        payload = json.loads(json.dumps(sched.describe()))
        assert payload["events"][0] == {
            "t_ms": 1.5, "action": "kill", "disk": 2,
        }


class TestTypedEvents:
    """A failure event's time is a finite real >= 0 and its disk an
    integer >= 0 (not a bool); ``TrafficRun.kill`` passes its arguments
    through unconverted, so a bad one raises :class:`ReplicaError` and
    schedules nothing."""

    @pytest.mark.parametrize("at_ms, disk", [
        (10.0, 1.7),
        (10.0, True),
        (10.0, "1"),
        (math.nan, 0),
        (math.inf, 0),
        ("x", 0),
    ])
    def test_kill_rejects_bad_values(self, small_model, at_ms, disk):
        run = build(small_model).traffic().clients(1, queries=2)
        with pytest.raises(ReplicaError):
            run.kill(at_ms, disk)
        assert "failures" not in run.run().meta

    def test_revive_must_come_after_the_kill(self, small_model):
        run = build(small_model).traffic().clients(1, queries=2)
        for revive_at_ms in (10.0, 50.0):
            with pytest.raises(ReplicaError, match="revive"):
                run.kill(50.0, 0, revive_at_ms=revive_at_ms)
        assert "failures" not in run.run().meta

    @pytest.mark.parametrize("t_ms, disk", [
        (1.0, 1.5), (1.0, "0"), (1.0, False), (math.nan, 0), ("1", 0),
    ])
    def test_event_rejects_bad_values(self, t_ms, disk):
        with pytest.raises(ReplicaError):
            FailureEvent(t_ms, "kill", disk)

    def test_numpy_numbers_are_stored_as_python_numbers(self):
        ev = FailureEvent(np.int64(5), "kill", np.int64(2))
        assert type(ev.t_ms) is float and type(ev.disk) is int
        assert ev == FailureEvent(5.0, "kill", 2)


class TestDegradedTraffic:
    def run_with_kill(self, ds, *, at_ms=5.0, disk=1, revive_at_ms=None,
                      clients=2, queries=6):
        return (
            ds.traffic()
            .clients(clients, mix=QueryMix.beams(1, 2), queries=queries)
            .slice_runs(8)
            .kill(at_ms, disk, revive_at_ms=revive_at_ms)
            .run()
        )

    def test_every_query_completes(self, small_model):
        report = self.run_with_kill(build(small_model))
        assert len(report.traces) == 12
        assert report.meta["failures"]["schedule"] == [
            {"t_ms": 5.0, "action": "kill", "disk": 1},
        ]
        assert report.meta["replicas"]["failed"] == [1]

    def test_redispatch_counted(self, small_model):
        report = self.run_with_kill(build(small_model), at_ms=2.0)
        assert report.meta["failures"]["redispatched_subs"] >= 1
        assert report.meta["replicas"]["stats"]["failovers"] >= 1

    def test_seeded_runs_bit_identical(self, small_model):
        r1 = self.run_with_kill(build(small_model, seed=17))
        r2 = self.run_with_kill(build(small_model, seed=17))
        assert r1.to_json() == r2.to_json()

    def test_kill_and_revive_completes(self, small_model):
        report = self.run_with_kill(
            build(small_model), at_ms=3.0, revive_at_ms=60.0, queries=8,
        )
        assert len(report.traces) == 16
        events = report.meta["failures"]["schedule"]
        assert [ev["action"] for ev in events] == ["kill", "revive"]

    def test_failure_free_run_has_no_failure_meta(self, small_model):
        ds = build(small_model)
        report = (
            ds.traffic()
            .clients(2, mix=QueryMix.beams(1, 2), queries=4)
            .run()
        )
        assert "failures" not in report.meta
        assert report.meta["replicas"]["k"] == 2

    def test_unreplicated_client_failure_raises(self, small_model):
        ds = Dataset.create(SHAPE, layout="multimap", drive=small_model,
                            seed=5).with_shards(3)
        with pytest.raises(ReplicaError, match="unreadable"):
            (
                ds.traffic()
                .clients(2, mix=QueryMix.beams(1, 2), queries=6)
                .kill(2.0, 1)
                .run()
            )

    def test_k1_replicated_failure_raises(self, small_model):
        ds = build(small_model, k=1)
        with pytest.raises(ReplicaError):
            self.run_with_kill(ds, at_ms=2.0)

    def test_mid_kill_with_cache(self, small_model):
        """Failover composes with a shared pool: frames of the dead disk
        are dropped and the run still completes every query."""
        ds = build(small_model).with_cache(4096, prefetch="track")
        report = self.run_with_kill(ds, at_ms=10.0, queries=8)
        assert len(report.traces) == 16
        assert not any(
            disk == 1 for disk in ds.cache._resident
            if ds.cache._resident[disk]
        )

    def test_failover_onto_finished_disk_still_completes(self):
        """Regression: failing a sub over onto a disk that already
        completed its portion of the same query must re-open that
        disk's pending slot — a stale zero-count in disk_remaining
        silently dropped the query (and every later closed-loop one)."""
        from repro.api import Dataset

        ds = Dataset.create(
            (32, 16, 16), layout="naive", drive="minidrive", seed=1,
        ).with_shards(2).with_replication(2)
        report = (
            ds.traffic()
            .clients(1, queries=3)
            .kill(51.5, 1)
            .run()
        )
        assert len(report.traces) == 3
        assert report.meta["failures"]["redispatched_subs"] >= 1

    def test_out_of_range_disk_raises(self, small_model):
        """A typo'd disk index must not silently measure the healthy
        path while the meta claims a failure was injected, nor serve a
        query first: the run is refused before any client draws from
        the dataset's generators, so drive clocks, heads and the next
        ``rng()`` are untouched (the kill used to raise only when it
        fired, after the storm had started)."""
        ds = build(small_model)
        ds.run([RangeQuery((0, 0, 0), (4, 4, 4))])
        heads = [(d.now_ms, d.current_track) for d in ds.volume.drives]
        with pytest.raises(QueryError, match="names disk 7, but the "
                           "volume has 3 member disks"):
            (
                ds.traffic()
                .clients(2, mix=QueryMix.beams(1, 2), queries=4)
                .kill(5.0, 7)
                .run()
            )
        assert [(d.now_ms, d.current_track)
                for d in ds.volume.drives] == heads
        twin = build(small_model)
        twin.run([RangeQuery((0, 0, 0), (4, 4, 4))])
        assert ds.rng().random() == twin.rng().random()

    def test_engine_refuses_missing_disk_before_running(self,
                                                        small_model):
        ds = build(small_model)
        client = TrafficClient(name="c0", mix=QueryMix.beams(1),
                               n_queries=4, rng=np.random.default_rng(0))
        with pytest.raises(QueryError, match="names disk 3"):
            TrafficSim(ds.storage, [client],
                       failures=FailureSchedule(
                           (FailureEvent(5.0, "kill", 3),)))
        assert all(d.now_ms == 0.0 for d in ds.volume.drives)

    def test_abandoned_sub_not_admitted_after_revive(self, small_model):
        """A sub-plan abandoned by failover was never fully serviced:
        its blocks must not enter the cache at completion, even when
        the dead disk is revived before the query finishes."""
        from repro.traffic.clients import RangeDraw

        ds = build(small_model).with_cache(16384)
        report = (
            ds.traffic()
            # one full-dataset range: one sub-plan per chunk, so the
            # killed disk's sub is in flight (or queued) at the kill
            .clients(1, mix=QueryMix([RangeDraw(100.0)]), queries=1)
            .slice_runs(4)
            .kill(1.0, 1, revive_at_ms=2.0)
            .run()
        )
        assert len(report.traces) == 1
        assert report.meta["failures"]["redispatched_subs"] >= 1
        # disk 1 was revived before completion, yet none of its blocks
        # may be resident — they were dropped at the kill and never
        # re-read from that disk
        assert len(ds.cache._resident.get(1, ())) == 0
        assert ds.cache.occupancy > 0  # the live disks' blocks landed

    def test_engine_level_failures_param(self, small_model):
        """TrafficSim accepts the schedule directly (no façade)."""
        ds = build(small_model, seed=31)
        clients = [
            TrafficClient(name="c0", mix=QueryMix.beams(1, 2),
                          n_queries=5, rng=ds.rng())
        ]
        sim = TrafficSim(
            ds.storage, clients, TrafficConfig(slice_runs=8),
            failures=FailureSchedule((FailureEvent(4.0, "kill", 2),)),
        )
        report = sim.run()
        assert len(report.traces) == 5
        assert report.meta["failures"]["schedule"][0]["disk"] == 2
