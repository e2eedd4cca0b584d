"""Failure injection: schedules, determinism, and degraded traffic."""

import pytest

from repro.api import Dataset
from repro.errors import QueryError, ReplicaError
from repro.replica import FailureEvent, FailureInjector, FailureSchedule
from repro.traffic import QueryMix, TrafficConfig, TrafficSim
from repro.traffic.clients import TrafficClient

SHAPE = (24, 12, 12)


def build(small_model, *, n=3, k=2, seed=9, layout="multimap", **opts):
    return Dataset.create(
        SHAPE, layout=layout, drive=small_model, seed=seed,
    ).with_shards(n).with_replication(k, **opts)


class TestInjector:
    def test_pick_disk_deterministic(self):
        a = FailureInjector(8, seed=3)
        b = FailureInjector(8, seed=3)
        assert [a.pick_disk() for _ in range(10)] == \
            [b.pick_disk() for _ in range(10)]

    def test_pick_disk_respects_exclusions(self):
        inj = FailureInjector(3, seed=0)
        assert inj.pick_disk(exclude=(0, 1)) == 2
        with pytest.raises(ReplicaError, match="no disk left"):
            inj.pick_disk(exclude=(0, 1, 2))

    def test_kill_and_revive_roundtrip(self, small_model):
        ds = build(small_model)
        inj = FailureInjector(3, seed=4)
        dead = inj.kill(ds.storage)
        assert dead in ds.storage.failed
        inj.revive(ds.storage, dead)
        assert not ds.storage.failed

    def test_schedule_builder(self):
        inj = FailureInjector(4, seed=1)
        inj.schedule_kill(10.0, disk=2, revive_at_ms=50.0)
        inj.schedule_kill(20.0, disk=0)
        sched = inj.schedule
        assert [ev.action for ev in sched] == ["kill", "kill", "revive"]
        assert [ev.t_ms for ev in sched] == [10.0, 20.0, 50.0]

    def test_schedule_kill_draws_victim(self):
        a = FailureInjector(6, seed=11).schedule_kill(5.0).schedule
        b = FailureInjector(6, seed=11).schedule_kill(5.0).schedule
        assert a.events == b.events

    def test_revive_must_follow_kill(self):
        inj = FailureInjector(2, seed=0)
        with pytest.raises(ReplicaError, match="revive"):
            inj.schedule_kill(10.0, disk=0, revive_at_ms=5.0)


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

    def test_coerce_forms(self):
        sched = FailureSchedule((FailureEvent(1.0, "kill", 0),))
        assert FailureSchedule.coerce(sched) is sched
        from_tuples = FailureSchedule.coerce([(1.0, "kill", 0)])
        assert from_tuples.events == sched.events
        inj = FailureInjector(2, seed=0).schedule_kill(1.0, disk=0)
        assert FailureSchedule.coerce(inj).events == sched.events

    def test_describe_round_trips_json(self):
        import json

        sched = FailureSchedule((FailureEvent(1.5, "kill", 2),))
        payload = json.loads(json.dumps(sched.describe()))
        assert payload["events"][0] == {
            "t_ms": 1.5, "action": "kill", "disk": 2,
        }


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

    def test_failures_method_accepts_schedule(self, small_model):
        ds = build(small_model)
        sched = FailureInjector(3, seed=2).schedule_kill(4.0, disk=0)
        report = (
            ds.traffic()
            .clients(2, mix=QueryMix.beams(1, 2), queries=4)
            .failures(sched)
            .run()
        )
        assert len(report.traces) == 8
        assert report.meta["failures"]["schedule"][0]["disk"] == 0

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
            .closed(1, think_ms=0.0, queries=3)
            .kill(51.5, 1)
            .run()
        )
        assert len(report.traces) == 3
        assert report.meta["failures"]["redispatched_subs"] >= 1

    def test_out_of_range_disk_raises(self, small_model):
        """A typo'd disk index must not silently measure the healthy
        path while the meta claims a failure was injected."""
        ds = build(small_model)
        with pytest.raises(QueryError, match="no client volume"):
            (
                ds.traffic()
                .clients(2, mix=QueryMix.beams(1, 2), queries=4)
                .kill(2.0, 7)
                .run()
            )

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
            TrafficClient(
                name="c0", storage=ds.storage, mapper=ds.mapper,
                mix=QueryMix.beams(1, 2), n_queries=5, rng=ds.rng(),
            )
        ]
        sim = TrafficSim(
            clients, TrafficConfig(slice_runs=8),
            failures=[(4.0, "kill", 2)],
        )
        report = sim.run()
        assert len(report.traces) == 5
        assert report.meta["failures"]["schedule"][0]["disk"] == 2
