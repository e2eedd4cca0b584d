"""The rebuild model: streaming a dead disk's chunks onto a spare."""

import pytest

from repro.api import Dataset
from repro.errors import ReplicaError
from repro.replica import plan_rebuild

SHAPE = (24, 12, 12)


def build(small_model, *, n=3, k=2, **opts):
    return Dataset.create(
        SHAPE, layout="multimap", drive=small_model, seed=7,
    ).with_shards(n).with_replication(k, **opts)


class TestPlanRebuild:
    def test_rebuild_covers_every_lost_copy(self, small_model):
        ds = build(small_model)
        dead = 1
        lost = ds.replica_map.copies_on_disk(dead)
        report = plan_rebuild(ds.storage, dead)
        assert report.n_copies == len(lost)
        assert report.n_blocks == sum(
            ds.replica_map.shard_map.chunks[c].n_cells
            for c, _ in lost
        )
        assert report.rebuild_ms > 0
        assert report.spare_write_ms > 0
        assert dead not in report.source_read_ms

    def test_ideal_is_makespan_of_sources_and_spare(self, small_model):
        report = plan_rebuild(build(small_model).storage, 0)
        expected = max(
            max(report.source_read_ms.values()), report.spare_write_ms
        )
        assert report.ideal_ms == expected
        assert report.rebuild_ms == expected  # throttle 1.0

    def test_throttle_stretches_rebuild(self, small_model):
        storage = build(small_model).storage
        full = plan_rebuild(storage, 0)
        half = plan_rebuild(storage, 0, throttle=0.5)
        assert half.rebuild_ms == pytest.approx(2 * full.rebuild_ms)
        assert half.ideal_ms == full.ideal_ms
        # throttling lowers the per-source busy fraction
        for disk in full.source_read_ms:
            assert half.interference()[disk]["busy_frac"] < \
                full.interference()[disk]["busy_frac"]

    def test_interference_dilation(self, small_model):
        report = plan_rebuild(build(small_model).storage, 2)
        for stats in report.interference().values():
            assert 0 < stats["busy_frac"] < 1
            assert stats["foreground_dilation"] == pytest.approx(
                1.0 / (1.0 - stats["busy_frac"])
            )

    def test_to_dict_is_json_friendly(self, small_model):
        import json

        payload = plan_rebuild(build(small_model).storage, 1).to_dict()
        assert json.loads(json.dumps(payload)) == payload
        assert payload["dead_disk"] == 1
        assert set(payload["interference"]) == \
            set(payload["source_read_ms"])

    def test_deterministic(self, small_model):
        a = plan_rebuild(build(small_model).storage, 1).to_dict()
        b = plan_rebuild(build(small_model).storage, 1).to_dict()
        assert a == b

    @pytest.mark.parametrize("replicate", [False, True],
                             ids=["sharded", "with_replication_1"])
    def test_k1_rebuild_impossible(self, small_model, replicate):
        """Every dataset holds one copy unless replicated, so a dead
        disk's chunks have no source to rebuild from."""
        ds = Dataset.create(SHAPE, layout="multimap", drive=small_model,
                            seed=7).with_shards(3)
        if replicate:
            ds.with_replication(1)
        with pytest.raises(ReplicaError, match="cannot be rebuilt"):
            plan_rebuild(ds.storage, 0)

    def test_validates_inputs(self, small_model):
        storage = build(small_model).storage
        with pytest.raises(ReplicaError, match="out of range"):
            plan_rebuild(storage, 7)
        with pytest.raises(ReplicaError, match="throttle"):
            plan_rebuild(storage, 0, throttle=0.0)

    def test_second_failure_narrows_sources(self, small_model):
        """With another disk already failed, it cannot serve reads."""
        ds = build(small_model, n=3, k=3)
        ds.storage.fail_disk(1)
        report = plan_rebuild(ds.storage, 0)
        assert 1 not in report.source_read_ms
        assert 0 not in report.source_read_ms
