"""Exported traces are a pure function of (workload, seed)."""

import json

import pytest


def batch_exports(make_dataset, *, seed=42):
    ds = make_dataset(seed=seed).with_telemetry()
    ds.random_beams(axis=1, n=4).run()
    return ds.telemetry.export()


def traffic_exports(make_dataset, *, seed=42, slice_runs=16):
    ds = make_dataset(seed=seed).with_shards(2).with_telemetry()
    (
        ds.traffic()
        .clients(2, queries=4)
        .slice_runs(slice_runs)
        .run()
    )
    return ds.telemetry.export()


class TestByteIdenticalExports:
    def test_batch_same_seed_same_bytes(self, make_dataset):
        assert batch_exports(make_dataset) == batch_exports(make_dataset)

    def test_batch_different_seed_differs(self, make_dataset):
        a = batch_exports(make_dataset, seed=1)
        b = batch_exports(make_dataset, seed=2)
        assert a != b

    def test_traffic_same_seed_same_bytes(self, make_dataset):
        assert traffic_exports(make_dataset) == traffic_exports(
            make_dataset
        )


class TestObserverInvariance:
    """Attaching the observer never changes what it observes."""

    def test_traffic_json_stable_under_observer(self, make_dataset):
        def storm(attach):
            ds = make_dataset().with_shards(2)
            if attach:
                ds.with_telemetry()
            report = (
                ds.traffic().clients(3, queries=3).slice_runs(8).run()
            )
            data = json.loads(report.to_json())
            data["meta"].pop("obs", None)
            data["meta"].get("dataset", {}).pop("obs", None)
            return data

        assert storm(True) == storm(False)

    def test_interleaving_stable_across_slice_granularity(
            self, make_dataset):
        """Slice granularity changes *when* drives serve, not *what*:
        per-query serviced blocks in the trace are invariant."""

        def blocks(slice_runs):
            ds = make_dataset().with_telemetry()
            ds.traffic().clients(2, queries=3).slice_runs(
                slice_runs
            ).run()
            out = {}
            for root in ds.telemetry.tracer.roots:
                out[root.name] = sum(
                    s.attrs["blocks"] for s in root.walk()
                    if s.cat in ("service", "flush")
                )
            return out

        assert blocks(4) == blocks(None)

    def test_export_does_not_mutate_state(self, make_dataset):
        ds = make_dataset().with_telemetry()
        ds.random_beams(axis=1, n=2).run()
        tele = ds.telemetry
        first = tele.export()
        assert tele.export() == first
