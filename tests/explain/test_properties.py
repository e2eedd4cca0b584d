"""Hypothesis invariants tying EXPLAIN/ANALYZE to the layers below.

Three properties the diagnosis layer must never break: EXPLAIN's
predicted block totals equal the prepared plan's block totals for every
layout x query shape; run classification is a pure function of the run
sequence, so it is stable under any slice granularity; and ANALYZE's
measured per-phase durations reconcile exactly with the recorded span
tree.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.dataset import Dataset
from repro.explain import analyze_query, explain_query, prepare_readonly
from repro.explain.classify import classify_runs
from repro.query import slice_plan
from repro.query.workload import BeamQuery, RangeQuery

LAYOUTS = ("naive", "multimap", "zorder", "hilbert", "gray")


@st.composite
def dataset_and_query(draw):
    layout = draw(st.sampled_from(LAYOUTS))
    seed = draw(st.integers(0, 2**31))
    rng = np.random.default_rng(seed)
    shape = tuple(int(rng.integers(4, 20)) for _ in range(3))
    if draw(st.booleans()):
        axis = int(rng.integers(0, 3))
        fixed = tuple(
            0 if d == axis else int(rng.integers(0, s))
            for d, s in enumerate(shape)
        )
        query = BeamQuery(axis, fixed)
    else:
        lo = tuple(int(rng.integers(0, s)) for s in shape)
        hi = tuple(int(rng.integers(l + 1, s + 1))
                   for l, s in zip(lo, shape))
        query = RangeQuery(lo, hi)
    return layout, shape, seed, query


class TestExplainProperties:
    @given(case=dataset_and_query())
    @settings(max_examples=25, deadline=None)
    def test_predicted_blocks_equal_prepared_blocks(self, case):
        """EXPLAIN's totals are the prepared plan's totals — per sub,
        per disk, and in aggregate — for every layout x query shape."""
        layout, shape, seed, query = case
        ds = Dataset.create(shape, layout=layout, drive="minidrive",
                            seed=seed)
        out = explain_query(ds, query)
        prepared = prepare_readonly(ds, query)
        assert out["plan"]["blocks"] == prepared.n_blocks
        assert out["plan"]["runs"] == prepared.n_runs
        per_disk = out["predicted"]["per_disk"]
        assert sum(row["blocks"] for row in per_disk.values()) \
            == prepared.n_blocks
        assert sum(row["runs"] for row in per_disk.values()) \
            == prepared.n_runs
        hist = out["plan"]["run_length_histogram"]
        assert sum(int(k) * v for k, v in hist.items()) \
            == prepared.n_blocks

    @given(case=dataset_and_query(),
           max_runs=st.integers(min_value=1, max_value=16))
    @settings(max_examples=25, deadline=None)
    def test_classification_stable_under_slice_granularity(
            self, case, max_runs):
        """Slicing a plan never changes its classification: per-slice
        step counts plus the boundary strides between consecutive
        slices recompose exactly to the whole plan's counts."""
        layout, shape, seed, query = case
        ds = Dataset.create(shape, layout=layout, drive="minidrive",
                            seed=seed)
        prepared = prepare_readonly(ds, query)
        for sub in prepared.subs:
            whole = classify_runs(ds.volume, sub.disk_index, sub.plan)
            slices = slice_plan(sub.plan, max_runs)
            recomposed = {"sequential": 0, "semi_sequential": 0,
                          "random": 0}
            for i, piece in enumerate(slices):
                part = classify_runs(ds.volume, sub.disk_index, piece)
                for name, count in part["steps"].items():
                    recomposed[name] += count
                if i:
                    prev = slices[i - 1]
                    from repro.explain.classify import classify_strides

                    code = classify_strides(
                        ds.volume, sub.disk_index,
                        np.array([int(prev.starts[-1]
                                      + prev.lengths[-1] - 1)]),
                        np.array([int(piece.starts[0])]),
                    )[0]
                    key = ("sequential", "semi_sequential",
                           "random")[code]
                    recomposed[key] += 1
            assert recomposed == whole["steps"]

    @given(case=dataset_and_query())
    @settings(max_examples=10, deadline=None)
    def test_analyze_phases_reconcile_with_span_tree(self, case):
        """ANALYZE's measured per-phase durations equal an identical
        same-seed run's recorded span tree, category by category."""
        layout, shape, seed, query = case
        ds = Dataset.create(shape, layout=layout, drive="minidrive",
                            seed=seed)
        out = explain_query(ds, query)
        measured, _ = analyze_query(ds, query, out["predicted"])

        twin = Dataset.create(shape, layout=layout, drive="minidrive",
                              seed=seed)
        twin.with_telemetry(trace=True, metrics=False)
        twin.storage.run_query(twin.mapper, query, rng=twin.rng())
        root = twin.telemetry.tracer.roots[0]
        phases = {}
        for span in root.walk():
            if span is not root:
                phases[span.cat] = phases.get(span.cat, 0.0) \
                    + span.dur_ms
        assert measured["phase_ms"] == {
            cat: pytest.approx(ms, abs=0.01)
            for cat, ms in sorted(phases.items())
        }
        assert measured["total_ms"] == pytest.approx(
            root.dur_ms, abs=0.01
        )
