"""Tests for the 4-D OLAP cube and the five §5.5 queries."""

import tracemalloc
from collections import Counter, defaultdict

import numpy as np
import pytest

from repro.datasets import (
    OLAP_CHUNK_DIMS,
    OLAP_RAW_DIMS,
    OLAP_ROLLED_DIMS,
    OLAPCube,
    generate_fact_table,
    paper_olap_queries,
)
from repro.query import BeamQuery, RangeQuery


@pytest.fixture(scope="module")
def table():
    return generate_fact_table(20_000, seed=9)


@pytest.fixture(scope="module")
def cube(table):
    return OLAPCube.from_fact_table(table)


def fact_totals(table, rollup=1):
    """Per-cell point counts and profit sums straight off the facts."""
    counts = Counter()
    profit = defaultdict(float)
    for row, p in zip(table.coordinates().tolist(), table.profit.tolist()):
        cell = (row[0] // rollup,) + tuple(row[1:])
        counts[cell] += 1
        profit[cell] += p
    return counts, profit


def cube_totals(cube):
    coords = np.stack(np.unravel_index(cube.cells, cube.dims), axis=1)
    cells = [tuple(c) for c in coords.tolist()]
    return (dict(zip(cells, cube.counts.tolist())),
            dict(zip(cells, cube.profit.tolist())))


class TestCubeShapes:
    def test_paper_dims(self):
        assert OLAP_RAW_DIMS == (2361, 150, 25, 50)
        assert OLAP_ROLLED_DIMS == (1182, 150, 25, 50)
        assert OLAP_CHUNK_DIMS == (591, 75, 25, 25)

    def test_chunking_consistent(self):
        """Two chunks per rolled dimension except Nation (§5.5)."""
        ratio = [r // c for r, c in zip(OLAP_ROLLED_DIMS, OLAP_CHUNK_DIMS)]
        assert ratio == [2, 2, 1, 2]


class TestAggregation:
    def test_counts_total(self, cube):
        assert int(cube.counts.sum()) == 20_000

    def test_profit_preserved(self, cube, table):
        assert cube.profit.sum() == pytest.approx(table.profit.sum())

    def test_cell_lookup(self, cube, table):
        row = tuple(int(v) for v in table.coordinates()[0])
        assert cube.count_at(row) >= 1

    def test_empty_cell_lookup(self, cube):
        occupied = set(cube.cells.tolist())
        empty = next(i for i in range(cube.n_cells) if i not in occupied)
        coord = np.unravel_index(empty, cube.dims)
        assert cube.count_at(coord) == 0

    def test_cells_sorted_and_occupied(self, cube):
        assert np.all(np.diff(cube.cells) > 0)
        assert np.all(cube.counts >= 1)

    def test_matches_fact_counter(self, cube, table):
        """Every occupied cell, its count and its profit sum, pinned
        against a plain Counter over the fact coordinates."""
        counts, profit = fact_totals(table)
        got_counts, got_profit = cube_totals(cube)
        assert got_counts == dict(counts)
        assert got_profit.keys() == profit.keys()
        for cell, p in profit.items():
            assert got_profit[cell] == pytest.approx(p)

    def test_memory_grows_with_facts_not_cells(self, table):
        """20,000 facts over 442.7M cells: the dense cube needed ~7 GB,
        the sparse one (roll-up included) stays within a few MB."""
        tracemalloc.start()
        try:
            OLAPCube.from_fact_table(table).roll_up_orderdate(2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


class TestRollUp:
    def test_rollup_halves_axis0(self, cube):
        rolled = cube.roll_up_orderdate(2)
        assert rolled.dims[0] == -(-2361 // 2)
        assert rolled.dims[1:] == cube.dims[1:]

    def test_rollup_preserves_totals(self, cube):
        rolled = cube.roll_up_orderdate(2)
        assert int(rolled.counts.sum()) == int(cube.counts.sum())
        assert rolled.profit.sum() == pytest.approx(cube.profit.sum())

    def test_rollup_increases_density(self, cube):
        """The §5.5 motivation: combining two days roughly doubles the
        points per cell."""
        rolled = cube.roll_up_orderdate(2)
        assert rolled.mean_points_per_cell == pytest.approx(
            cube.mean_points_per_cell * 2, rel=0.01
        )

    def test_rollup_factor_one_is_identity(self, cube):
        same = cube.roll_up_orderdate(1)
        assert same.dims == cube.dims

    def test_occupancy_bounds(self, cube):
        assert 0 < cube.occupancy() < 1

    def test_density_from_totals(self, cube):
        assert cube.mean_points_per_cell == 20_000 / cube.n_cells
        assert cube.occupancy() == cube.cells.size / cube.n_cells

    @pytest.mark.parametrize("factor", [2, 3])
    def test_rollup_matches_fact_counter(self, cube, table, factor):
        counts, profit = fact_totals(table, rollup=factor)
        rolled = cube.roll_up_orderdate(factor)
        assert rolled.rollup == factor
        got_counts, got_profit = cube_totals(rolled)
        assert got_counts == dict(counts)
        for cell, p in profit.items():
            assert got_profit[cell] == pytest.approx(p)


class TestPaperQueries:
    def test_query_set(self):
        qs = paper_olap_queries(rng=np.random.default_rng(0))
        assert set(qs) == {"Q1", "Q2", "Q3", "Q4", "Q5"}

    def test_q1_is_orderdate_beam(self):
        qs = paper_olap_queries(rng=np.random.default_rng(0))
        assert isinstance(qs["Q1"], BeamQuery)
        assert qs["Q1"].axis == 0

    def test_q2_is_nation_beam(self):
        qs = paper_olap_queries(rng=np.random.default_rng(0))
        assert isinstance(qs["Q2"], BeamQuery)
        assert qs["Q2"].axis == 2

    def test_q3_shape(self):
        qs = paper_olap_queries(rng=np.random.default_rng(0))
        assert isinstance(qs["Q3"], RangeQuery)
        assert qs["Q3"].shape == (183, 1, 1, 25)

    def test_q4_shape(self):
        qs = paper_olap_queries(rng=np.random.default_rng(0))
        assert qs["Q4"].shape == (183, 1, 25, 25)

    def test_q5_shape(self):
        qs = paper_olap_queries(rng=np.random.default_rng(0))
        assert qs["Q5"].shape == (10, 10, 10, 10)

    def test_queries_within_chunk(self):
        for seed in range(5):
            qs = paper_olap_queries(rng=np.random.default_rng(seed))
            for q in qs.values():
                if isinstance(q, RangeQuery):
                    for d in range(4):
                        assert 0 <= q.lo[d] < q.hi[d] <= OLAP_CHUNK_DIMS[d]

    def test_custom_chunk_dims(self):
        qs = paper_olap_queries((100, 20, 25, 25),
                                rng=np.random.default_rng(1))
        assert qs["Q3"].shape[0] == 100  # year clipped to chunk
