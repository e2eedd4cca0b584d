"""The array-backed :class:`CellStore` against the dict-of-lists store
it replaced.

``ReferenceCellStore`` keeps the earlier store verbatim: one Python list
of ``[page_lbn, count]`` pages per chained cell, spilled, drained and
folded page by page.  A hypothesis state machine drives it and the real
store side by side — ``bulk_load``, ``bulk_insert``, ``insert``,
``delete``, the grow and no-grow reorganisations of
:func:`~repro.ingest.reorg.plan_reorganize`, ``read_plan`` and
``drain_touched_pages`` — each on its own identically built volume, and
after every step requires equal occupancy, chains, dirty pages and
every reporting method.  An exhausted overflow extent must raise
:class:`MappingError` on both; the reference has by then changed part
of its state (the real store changes none), so both are rebuilt.
"""

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.api.registry import build_mapper, get_drive
from repro.core.store import CellStore, StoreStats
from repro.errors import DatasetError, MappingError, _check_count
from repro.lvm.volume import LogicalVolume
from repro.mappings.base import Mapper, RequestPlan, coalesce_ranks
from repro.query.workload import _check_ints


class ReferenceCellStore:
    """Cells with fill factor, overflow chains and reclamation triggers.

    Parameters
    ----------
    mapper:
        The placement of the primary cells.
    volume:
        Volume the overflow extent is allocated from (the mapper's disk).
    points_per_cell:
        Physical capacity of one cell.
    fill_factor:
        Fraction of capacity used during initial load (leaving headroom
        for inserts); 1.0 reproduces the paper's read-only evaluation.
    reclaim_threshold:
        A cell underflows when its occupancy falls below this fraction;
        :attr:`needs_reorganization` trips when any cell underflows.
    """

    def __init__(
        self,
        mapper: Mapper,
        volume: LogicalVolume,
        *,
        points_per_cell: int = 16,
        fill_factor: float = 1.0,
        reclaim_threshold: float = 0.25,
        max_overflow_pages: int = 4096,
    ):
        if not 0.0 < fill_factor <= 1.0:
            raise DatasetError("fill_factor must be in (0, 1]")
        if not 0.0 <= reclaim_threshold < 1.0:
            raise DatasetError("reclaim_threshold must be in [0, 1)")
        if points_per_cell < 1:
            raise DatasetError("points_per_cell must be >= 1")
        self.mapper = mapper
        self.volume = volume
        self.points_per_cell = int(points_per_cell)
        self.fill_factor = float(fill_factor)
        self.reclaim_threshold = float(reclaim_threshold)

        self._occupancy = np.zeros(mapper.n_cells, dtype=np.int64)
        self._loaded = np.zeros(mapper.n_cells, dtype=bool)
        # overflow chains: cell flat index -> list of (page_lbn, count)
        self._overflow: dict[int, list[list[int]]] = {}
        self._overflow_extent = volume.allocate_blocks(
            mapper.disk_index, max_overflow_pages
        )
        self._next_overflow_page = 0
        # overflow-page LBNs written to since the last drain (ingest
        # flushes read this to know which chain pages need disk writes)
        self._touched_pages: set[int] = set()

    # ------------------------------------------------------------------
    # addressing helpers
    # ------------------------------------------------------------------

    def _flat(self, coords) -> np.ndarray:
        arr = np.asarray(coords, dtype=np.int64)
        if arr.ndim == 1:
            arr = arr[np.newaxis, :]
        strides = [1]
        for s in self.mapper.dims[:-1]:
            strides.append(strides[-1] * s)
        return arr @ np.asarray(strides, dtype=np.int64)

    def _cells(self, coords) -> np.ndarray:
        """Flat indices of caller coordinates, checked by the mapper
        (integer dtype, rank, bounds; :class:`QueryError` otherwise)."""
        return self._flat(self.mapper._check_coords(coords))

    def _cell(self, cell_coord) -> int:
        """One caller coordinate's flat index; each entry must be an
        integer (numpy would read ``(True, 0, 0)`` as row 1)."""
        return int(self._cells(_check_ints("cell_coord", cell_coord))[0])

    # ------------------------------------------------------------------
    # loading and updates
    # ------------------------------------------------------------------

    def bulk_load(self, coords, counts=None) -> int:
        """Initial load honouring the fill factor.

        ``coords`` are cell coordinates (repeats allowed); ``counts``
        optionally gives points per row.  Returns the number of points
        that exceeded the fill-factor budget and went to overflow pages.
        Bad coordinates raise :class:`QueryError` and bad counts
        :class:`DatasetError`, before anything is stored.
        """
        flat = self._cells(coords)
        if counts is None:
            counts = np.ones(flat.shape, dtype=np.int64)
        else:
            counts = np.asarray(counts)
            if counts.dtype.kind not in "iu" or counts.shape != flat.shape \
                    or (counts.size and counts.min() < 0):
                raise DatasetError(
                    f"counts must hold one non-negative integer per "
                    f"coordinate row ({flat.size} rows)"
                )
            counts = counts.astype(np.int64, copy=False)
        budget = int(self.points_per_cell * self.fill_factor)
        budget = np.maximum(max(budget, 1) - self._occupancy, 0)
        overflowed = 0
        totals = np.bincount(
            flat, weights=counts, minlength=self.mapper.n_cells
        ).astype(np.int64)
        loaded = np.minimum(totals, budget)
        self._occupancy += loaded
        self._loaded |= totals > 0
        for cell in np.flatnonzero(totals > budget):
            extra = int(totals[cell] - budget[cell])
            overflowed += extra
            self._spill(int(cell), extra)
        return overflowed

    def insert(self, cell_coord, n: int = 1) -> str:
        """Insert ``n`` points into a cell.

        Returns ``"cell"`` when they fit in the destination cell and
        ``"overflow"`` when an overflow page had to absorb them (§4.6:
        "If there is free space in the destination cell, new points will
        be stored there.  Otherwise, an overflow page will be created").
        A bad coordinate raises :class:`QueryError` and an ``n`` below 1
        :class:`DatasetError`, before anything is stored.
        """
        cell = self._cell(cell_coord)
        n = _check_count("n", n, DatasetError)
        free = self.points_per_cell - int(self._occupancy[cell])
        self._loaded[cell] = True
        if n <= free:
            self._occupancy[cell] += n
            return "cell"
        if free > 0:
            self._occupancy[cell] += free
            n -= free
        self._spill(cell, n)
        return "overflow"

    def delete(self, cell_coord, n: int = 1) -> None:
        """Remove points, draining overflow chains first (inputs are
        checked as in :meth:`insert`; ``n = 0`` is a no-op)."""
        cell = self._cell(cell_coord)
        # deleting nothing is a no-op
        n = _check_count("n", n, DatasetError, low=0)
        chain = self._overflow.get(cell, [])
        while n > 0 and chain:
            page = chain[-1]
            take = min(n, page[1])
            page[1] -= take
            n -= take
            if page[1] == 0:
                chain.pop()
        if not chain and cell in self._overflow:
            del self._overflow[cell]
        take = min(n, int(self._occupancy[cell]))
        self._occupancy[cell] -= take

    def bulk_insert(self, coords, counts=None) -> int:
        """Vectorised :meth:`insert`: absorb into free cell space at full
        capacity (the fill-factor budget only applies to the initial
        load), spill the rest.  Returns the number of overflowed points.
        """
        flat = self._flat(coords)
        if counts is None:
            counts = np.ones(flat.shape, dtype=np.int64)
        counts = np.asarray(counts, dtype=np.int64)
        totals = np.bincount(
            flat, weights=counts, minlength=self.mapper.n_cells
        ).astype(np.int64)
        free = np.maximum(self.points_per_cell - self._occupancy, 0)
        absorbed = np.minimum(totals, free)
        self._occupancy += absorbed
        self._loaded |= totals > 0
        overflowed = 0
        for cell in np.flatnonzero(totals > absorbed):
            extra = int(totals[cell] - absorbed[cell])
            overflowed += extra
            self._spill(int(cell), extra)
        return overflowed

    def _spill(self, cell: int, n: int) -> None:
        pages = self._overflow.setdefault(cell, [])
        while n > 0:
            if pages and pages[-1][1] < self.points_per_cell:
                take = min(n, self.points_per_cell - pages[-1][1])
                pages[-1][1] += take
                n -= take
                self._touched_pages.add(pages[-1][0])
                continue
            if self._next_overflow_page >= self._overflow_extent.nblocks:
                raise MappingError("overflow extent exhausted")
            lbn = self._overflow_extent.start + self._next_overflow_page
            self._next_overflow_page += 1
            pages.append([lbn, 0])

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------

    def read_plan(self, coords) -> RequestPlan:
        """Plan reading the given cells *including* their overflow pages."""
        lbns = [self.mapper.lbns(coords)]  # validates coords first
        flat = self._flat(coords)
        extra = []
        for cell in flat.tolist():
            for page_lbn, _count in self._overflow.get(int(cell), []):
                extra.append(page_lbn)
        if extra:
            lbns.append(np.asarray(extra, dtype=np.int64))
        merged = np.unique(np.concatenate(lbns))
        starts, lengths = coalesce_ranks(merged)
        return RequestPlan(starts, lengths, policy="sorted", merge_gap=0)

    # ------------------------------------------------------------------
    # write bookkeeping (ingest flushes)
    # ------------------------------------------------------------------

    @property
    def overflow_extent(self):
        """The overflow pages' extent (ingest maps its page indices onto
        per-replica twin extents)."""
        return self._overflow_extent

    def drain_touched_pages(self) -> np.ndarray:
        """Sorted LBNs of overflow pages dirtied since the last drain,
        clearing the dirty set."""
        pages = np.array(sorted(self._touched_pages), dtype=np.int64)
        self._touched_pages.clear()
        return pages

    def chained_cells(self) -> np.ndarray:
        """Sorted flat indices of cells with live overflow chains."""
        return np.array(sorted(self._overflow), dtype=np.int64)

    def overflow_page_lbns(self) -> np.ndarray:
        """Sorted LBNs of every live overflow page."""
        lbns = [p[0] for chain in self._overflow.values() for p in chain]
        return np.array(sorted(lbns), dtype=np.int64)

    # ------------------------------------------------------------------
    # reclamation
    # ------------------------------------------------------------------

    @property
    def underflow_cells(self) -> np.ndarray:
        """Flat indices of loaded cells below the reclaim threshold."""
        floor = self.points_per_cell * self.reclaim_threshold
        return np.flatnonzero(self._loaded & (self._occupancy < floor))

    @property
    def needs_reorganization(self) -> bool:
        return self.underflow_cells.size > 0

    def required_capacity(self) -> int:
        """Smallest per-cell capacity that would fold every live chain
        back into its cell (the §4.6 re-provisioning target: size cells
        to the density the stream actually delivered)."""
        need = self.points_per_cell
        for cell, chain in self._overflow.items():
            need = max(
                need,
                int(self._occupancy[cell]) + sum(p[1] for p in chain),
            )
        return need

    def reorganize(self) -> int:
        """Fold overflow chains back into cells where they now fit and
        reset the underflow bookkeeping.  Returns pages freed.  This
        stands in for the paper's "dataset reorganization, an expensive
        operation for any mapping technique"."""
        freed = 0
        for cell in list(self._overflow):
            chain = self._overflow[cell]
            while chain:
                free = self.points_per_cell - int(self._occupancy[cell])
                if free <= 0:
                    break
                page = chain[-1]
                take = min(free, page[1])
                self._occupancy[cell] += take
                page[1] -= take
                if page[1] == 0:
                    chain.pop()
                    freed += 1
                    self._touched_pages.discard(page[0])
                else:
                    break
            if not chain:
                del self._overflow[cell]
        self._loaded &= self._occupancy > 0
        return freed

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------

    def stats(self) -> StoreStats:
        pages = sum(len(c) for c in self._overflow.values())
        opoints = sum(p[1] for c in self._overflow.values() for p in c)
        loaded = self._occupancy[self._loaded]
        return StoreStats(
            n_cells=self.mapper.n_cells,
            n_points=int(self._occupancy.sum()) + opoints,
            capacity_per_cell=self.points_per_cell,
            fill_factor=self.fill_factor,
            overflow_pages=pages,
            overflow_points=opoints,
            underflow_cells=int(self.underflow_cells.size),
            mean_fill=(
                float(loaded.mean()) / self.points_per_cell
                if loaded.size
                else 0.0
            ),
        )


SHAPE = (5, 4, 3)
LAYOUTS = ("naive", "zorder", "multimap")


def new_chains(store: CellStore) -> dict:
    """The real store's chains as the reference holds them: cell ->
    ``[[page_lbn, count], ...]``, every page full but the last."""
    ppc = store.points_per_cell
    used = store._page_cell[:store._next_overflow_page]
    chains = {}
    for page in np.flatnonzero(used >= 0).tolist():
        chains.setdefault(int(used[page]), []).append(
            store.overflow_extent.start + page
        )
    out = {}
    for cell, lbns in chains.items():
        points = int(store._chain_points[cell])
        counts = [ppc] * (len(lbns) - 1) + [points - ppc * (len(lbns) - 1)]
        out[cell] = [[lbn, c] for lbn, c in zip(lbns, counts)]
        assert store._last_page[cell] == lbns[-1] - store.overflow_extent.start
    assert set(np.flatnonzero(store._chain_points).tolist()) == set(out)
    assert set(np.flatnonzero(store._last_page >= 0).tolist()) == set(out)
    return out


def assert_plans_equal(got: RequestPlan, want: RequestPlan) -> None:
    assert got.starts.dtype == want.starts.dtype == np.int64
    assert np.array_equal(got.starts, want.starts)
    assert np.array_equal(got.lengths, want.lengths)
    assert (got.policy, got.merge_gap) == (want.policy, want.merge_gap)


def assert_arrays_equal(got, want) -> None:
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


cells = st.tuples(*(st.integers(0, s - 1) for s in SHAPE))
#: rows repeat cells often, so per-cell totals above one are exercised
rows = st.lists(cells, min_size=1, max_size=6).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=12)
)


class StoreOracle(RuleBasedStateMachine):
    """The array-backed store and the reference, step for step."""

    @initialize(
        layout=st.sampled_from(LAYOUTS),
        ppc=st.integers(1, 4),
        fill_factor=st.sampled_from((0.2, 0.5, 0.75, 1.0)),
        reclaim=st.sampled_from((0.0, 0.25, 0.5, 0.9)),
        pages=st.integers(1, 24),
    )
    def build(self, layout, ppc, fill_factor, reclaim, pages):
        self.opts = dict(points_per_cell=ppc, fill_factor=fill_factor,
                         reclaim_threshold=reclaim,
                         max_overflow_pages=pages)
        self.layout = layout
        self.fresh()

    def fresh(self) -> None:
        def make(cls):
            vol = LogicalVolume([get_drive("minidrive").model], depth=8)
            return cls(build_mapper(self.layout, SHAPE, vol), vol,
                       **self.opts)

        self.new = make(CellStore)
        self.ref = make(ReferenceCellStore)

    def both(self, call):
        """Run ``call`` on both stores; equal results or the same error
        (an exhausted extent rebuilds both, see the module docstring)."""
        outcome = []
        for store in (self.new, self.ref):
            try:
                outcome.append(("ok", call(store)))
            except (MappingError, DatasetError) as err:
                outcome.append((type(err), None))
        assert outcome[0][0] == outcome[1][0]
        if outcome[0][0] is MappingError:
            self.fresh()
        return outcome[0][1], outcome[1][1]

    @rule(coords=rows, data=st.data())
    def bulk_load(self, coords, data):
        counts = np.array(
            data.draw(st.lists(st.integers(0, 9), min_size=len(coords),
                               max_size=len(coords))), dtype=np.int64)
        coords = np.array(coords, dtype=np.int64)
        got, want = self.both(lambda s: s.bulk_load(coords, counts))
        assert got == want

    @rule(coords=rows, data=st.data())
    def bulk_insert(self, coords, data):
        counts = np.array(
            data.draw(st.lists(st.integers(0, 9), min_size=len(coords),
                               max_size=len(coords))), dtype=np.int64)
        coords = np.array(coords, dtype=np.int64)
        got, want = self.both(lambda s: s.bulk_insert(coords, counts))
        assert got == want

    @rule(cell=cells, n=st.integers(1, 12))
    def insert(self, cell, n):
        got, want = self.both(lambda s: s.insert(cell, n))
        assert got == want

    @rule(cell=cells, n=st.integers(0, 12))
    def delete(self, cell, n):
        self.both(lambda s: s.delete(cell, n))

    @rule()
    def reorganize(self):
        got, want = self.both(lambda s: s.reorganize())
        assert got == want

    @rule()
    def reorganize_grown(self):
        def grow(store):
            store.points_per_cell = store.required_capacity()
            return store.reorganize()

        got, want = self.both(grow)
        assert got == want

    @rule(coords=rows)
    def read_plan(self, coords):
        coords = np.array(coords, dtype=np.int64)
        assert_plans_equal(self.new.read_plan(coords),
                           self.ref.read_plan(coords))

    @rule()
    def drain_touched_pages(self):
        assert_arrays_equal(self.new.drain_touched_pages(),
                            self.ref.drain_touched_pages())

    @invariant()
    def same_state(self):
        if not hasattr(self, "new"):
            return
        new, ref = self.new, self.ref
        assert new.points_per_cell == ref.points_per_cell
        assert np.array_equal(new._occupancy, ref._occupancy)
        assert np.array_equal(new._loaded, ref._loaded)
        assert new._next_overflow_page == ref._next_overflow_page
        assert new_chains(new) == ref._overflow
        touched = new.overflow_extent.start + np.flatnonzero(new._touched)
        assert sorted(touched.tolist()) == sorted(ref._touched_pages)
        assert_arrays_equal(new.chained_cells(), ref.chained_cells())
        assert_arrays_equal(new.overflow_page_lbns(),
                            ref.overflow_page_lbns())
        assert_arrays_equal(new.underflow_cells, ref.underflow_cells)
        assert new.needs_reorganization == ref.needs_reorganization
        assert new.required_capacity() == ref.required_capacity()
        assert new.stats() == ref.stats()


StoreOracle.TestCase.settings = settings(
    max_examples=150, stateful_step_count=30, deadline=None
)
TestStoreOracle = StoreOracle.TestCase
