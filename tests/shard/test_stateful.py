"""Operation sequences over the one storage path (hypothesis stateful).

A small 3-disk × 2-copy ``minidrive`` dataset runs random interleavings
of batch queries, disk kills and revives, a kill landing between a
query's preparation and its service, cache attach/detach, EXPLAIN, and
``with_shards`` / ``with_replication`` reconfiguration.  After every
step the invariants of the storage manager must hold:

* a query returns exactly its cells and at least that many blocks, and
  every sub-plan reads a copy on a live disk;
* a chunk with no live copy raises :class:`ReplicaError` — nothing
  else, and nothing silently;
* the buffer pool holds no frame of a failed disk;
* EXPLAIN predicts exactly the prepared block total and leaves drive
  clocks, cache stats and replica counters untouched;
* ``primary_reads + replica_reads`` equals the per-disk read total.
"""

import copy

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.api import Dataset
from repro.errors import ReplicaError
from repro.explain.plan import prepare_readonly
from repro.query.workload import BeamQuery, RangeQuery

SHAPE = (24, 8, 8)
LAYOUTS = ("naive", "zorder", "hilbert", "multimap")


@st.composite
def queries(draw):
    if draw(st.booleans()):
        axis = draw(st.integers(0, len(SHAPE) - 1))
        fixed = tuple(draw(st.integers(0, s - 1)) for s in SHAPE)
        return BeamQuery(axis, fixed)
    lo, hi = [], []
    for s in SHAPE:
        a = draw(st.integers(0, s - 1))
        lo.append(a)
        hi.append(draw(st.integers(a + 1, min(s, a + 6))))
    return RangeQuery(tuple(lo), tuple(hi))


class StoragePath(RuleBasedStateMachine):
    @initialize(layout=st.sampled_from(LAYOUTS))
    def build(self, layout):
        self.ds = Dataset.create(
            SHAPE, layout=layout, drive="minidrive", seed=11,
        ).with_shards(3).with_replication(2)
        self.rng = np.random.default_rng(0)

    @property
    def storage(self):
        return self.ds.storage

    def unreadable(self, query) -> bool:
        """Whether some chunk the query touches has no live copy."""
        st_ = self.storage
        lo, hi, _ = st_._query_box(query)
        return any(
            not st_.replica_map.live_copies(chunk.index, st_.failed)
            for chunk, _, _ in st_.shard_map.intersections(lo, hi)
        )

    def check_result(self, query, result) -> None:
        want = query.n_cells(SHAPE) if isinstance(query, BeamQuery) \
            else query.n_cells()
        assert result.n_cells == want
        assert result.n_blocks >= want

    # -- queries -------------------------------------------------------

    @rule(query=queries())
    def run(self, query):
        if self.unreadable(query):
            try:
                self.ds.run([query], rng=self.rng)
            except ReplicaError:
                return
            raise AssertionError(f"{query} read a chunk with no live copy")
        prepared = self.storage.prepare(query)
        assert all(sub.disk_index not in self.storage.failed
                   for sub in prepared.subs)
        self.check_result(
            query, self.storage.execute_prepared(prepared, rng=self.rng)
        )

    @rule(query=queries(), data=st.data())
    def kill_in_flight(self, query, data):
        """A disk dies after the query's preparation, before its
        sub-plans are serviced and admitted."""
        if self.unreadable(query):
            return
        prepared = self.storage.prepare(query)
        self.storage.fail_disk(data.draw(st.sampled_from(prepared.disks)))
        self.check_result(
            query, self.storage.execute_prepared(prepared, rng=self.rng)
        )

    @rule(query=queries())
    def explain(self, query):
        if self.unreadable(query):
            try:
                self.ds.explain(query)
            except ReplicaError:
                return
            raise AssertionError(f"EXPLAIN of {query} found no dead chunk")
        st_ = self.storage
        drives = [(d.now_ms, d.current_track)
                  for d in map(st_.volume.drive, range(st_.volume.n_disks))]
        cache = None if st_.cache is None else st_.cache.stats.to_dict()
        replicas = copy.deepcopy(vars(st_.replica_stats))
        out = self.ds.explain(query)
        per_disk = out["predicted"]["per_disk"].values()
        assert sum(row["blocks"] for row in per_disk) \
            == prepare_readonly(self.ds, query).n_blocks \
            == out["plan"]["blocks"]
        assert drives == [
            (d.now_ms, d.current_track)
            for d in map(st_.volume.drive, range(st_.volume.n_disks))
        ]
        assert cache == (None if st_.cache is None
                         else st_.cache.stats.to_dict())
        assert vars(st_.replica_stats) == replicas

    # -- failures, cache, reconfiguration -------------------------------

    @rule(data=st.data())
    def fail_disk(self, data):
        n = self.storage.volume.n_disks
        self.storage.fail_disk(data.draw(st.integers(0, n - 1)))

    @rule(data=st.data())
    def revive_disk(self, data):
        if self.storage.failed:
            self.storage.revive_disk(
                data.draw(st.sampled_from(sorted(self.storage.failed)))
            )

    @rule(capacity=st.sampled_from([0, 64, 1024]))
    def with_cache(self, capacity):
        self.ds.with_cache(capacity, prefetch="track")

    @rule(n=st.integers(2, 4), data=st.data())
    def reshard(self, n, data):
        if self.ds.replication_k > n:
            return
        self.ds.with_shards(
            n, data.draw(st.sampled_from(["disk_modulo", "round_robin"]))
        )

    @rule(k=st.integers(1, 2))
    def replicate(self, k):
        self.ds.with_replication(k)

    # -- invariants ------------------------------------------------------

    @invariant()
    def no_frames_of_failed_disks(self):
        pool = self.storage.cache
        if pool is not None:
            for disk in self.storage.failed:
                assert not pool._resident.get(disk)

    @invariant()
    def read_totals_agree(self):
        stats = self.storage.replica_stats
        assert stats.primary_reads + stats.replica_reads == sum(stats.reads)


StoragePath.TestCase.settings = settings(
    max_examples=30, stateful_step_count=12, deadline=None,
)
TestStoragePath = StoragePath.TestCase
