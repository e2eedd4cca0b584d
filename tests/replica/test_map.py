"""ReplicaMap construction, placement, and invariant enforcement."""

import numpy as np
import pytest

from repro.errors import ReplicaError
from repro.replica import ReplicaMap
from repro.shard import ShardMap


def rmap(dims=(12, 6, 6), n_disks=3, k=2, **build_opts):
    return ReplicaMap.build(ShardMap.build(dims, n_disks, **build_opts), k)


class TestBuild:
    def test_rotated_offsets_primary(self):
        rm = rmap(n_disks=3, k=3)
        for i in range(rm.n_chunks):
            primary = rm.shard_map.chunks[i].disk
            assert rm.copies_of(i) == tuple(
                (primary + r) % 3 for r in range(3)
            )

    def test_copy_zero_is_primary_everywhere(self):
        rm = rmap(k=2)
        primaries = [c.disk for c in rm.shard_map.chunks]
        np.testing.assert_array_equal(rm.disks[:, 0], primaries)

    def test_k_must_fit_disk_count(self):
        with pytest.raises(ReplicaError, match="k=4"):
            rmap(n_disks=3, k=4)
        with pytest.raises(ReplicaError):
            rmap(k=0)

    def test_k1_single_column(self):
        rm = rmap(k=1)
        assert rm.disks.shape == (rm.n_chunks, 1)
        assert rm.copy_counts() == rm.shard_map.chunk_counts()


class TestInvariants:
    def test_rejects_moved_primary(self):
        sm = ShardMap.build((12, 6, 6), 3)
        disks = np.stack(
            [(np.asarray([c.disk for c in sm.chunks]) + 1) % 3,
             np.asarray([c.disk for c in sm.chunks])], axis=1,
        )
        with pytest.raises(ReplicaError, match="primary"):
            ReplicaMap(sm, 2, disks)

    def test_rejects_duplicate_disks(self):
        sm = ShardMap.build((12, 6, 6), 3)
        primaries = np.asarray([c.disk for c in sm.chunks])
        disks = np.stack([primaries, primaries], axis=1)
        with pytest.raises(ReplicaError, match="non-distinct"):
            ReplicaMap(sm, 2, disks)

    def test_rejects_out_of_range(self):
        sm = ShardMap.build((12, 6, 6), 3)
        primaries = np.asarray([c.disk for c in sm.chunks])
        disks = np.stack([primaries, primaries + 3], axis=1)
        with pytest.raises(ReplicaError, match="out of range"):
            ReplicaMap(sm, 2, disks)

    def test_rejects_shape_mismatch(self):
        sm = ShardMap.build((12, 6, 6), 3)
        with pytest.raises(ReplicaError, match="shape"):
            ReplicaMap(sm, 2, np.zeros((1, 2), dtype=np.int64))


class TestLookups:
    def test_copies_on_disk_partitions_everything(self):
        rm = rmap(n_disks=3, k=2)
        seen = set()
        for d in range(3):
            for chunk, copy in rm.copies_on_disk(d):
                assert rm.disks[chunk, copy] == d
                seen.add((chunk, copy))
        assert len(seen) == rm.n_chunks * 2
        assert sum(rm.copy_counts()) == rm.n_chunks * 2

    def test_live_copies_and_readable_fraction(self):
        rm = rmap(n_disks=3, k=2)
        assert rm.readable_fraction() == 1.0
        for d in range(3):
            assert rm.readable_fraction({d}) == 1.0
            for i in range(rm.n_chunks):
                live = rm.live_copies(i, {d})
                assert live
                assert all(rm.disks[i, r] != d for r in live)
        # k=1: killing a disk loses its chunks
        rm1 = rmap(n_disks=3, k=1)
        counts = rm1.shard_map.chunk_counts()
        for d in range(3):
            expected = 1.0 - counts[d] / rm1.n_chunks
            assert rm1.readable_fraction({d}) == pytest.approx(expected)

    def test_describe(self):
        rm = rmap(n_disks=3, k=2)
        d = rm.describe()
        assert d["k"] == 2
        assert d["placement"] == "rotated"
        assert d["copy_counts"] == rm.copy_counts()
        assert sum(d["primary_counts"]) == rm.n_chunks

