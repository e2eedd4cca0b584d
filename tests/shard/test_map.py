"""ShardMap construction, chunk coverage, and grid wiring."""

import numpy as np
import pytest

from repro.datasets import GridDataset
from repro.errors import AllocationError, QueryError
from repro.lvm import LogicalVolume, STRATEGIES
from repro.shard import ShardMap, ShardedStorageManager
from repro.api.registry import LAYOUTS


class TestBuild:
    def test_default_last_axis_slabs(self):
        smap = ShardMap.build((24, 12, 12), 4)
        assert smap.grid == (1, 1, 4)
        assert smap.n_chunks == 4
        assert [c.shape for c in smap.chunks] == [(24, 12, 3)] * 4
        assert sorted(c.disk for c in smap.chunks) == [0, 1, 2, 3]

    def test_one_shard_single_chunk(self):
        smap = ShardMap.build((24, 12, 12), 1)
        assert smap.n_chunks == 1
        assert smap.chunks[0].shape == (24, 12, 12)
        assert smap.chunks[0].disk == 0

    def test_explicit_chunk_shape(self):
        smap = ShardMap.build((24, 12, 12), 2, chunk_shape=(12, 6, 6))
        assert smap.grid == (2, 2, 2)
        assert smap.n_chunks == 8
        assert sum(c.n_cells for c in smap.chunks) == 24 * 12 * 12

    def test_chunks_cover_every_cell_exactly_once(self):
        dims = (10, 7, 5)
        smap = ShardMap.build(dims, 3, chunk_shape=(4, 3, 2))
        seen = np.zeros(dims, dtype=np.int64)
        for c in smap.chunks:
            sl = tuple(
                slice(o, o + s) for o, s in zip(c.origin, c.shape)
            )
            seen[sl] += 1
        assert (seen == 1).all()

    def test_short_axis_uses_fewer_disks(self):
        smap = ShardMap.build((8, 4, 2), 4)
        assert smap.n_chunks == 2
        assert max(c.disk for c in smap.chunks) <= 3

    def test_rejects_zero_disks(self):
        with pytest.raises(AllocationError):
            ShardMap.build((8, 4, 4), 0)

    def test_unknown_strategy_raises(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            ShardMap.build((8, 4, 4), 2, strategy="nope")


class TestFromChunks:
    def test_grid_dataset_wiring(self):
        """The chunker's per-chunk disk assignment (historically dropped)
        is the shard map's placement."""
        ds = GridDataset((16, 8, 8))
        chunks = ds.chunks((8, 4, 4), n_disks=2, strategy="disk_modulo")
        smap = ShardMap.from_chunks((16, 8, 8), chunks, 2,
                                    strategy="disk_modulo")
        assert smap.grid == (2, 2, 2)
        assert [c.disk for c in smap.chunks] == \
            [c.disk for c in chunks]

    def test_grid_dataset_shard_map_method(self):
        smap = GridDataset((16, 8, 8)).shard_map((8, 8, 8), n_disks=2)
        assert smap.n_disks == 2
        assert smap.n_chunks == 2
        assert smap.strategy == "round_robin"

    def test_rejects_out_of_range_disk(self):
        ds = GridDataset((16, 8, 8))
        # 4 chunks assigned round-robin over 4 disks...
        chunks = ds.chunks((4, 8, 8), n_disks=4)
        assert max(c.disk for c in chunks) == 3
        # ...cannot be mounted on a 2-disk map
        with pytest.raises(AllocationError):
            ShardMap.from_chunks((16, 8, 8), chunks, 2)

    def test_rejects_partial_coverage(self):
        ds = GridDataset((16, 8, 8))
        chunks = ds.chunks((8, 8, 8), n_disks=2)[:1]
        with pytest.raises(AllocationError):
            ShardMap.from_chunks((16, 8, 8), chunks, 2)


class TestLookups:
    def test_chunk_counts_and_chunks_for_disk(self):
        smap = ShardMap.build((24, 12, 12), 3)
        counts = smap.chunk_counts()
        assert len(counts) == 3
        assert sum(counts) == smap.n_chunks
        for d in range(3):
            assert len(smap.chunks_for_disk(d)) == counts[d]

    def test_intersections_match_brute_force(self):
        dims = (10, 6, 8)
        smap = ShardMap.build(dims, 2, chunk_shape=(5, 3, 3))
        lo, hi = (2, 1, 3), (9, 6, 7)
        cells = 0
        for chunk, llo, lhi in smap.intersections(lo, hi):
            for d in range(3):
                assert 0 <= llo[d] < lhi[d] <= chunk.shape[d]
            cells += int(np.prod([b - a for a, b in zip(llo, lhi)]))
        expected = int(np.prod([b - a for a, b in zip(lo, hi)]))
        assert cells == expected

    @pytest.mark.parametrize("n_disks,chunk_shape", [(1, None),
                                                      (2, (5, 3, 3))])
    def test_intersections_reject_boxes_outside_the_dataset(
            self, n_disks, chunk_shape):
        """Split or not, an axis never clips a bad box silently."""
        smap = ShardMap.build((10, 6, 8), n_disks, chunk_shape=chunk_shape)
        for lo, hi in [((-1, 0, 0), (5, 6, 8)), ((0, 0, 0), (10, 7, 8)),
                       ((2, 3, 4), (2, 4, 5)), ((0, 0), (1, 1))]:
            with pytest.raises(QueryError):
                smap.intersections(lo, hi)

    def test_describe_is_json_friendly(self):
        import json

        smap = ShardMap.build((24, 12, 12), 2)
        out = smap.describe()
        json.dumps(out)
        assert out["n_shards"] == 2
        assert out["chunk_counts"] == [1, 1]


class TestVolumeConsistency:
    def test_manager_rejects_disk_count_mismatch(self, small_model):
        """n_disks is validated against the volume instead of silently
        ignored."""
        smap = ShardMap.build((8, 4, 4), 4)
        volume = LogicalVolume([small_model, small_model])
        with pytest.raises(AllocationError):
            ShardedStorageManager(
                volume, smap, LAYOUTS.get("naive")
            )

    def test_strategy_registry_lists_builtins(self):
        names = STRATEGIES.names()
        assert {"round_robin", "disk_modulo"} <= set(names)
        assert not STRATEGIES.get("round_robin").needs_grid
