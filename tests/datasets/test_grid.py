"""Tests for grid datasets, chunking and the mapper factory."""

import numpy as np
import pytest

from repro.datasets import GridDataset, paper_synthetic_3d
from repro.errors import DatasetError


class TestGridDataset:
    def test_paper_dataset_dims(self):
        ds = paper_synthetic_3d()
        assert ds.dims == (1024, 1024, 1024)

    def test_n_cells(self):
        assert GridDataset((4, 5, 6)).n_cells == 120

    def test_rejects_bad_dims(self):
        with pytest.raises(DatasetError):
            GridDataset((0, 4))


class TestChunking:
    def test_paper_chunking_shape(self):
        """§5.3: 1024³ into chunks of at most 259³."""
        chunks = paper_synthetic_3d().chunks((259, 259, 259), n_disks=2)
        assert len(chunks) == 4 ** 3
        assert all(
            all(w <= 259 for w in c.shape) for c in chunks
        )

    def test_chunks_tile_dataset(self):
        ds = GridDataset((10, 7, 5))
        chunks = ds.chunks((4, 4, 4))
        total = sum(c.n_cells for c in chunks)
        assert total == ds.n_cells

    def test_edge_chunks_are_clipped(self):
        ds = GridDataset((10, 7, 5))
        chunks = ds.chunks((4, 4, 4))
        shapes = {c.shape for c in chunks}
        assert (2, 3, 1) in shapes  # the far corner

    def test_disk_assignment_round_robin(self):
        ds = GridDataset((8, 8, 8))
        chunks = ds.chunks((4, 4, 4), n_disks=2)
        assert [c.disk for c in chunks] == [0, 1] * 4

    def test_disk_modulo_strategy(self):
        ds = GridDataset((8, 8, 8))
        chunks = ds.chunks((4, 4, 4), n_disks=2, strategy="disk_modulo")
        assert {c.disk for c in chunks} == {0, 1}

    def test_rejects_rank_mismatch(self):
        with pytest.raises(DatasetError):
            GridDataset((8, 8)).chunks((4, 4, 4))

    def test_rejects_zero_chunk(self):
        with pytest.raises(DatasetError):
            GridDataset((8, 8)).chunks((0, 4))


class TestLayoutPlacement:
    def test_mappers_cover_same_cells(self, small_model):
        """Every registered layout places the grid bijectively."""
        from repro.api import Dataset
        from repro.api.registry import layout_names
        from repro.mappings.base import enumerate_box

        dims = (20, 10, 8)
        coords = enumerate_box((0, 0, 0), dims)
        for name in sorted(layout_names()):
            ds = Dataset.create(dims, name, small_model, depth=16)
            lbns = ds.mapper.lbns(coords)
            assert np.unique(lbns).size == coords.shape[0], name
