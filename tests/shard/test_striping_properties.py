"""Hypothesis property suites for the declustering invariants.

The contracts the shard layer leans on:

* every strategy's assignment is *total* (one disk per chunk) and
  *in-range* (``0 <= disk < n_disks``);
* round-robin is balanced within one chunk per disk for any chunk
  count; disk-modulo is balanced within one chunk per disk whenever
  some grid axis is a multiple of the disk count (and exactly balanced
  then — the sum over that axis cycles through every residue);
* every axis-aligned beam of a disk-modulo chunk grid touches the disks
  evenly (within one chunk, exactly evenly when the beam's axis length
  is a multiple of the disk count) — the property that makes cross-disk
  beams parallelise under the shard layer.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lvm.striping import (
    STRATEGIES,
    assign_chunks,
    disk_modulo,
    round_robin,
)

grids = st.lists(st.integers(1, 8), min_size=1, max_size=4).map(tuple)
disks = st.integers(1, 6)


@settings(max_examples=60, deadline=None)
@given(n_items=st.integers(1, 200), n_disks=disks)
def test_round_robin_total_in_range_balanced(n_items, n_disks):
    out = round_robin(n_items, n_disks)
    assert out.size == n_items
    assert out.min() >= 0 and out.max() < n_disks
    counts = np.bincount(out, minlength=n_disks)
    assert counts.max() - counts.min() <= 1


@settings(max_examples=60, deadline=None)
@given(grid=grids, n_disks=disks)
def test_disk_modulo_total_and_in_range(grid, n_disks):
    out = disk_modulo(grid, n_disks)
    assert out.size == int(np.prod(grid, dtype=np.int64))
    assert out.min() >= 0 and out.max() < n_disks


@settings(max_examples=60, deadline=None)
@given(grid=grids, n_disks=disks, axis_len=st.integers(1, 4))
def test_disk_modulo_balance_with_divisible_axis(grid, n_disks, axis_len):
    """With one axis a multiple of n_disks, the assignment is exactly
    balanced: summing along that axis hits every residue equally."""
    grid = grid + (axis_len * n_disks,)
    out = disk_modulo(grid, n_disks)
    counts = np.bincount(out, minlength=n_disks)
    assert counts.max() == counts.min()


def _beam_lines(flat: np.ndarray, grid: tuple, axis: int) -> np.ndarray:
    """All beams along ``axis`` as rows (flat is c0-fastest)."""
    arr = flat.reshape(tuple(reversed(grid)))  # index [c_{n-1}, .., c0]
    arr = np.moveaxis(arr, len(grid) - 1 - axis, -1)
    return arr.reshape(-1, grid[axis])


@settings(max_examples=60, deadline=None)
@given(grid=grids, n_disks=disks)
def test_disk_modulo_beams_touch_disks_evenly(grid, n_disks):
    """Every axis-aligned beam of the chunk grid spreads within one
    chunk per disk (the varying coordinate walks consecutive residues)."""
    flat = disk_modulo(grid, n_disks)
    for axis in range(len(grid)):
        for line in _beam_lines(flat, grid, axis):
            counts = np.bincount(line, minlength=n_disks)
            assert counts.max() - counts.min() <= 1
            if grid[axis] % n_disks == 0:
                assert counts.max() == counts.min()


@settings(max_examples=40, deadline=None)
@given(grid=grids, n_disks=disks,
       name=st.sampled_from(["round_robin", "disk_modulo"]))
def test_registered_strategies_total_and_in_range(grid, n_disks, name):
    n_chunks = int(np.prod(grid, dtype=np.int64))
    out = assign_chunks(n_chunks, n_disks, name, grid_shape=grid)
    assert out.size == n_chunks
    assert out.min() >= 0 and out.max() < n_disks
    # the dispatch path and the registry entry agree
    entry = STRATEGIES.get(name)
    np.testing.assert_array_equal(out, entry.fn(grid, n_disks))
