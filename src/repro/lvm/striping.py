"""Declustering strategies: how chunks/basic cubes spread across disks.

The paper (§4.4) notes that MultiMap composes with existing declustering
schemes — the novelty is within-disk layout, so the volume manager only
needs simple placement policies.  Strategies resolve by name through the
:data:`STRATEGIES` registry (the same :class:`~repro.registry.Registry`
kind the layout/drive/cache registries use; extend with
:func:`register_strategy`).  Builtins:

* ``round_robin`` — cycle chunks through disks in enumeration order (what
  the paper's evaluation uses for its 259³ chunks);
* ``disk_modulo`` — Du & Sobolewski-style modulo of the chunk-grid
  coordinate sum, which spreads every axis-aligned beam of the chunk grid
  across disks evenly;
* ``cube_aligned`` — the locality-aware strategy of the shard layer:
  the same disk-modulo assignment, but flagged so that
  :meth:`repro.shard.ShardMap.build` rounds chunk boundaries up to
  multiples of the basic-cube sides the *unsharded* MultiMap placement
  would use — sharding then never cuts through what would have been a
  basic cube.  (Each chunk's mapper still plans its own cubes for the
  chunk's dimensions, which are disk-local by construction.)

A strategy function takes ``(grid_shape, n_disks)`` and returns one disk
index per chunk as a flat array whose *first* grid coordinate varies
fastest (``index = c0 + c1*g0 + c2*g0*g1 + ...`` — the enumeration order
of :meth:`repro.datasets.grid.GridDataset.chunks`, which is the reverse
of numpy's C/"row-major" ravel).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.errors import AllocationError, RegistryError
from repro.registry import Registry, first_doc_line

__all__ = [
    "STRATEGIES",
    "StrategyEntry",
    "assign_chunks",
    "disk_modulo",
    "register_strategy",
    "round_robin",
    "strategy_names",
]


def round_robin(n_items: int, n_disks: int) -> np.ndarray:
    """Disk index for each item, cycling through disks in order."""
    if n_disks < 1:
        raise AllocationError("need at least one disk")
    return np.arange(n_items, dtype=np.int64) % n_disks


def disk_modulo(grid_shape: tuple[int, ...], n_disks: int) -> np.ndarray:
    """Disk-modulo declustering for an N-D grid of chunks.

    Chunk at coordinate (c0, .., cN-1) goes to disk (c0 + .. + cN-1) mod
    n_disks, which guarantees that any beam of chunks along any axis
    touches disks evenly.

    Returns a flat array with c0 varying fastest (the chunk enumeration
    order of the datasets layer).
    """
    if n_disks < 1:
        raise AllocationError("need at least one disk")
    grids = np.indices(tuple(reversed(grid_shape)))
    total = grids.sum(axis=0) % n_disks
    # np.indices is row-major on the reversed shape; flatten so that c0
    # varies fastest, matching the chunk enumeration used by datasets.
    return total.ravel().astype(np.int64)


# ----------------------------------------------------------------------
# the strategy registry
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class StrategyEntry:
    """A registered declustering strategy.

    ``needs_grid`` marks strategies whose assignment depends on the chunk
    grid's shape (not just the chunk count); ``align_cubes`` asks the
    shard layer to round chunk boundaries to basic-cube multiples before
    assigning (see :meth:`repro.shard.ShardMap.build`).
    """

    name: str
    fn: Callable[[tuple[int, ...], int], np.ndarray]
    needs_grid: bool = True
    align_cubes: bool = False
    description: str = ""


#: strategy-name -> :class:`StrategyEntry`; populated by this module's
#: own registrations (importing :mod:`repro.lvm.striping` is enough)
STRATEGIES = Registry("strategy")


def register_strategy(name: str, *, needs_grid: bool = True,
                      align_cubes: bool = False, description: str = ""):
    """Function decorator adding a declustering strategy to
    :data:`STRATEGIES`."""

    def deco(fn):
        desc = description or first_doc_line(fn)
        STRATEGIES.add(
            name, StrategyEntry(name, fn, needs_grid, align_cubes, desc)
        )
        return fn

    return deco


def strategy_names() -> tuple[str, ...]:
    return STRATEGIES.names()


@register_strategy("round_robin", needs_grid=False)
def _round_robin_grid(grid_shape: tuple[int, ...], n_disks: int) -> np.ndarray:
    """Cycle chunks through disks in enumeration order."""
    n_items = int(np.prod(grid_shape, dtype=np.int64))
    return round_robin(n_items, n_disks)


@register_strategy("disk_modulo")
def _disk_modulo_grid(grid_shape: tuple[int, ...], n_disks: int) -> np.ndarray:
    """Coordinate-sum modulo: every axis-aligned beam spreads evenly."""
    return disk_modulo(grid_shape, n_disks)


@register_strategy("cube_aligned", align_cubes=True)
def _cube_aligned_grid(grid_shape: tuple[int, ...], n_disks: int) -> np.ndarray:
    """Disk-modulo over chunks aligned to the unsharded layout's cubes."""
    return disk_modulo(grid_shape, n_disks)


def assign_chunks(
    n_chunks: int,
    n_disks: int,
    strategy: str = "round_robin",
    grid_shape: tuple[int, ...] | None = None,
) -> np.ndarray:
    """Dispatch to a registered declustering strategy by name."""
    try:
        entry = STRATEGIES.get(strategy)
    except RegistryError as exc:
        raise AllocationError(str(exc)) from None
    if grid_shape is None:
        if entry.needs_grid:
            raise AllocationError(f"{entry.name} requires grid_shape")
        grid_shape = (int(n_chunks),)
    out = entry.fn(tuple(int(g) for g in grid_shape), int(n_disks))
    if out.size != n_chunks:
        raise AllocationError(
            f"grid {tuple(grid_shape)} has {out.size} chunks, "
            f"expected {n_chunks}"
        )
    return out
