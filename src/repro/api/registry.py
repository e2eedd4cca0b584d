"""String-keyed registries for layouts and drive models.

The façade (:mod:`repro.api.dataset`) resolves layout and drive names
through the registries below, and its storage manager places every
chunk copy through :func:`build_mapper`, so every consumer constructs
identical stacks.  Entries are contributed by the defining modules via
decorators::

    @register_layout("multimap", wiring="volume")
    class MultiMapMapper(Mapper): ...

    @register_drive("atlas10k3")
    def atlas_10k3() -> DiskModel: ...

``repro.mappings``, ``repro.core.multimap`` and ``repro.disk.models`` own
their registrations; the registries import those modules lazily on first
lookup so ``from repro.api import get_layout`` works without the caller
importing anything else.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

from repro.errors import RegistryError
from repro.registry import Registry, first_doc_line

__all__ = [
    "DRIVES",
    "LAYOUTS",
    "DriveEntry",
    "LayoutEntry",
    "Registry",
    "build_mapper",
    "drive_names",
    "get_drive",
    "get_layout",
    "layout_names",
    "register_drive",
    "register_layout",
]


@dataclass(frozen=True)
class LayoutEntry:
    """A registered data-placement algorithm.

    ``wiring`` names the construction convention: ``"extent"`` layouts take
    a pre-allocated LBN extent (the linearised mappings), ``"volume"``
    layouts allocate through the LVM interface themselves (MultiMap).
    """

    name: str
    cls: type
    wiring: str = "extent"
    description: str = ""


@dataclass(frozen=True)
class DriveEntry:
    """A registered disk-model factory."""

    name: str
    factory: Callable[[], object] = field(repr=False)
    description: str = ""

    @cached_property
    def model(self):
        """The drive's one model in this process, built by the factory
        on first use and shared by every dataset that names the drive
        (models are immutable), so its seek table is built once.
        Calling :attr:`factory` still builds a fresh model."""
        return self.factory()


_populated = False


def _ensure_populated() -> None:
    """Import the modules that own registrations, exactly once.

    Reentrant calls (lookups issued while the imports below are still
    running) see the flag already set and fall through; at that point the
    decorators of the module being imported have already executed.  A
    failed attempt (broken environment, Ctrl-C mid-import) resets the
    flag so the next lookup retries and surfaces the real error instead
    of a misleading "registered <kind>s: <none>"; modules that did
    complete re-register idempotently (see :meth:`Registry.add`).
    """
    global _populated
    if _populated:
        return
    _populated = True
    try:
        import repro.core.multimap  # noqa: F401  (registers "multimap")
        import repro.disk.models  # noqa: F401  (registers drive factories)
        import repro.mappings  # noqa: F401  (linearised layouts)
    except BaseException:
        _populated = False
        raise


#: layout-name -> :class:`LayoutEntry`
LAYOUTS = Registry("layout", populate=_ensure_populated)

#: drive-name -> :class:`DriveEntry`
DRIVES = Registry("drive", populate=_ensure_populated)


def _ensure_builtins_before(obj) -> None:
    """Populate the builtin entries before a *third-party* registration.

    A user decorator whose name collides with a builtin then fails at its
    own definition site with a clear duplicate error, instead of blowing
    up the deferred builtin import inside an unrelated first lookup and
    poisoning the registries.  Registrations coming from ``repro.*``
    itself skip this — they *are* the population, and importing siblings
    mid-import would create cycles.
    """
    if not getattr(obj, "__module__", "").startswith("repro."):
        _ensure_populated()


def register_layout(name: str, *, wiring: str = "extent",
                    description: str = ""):
    """Class decorator adding a mapper class to :data:`LAYOUTS`."""
    if wiring not in ("extent", "volume"):
        raise RegistryError(f"unknown wiring {wiring!r}")

    def deco(cls: type) -> type:
        _ensure_builtins_before(cls)
        desc = description or first_doc_line(cls)
        LAYOUTS.add(name, LayoutEntry(name, cls, wiring, desc))
        return cls

    return deco


def register_drive(name: str, *, description: str = ""):
    """Function decorator adding a disk-model factory to :data:`DRIVES`."""

    def deco(factory):
        _ensure_builtins_before(factory)
        desc = description or first_doc_line(factory)
        DRIVES.add(name, DriveEntry(name, factory, desc))
        return factory

    return deco


def get_layout(name: str) -> LayoutEntry:
    """Resolve a layout name (raises :class:`RegistryError` with the list
    of valid names on a miss)."""
    return LAYOUTS.get(name)


def get_drive(name: str) -> DriveEntry:
    """Resolve a drive name."""
    return DRIVES.get(name)


def layout_names() -> tuple[str, ...]:
    return LAYOUTS.names()


def drive_names() -> tuple[str, ...]:
    return DRIVES.names()


#: the mapper arguments :func:`build_mapper` passes itself; a layout's
#: options are its mapper class's other keywords
_WIRED_ARGS = frozenset({"extent", "volume", "disk", "cell_blocks"})


def build_mapper(layout, dims, volume, disk: int = 0, *,
                 cell_blocks: int = 1, **layout_opts):
    """Construct a registered layout's mapper on ``volume``.

    This is the single wiring point behind every
    :class:`repro.api.Dataset`: its storage manager builds each chunk
    copy here.  ``"extent"`` layouts get one ``allocate_blocks`` extent
    sized ``n_cells * cell_blocks``; ``"volume"`` layouts drive the LVM
    interface themselves.
    """
    import numpy as np

    entry = layout if isinstance(layout, LayoutEntry) else LAYOUTS.get(layout)
    dims = tuple(int(s) for s in dims)
    if entry.wiring == "volume":
        return entry.cls(
            dims, volume, disk, cell_blocks=cell_blocks, **layout_opts
        )
    n_blocks = int(np.prod(dims, dtype=np.int64)) * cell_blocks
    extent = volume.allocate_blocks(disk, n_blocks)
    return entry.cls(dims, extent, cell_blocks, **layout_opts)
