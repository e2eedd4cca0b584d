"""The generic string-keyed registry every subsystem's tables build on.

:class:`Registry` is a name -> entry map with duplicate protection,
helpful unknown-name errors, and an optional lazy-population hook.  It
lives at the package root so registries can exist at any layer without
inverting the layering: the façade's layout/drive tables
(:mod:`repro.api.registry`), the cache's policy/prefetcher tables
(:mod:`repro.cache`), and the LVM's declustering strategies
(:mod:`repro.lvm.striping`) all instantiate it.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Callable, Iterator

from repro.errors import RegistryError

__all__ = ["DocsView", "Registry", "first_doc_line"]


def first_doc_line(obj) -> str:
    """An object's docstring first line — the registries' default entry
    description (used by every ``register_*`` decorator and the CLI's
    ``--list-*`` flags)."""
    lines = (getattr(obj, "__doc__", "") or "").strip().splitlines()
    return lines[0] if lines else ""


class Registry:
    """A string-keyed table with duplicate protection and helpful errors.

    ``populate`` is an optional zero-argument hook invoked before every
    lookup; it imports the modules whose decorators contribute the
    builtin entries (and must be idempotent).  The layout/drive
    registries of :mod:`repro.api.registry` use it for lazy population.
    Other packages reuse the class without a hook (e.g. the cache-policy
    and declustering-strategy registries, whose builtins live in the
    same module as the registry, so importing one populates the other).
    """

    def __init__(self, kind: str, populate: Callable[[], None] | None = None):
        self.kind = kind
        self._entries: dict[str, object] = {}
        self._populate = populate

    def _ensure(self) -> None:
        if self._populate is not None:
            self._populate()

    def add(self, name: str, entry) -> None:
        if not name or not isinstance(name, str):
            raise RegistryError(f"{self.kind} name must be a non-empty string")
        if name in self._entries and not _same_registrant(
            self._entries[name], entry
        ):
            raise RegistryError(
                f"{self.kind} {name!r} is already registered"
            )
        # Same definition re-registering (its module re-executed, e.g. a
        # retried import after an interrupted first attempt) is a benign
        # overwrite, so registry population stays retryable.
        self._entries[name] = entry

    def get(self, name: str):
        """The entry registered as ``name``; anything else — an unknown
        name or a non-string — raises :class:`RegistryError`."""
        self._ensure()
        if isinstance(name, str) and name in self._entries:
            return self._entries[name]
        valid = ", ".join(repr(n) for n in sorted(self._entries))
        raise RegistryError(
            f"unknown {self.kind} {name!r}; registered {self.kind}s: "
            f"{valid or '<none>'}"
        )

    def names(self) -> tuple[str, ...]:
        self._ensure()
        return tuple(sorted(self._entries))

    def items(self):
        self._ensure()
        return tuple(sorted(self._entries.items()))

    def __contains__(self, name: str) -> bool:
        self._ensure()
        return name in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        self._ensure()
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Registry({self.kind!r}, {len(self._entries)} entries)"


class DocsView(Mapping):
    """A read-only ``name -> description`` mapping over a registry.

    Descriptions come from each entry's ``description`` attribute, or —
    for registries holding bare classes/functions — the registrant's
    docstring first line (:func:`first_doc_line`).  The ``repro-bench
    --list-*`` flags print their tables through this view, so listed
    docs stay in sync with the registered definitions instead of a
    hand-maintained dict.
    """

    def __init__(self, registry: Registry):
        self._registry = registry

    def __getitem__(self, name: str) -> str:
        entry = self._registry.get(name)
        if isinstance(entry, str):
            return entry
        desc = getattr(entry, "description", None)
        return desc if desc else first_doc_line(entry)

    def __contains__(self, name) -> bool:
        return name in self._registry

    def __iter__(self) -> Iterator[str]:
        return iter(self._registry.names())

    def __len__(self) -> int:
        return len(self._registry)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DocsView({self._registry!r})"


def _same_registrant(old, new) -> bool:
    """Whether two entries come from the same definition (same module and
    qualname of the registered class/factory) — i.e. the defining module
    re-executed rather than a second party claiming the name.

    Entries may be wrapper dataclasses carrying ``cls``/``factory``/``fn``
    (layouts, drives, declustering strategies) or the registered class
    itself (cache policies, prefetchers)."""

    def key(entry):
        obj = (getattr(entry, "cls", None) or getattr(entry, "factory", None)
               or getattr(entry, "fn", None))
        if obj is None and callable(entry):
            obj = entry
        if obj is None:
            return None
        return (getattr(obj, "__module__", None),
                getattr(obj, "__qualname__", None))

    a, b = key(old), key(new)
    return a is not None and a == b
