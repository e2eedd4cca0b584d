"""Deterministic failure injection: kill/revive schedules for runs.

A :class:`FailureInjector` is the seeded source of failure decisions —
it picks victim disks reproducibly, applies kills/revives to a
:class:`~repro.shard.executor.ShardedStorageManager` between batch
queries, and builds :class:`FailureSchedule` timelines for the traffic
engine (queries in flight on a killed disk re-dispatch onto surviving
replicas; see :mod:`repro.traffic.engine`).  Same seed, same schedule,
same victims — bit-reproducible chaos.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ReplicaError

__all__ = ["FailureEvent", "FailureInjector", "FailureSchedule"]

_ACTIONS = ("kill", "revive")


@dataclass(frozen=True)
class FailureEvent:
    """One scheduled state change of one member disk."""

    t_ms: float
    action: str
    disk: int

    def __post_init__(self) -> None:
        if self.action not in _ACTIONS:
            raise ReplicaError(
                f"unknown failure action {self.action!r}; "
                f"expected one of {_ACTIONS}"
            )
        if self.t_ms < 0:
            raise ReplicaError("failure time must be >= 0 ms")
        if self.disk < 0:
            raise ReplicaError("disk index must be >= 0")

    def describe(self) -> dict:
        return {
            "t_ms": float(self.t_ms),
            "action": self.action,
            "disk": int(self.disk),
        }


@dataclass(frozen=True)
class FailureSchedule:
    """An immutable, time-ordered list of failure events."""

    events: tuple[FailureEvent, ...] = ()

    def __post_init__(self) -> None:
        events = tuple(
            ev if isinstance(ev, FailureEvent) else FailureEvent(*ev)
            for ev in self.events
        )
        # stable sort: simultaneous events keep their authored order
        events = tuple(sorted(events, key=lambda ev: ev.t_ms))
        object.__setattr__(self, "events", events)

    @classmethod
    def coerce(cls, schedule) -> "FailureSchedule":
        """Normalise a schedule spec (schedule, injector, or iterable of
        events / ``(t_ms, action, disk)`` tuples)."""
        if isinstance(schedule, FailureSchedule):
            return schedule
        if isinstance(schedule, FailureInjector):
            return schedule.schedule
        return cls(tuple(schedule))

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def describe(self) -> dict:
        return {"events": [ev.describe() for ev in self.events]}


class FailureInjector:
    """Seeded, deterministic kill/revive decisions for ``n_disks``.

    The injector owns a private generator: every ``pick_disk`` draw is a
    pure function of the seed and the call sequence, so experiments that
    kill "a random disk" are replayable bit-for-bit.
    """

    def __init__(self, n_disks: int, seed: int = 0):
        self.n_disks = int(n_disks)
        if self.n_disks < 1:
            raise ReplicaError("need at least one disk")
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self._events: list[FailureEvent] = []

    # ------------------------------------------------------------------
    # victim selection
    # ------------------------------------------------------------------

    def pick_disk(self, exclude=()) -> int:
        """Draw a victim disk uniformly among the non-excluded ones."""
        exclude = set(int(d) for d in exclude)
        candidates = [d for d in range(self.n_disks) if d not in exclude]
        if not candidates:
            raise ReplicaError("no disk left to pick")
        return int(candidates[int(self.rng.integers(len(candidates)))])

    # ------------------------------------------------------------------
    # batch-mode injection (between queries)
    # ------------------------------------------------------------------

    def kill(self, storage, disk: int | None = None) -> int:
        """Kill ``disk`` (or a drawn victim) on ``storage``; returns the
        victim so callers can revive or rebuild it later."""
        if disk is None:
            disk = self.pick_disk(exclude=storage.failed)
        storage.fail_disk(int(disk))
        return int(disk)

    def revive(self, storage, disk: int) -> None:
        storage.revive_disk(int(disk))

    # ------------------------------------------------------------------
    # schedule building (for the traffic engine)
    # ------------------------------------------------------------------

    def schedule_kill(self, at_ms: float, disk: int | None = None,
                      revive_at_ms: float | None = None
                      ) -> "FailureInjector":
        """Append a kill (and optional revive) to the schedule
        (chainable).  ``disk=None`` draws the victim now, from the
        injector's stream, excluding disks already scheduled dead at
        ``at_ms``."""
        if disk is None:
            dead = {
                ev.disk for ev in self._events
                if ev.action == "kill" and not any(
                    e.action == "revive" and e.disk == ev.disk
                    and ev.t_ms < e.t_ms <= at_ms
                    for e in self._events
                )
            }
            disk = self.pick_disk(exclude=dead)
        disk = int(disk)
        if disk >= self.n_disks:
            raise ReplicaError(
                f"disk {disk} out of range for {self.n_disks} disks"
            )
        self._events.append(FailureEvent(float(at_ms), "kill", disk))
        if revive_at_ms is not None:
            if revive_at_ms <= at_ms:
                raise ReplicaError("revive must come after the kill")
            self._events.append(
                FailureEvent(float(revive_at_ms), "revive", disk)
            )
        return self

    @property
    def schedule(self) -> FailureSchedule:
        """The events appended so far, as an immutable schedule."""
        return FailureSchedule(tuple(self._events))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FailureInjector(n_disks={self.n_disks}, seed={self.seed}, "
            f"events={len(self._events)})"
        )
