"""Failure schedules: timed kills and revives of member disks.

A disk fails in one of two ways.  Between batch queries,
``storage.fail_disk(d)`` / ``storage.revive_disk(d)`` on a dataset's
:class:`~repro.shard.executor.ShardedStorageManager` change its state at
once.  In a traffic storm, :meth:`TrafficRun.kill
<repro.api.traffic.TrafficRun.kill>` appends :func:`kill_events` to a
:class:`FailureSchedule` that the engine applies at fixed simulated
times (queries in flight on a killed disk re-dispatch onto surviving
replicas; see :mod:`repro.traffic.engine`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ReplicaError, _check_count, _check_float

__all__ = ["FailureEvent", "FailureSchedule", "kill_events"]

_ACTIONS = ("kill", "revive")


@dataclass(frozen=True)
class FailureEvent:
    """One scheduled state change of one member disk.

    ``t_ms`` must be a finite real number of at least 0 (stored as a
    float) and ``disk`` an integer of at least 0, not a bool (stored as
    an int); anything else raises :class:`ReplicaError`.
    """

    t_ms: float
    action: str
    disk: int

    def __post_init__(self) -> None:
        if self.action not in _ACTIONS:
            raise ReplicaError(
                f"unknown failure action {self.action!r}; "
                f"expected one of {_ACTIONS}"
            )
        t_ms = _check_float("t_ms", self.t_ms, ReplicaError)
        if t_ms < 0:
            raise ReplicaError("failure time must be >= 0 ms")
        object.__setattr__(self, "t_ms", t_ms)
        object.__setattr__(
            self, "disk", _check_count("disk", self.disk, ReplicaError, 0)
        )

    def describe(self) -> dict:
        return {
            "t_ms": float(self.t_ms),
            "action": self.action,
            "disk": int(self.disk),
        }


def kill_events(at_ms, disk, revive_at_ms=None) -> tuple[FailureEvent, ...]:
    """A kill of ``disk`` at ``at_ms`` and, given ``revive_at_ms``, its
    revive, each checked as :class:`FailureEvent` checks it; a revive
    that does not come after the kill raises :class:`ReplicaError`."""
    kill = FailureEvent(at_ms, "kill", disk)
    if revive_at_ms is None:
        return (kill,)
    revive = FailureEvent(revive_at_ms, "revive", disk)
    if not revive.t_ms > kill.t_ms:
        raise ReplicaError("revive must come after the kill")
    return kill, revive


@dataclass(frozen=True)
class FailureSchedule:
    """An immutable, time-ordered list of :class:`FailureEvent` s; any
    other entry raises :class:`ReplicaError`."""

    events: tuple[FailureEvent, ...] = ()

    def __post_init__(self) -> None:
        events = tuple(self.events)
        for ev in events:
            if not isinstance(ev, FailureEvent):
                raise ReplicaError(
                    f"a failure schedule holds FailureEvents, got {ev!r}"
                )
        # stable sort: simultaneous events keep their authored order
        events = tuple(sorted(events, key=lambda ev: ev.t_ms))
        object.__setattr__(self, "events", events)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def describe(self) -> dict:
        return {"events": [ev.describe() for ev in self.events]}

