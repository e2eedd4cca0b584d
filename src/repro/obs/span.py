"""Deterministic span trees: where one query spent its time.

A :class:`Span` is a half-open interval ``[t0_ms, t0_ms + dur_ms)`` on
the *simulated* clock with a category (phase) and free-form attributes;
a query's spans form a tree whose root covers the whole query and whose
children partition it into phases: plan preparation, cache filter
service, per-disk drive service (with the seek/rotate/transfer
attribution of :class:`~repro.disk.drive.BatchResult`), ingest flushes,
failover re-plans, and background reorganisation.

The :class:`Tracer` collects one root per query.  Batch executions have
no global clock, so the tracer keeps a **seeded batch clock** that
starts at zero and advances by each query's total service time — the
same accounting the batch executor reports — which makes batch trace
timestamps a pure function of the workload and seed.  Traffic
executions record at *simulated* event times, so their spans line up
with the storm's makespan axis.

Every builder below consumes only values the execution already
computed (no extra RNG draws, no wall clock), which is what makes an
attached tracer a zero-impact observer: results, reports, and traffic
JSON are bit-identical with or without it — the parity
``tests/obs/test_parity.py`` pins.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ObsError

__all__ = [
    "Span",
    "Tracer",
    "record_reorg",
    "record_scatter",
    "record_traffic_query",
]


@dataclass(frozen=True)
class Span:
    """One phase interval of one query (immutable).

    ``cat`` is the phase: ``"query"`` (roots), ``"prepare"``,
    ``"cache"``, ``"service"``, ``"flush"``, ``"failover"``,
    ``"reorg"``.  Instants (preparation, failover events) carry
    ``dur_ms == 0``.
    """

    name: str
    cat: str
    t0_ms: float
    dur_ms: float
    attrs: dict = field(default_factory=dict)
    children: tuple = ()

    def __post_init__(self) -> None:
        if self.dur_ms < 0:
            raise ObsError(
                f"span {self.name!r} has negative duration {self.dur_ms}"
            )

    @property
    def t1_ms(self) -> float:
        return self.t0_ms + self.dur_ms

    def walk(self):
        """This span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "cat": self.cat,
            "t0_ms": self.t0_ms,
            "dur_ms": self.dur_ms,
        }
        if self.attrs:
            out["attrs"] = {k: self.attrs[k] for k in sorted(self.attrs)}
        if self.children:
            out["children"] = [c.to_dict() for c in self.children]
        return out


class Tracer:
    """Collects one root :class:`Span` per traced query.

    ``clock_ms`` is the seeded batch clock: builders place a batch
    query's root at the current clock and :meth:`advance` it by the
    query's total, so consecutive batch queries tile the axis without
    overlap.  Traffic recordings use simulated event times directly and
    leave the clock alone.
    """

    def __init__(self) -> None:
        self.roots: list[Span] = []
        self.clock_ms = 0.0

    def record(self, root: Span) -> None:
        self.roots.append(root)

    def advance(self, ms: float) -> None:
        self.clock_ms += float(ms)

    def reset(self) -> None:
        self.roots.clear()
        self.clock_ms = 0.0

    @property
    def n_queries(self) -> int:
        return len(self.roots)

    @property
    def n_spans(self) -> int:
        return sum(1 for root in self.roots for _ in root.walk())

    def phase_ms(self) -> dict:
        """Total duration per category over every recorded span (roots
        under ``"query"``, phases under their own categories)."""
        totals: dict[str, float] = {}
        for root in self.roots:
            for span in root.walk():
                totals[span.cat] = totals.get(span.cat, 0.0) + span.dur_ms
        return {cat: totals[cat] for cat in sorted(totals)}


# ----------------------------------------------------------------------
# recording helpers (called from the executor / scatter / traffic hooks)
# ----------------------------------------------------------------------


def _prepare_span(t0: float, prepared, subs) -> Span:
    """The instant plan-preparation span, summarising the §5.2 work the
    storage manager already did (raw runs from each sub-plan's attached
    prepare record, when present)."""
    attrs = {
        "policy": prepared.policy,
        "cells": int(prepared.n_cells),
        "runs": int(prepared.n_runs),
        "blocks": int(prepared.n_blocks),
        "subs": len(subs),
    }
    raw = [sub.obs for sub in subs]
    if all(r is not None for r in raw):
        attrs["raw_runs"] = int(sum(r["raw_runs"] for r in raw))
    return Span("prepare", "prepare", t0, 0.0, attrs=attrs)


def _cache_span(t0: float, dur: float, disk: int, hits: int,
                runs: int) -> Span:
    return Span(
        f"cache d{disk}", "cache", t0, dur,
        attrs={"disk": int(disk), "hits": int(hits), "runs": int(runs)},
    )


def _service_span(t0: float, res, disk: int, cat: str = "service",
                  name: str | None = None) -> Span:
    """One drive service interval with its mechanical attribution."""
    return Span(
        name or f"disk {disk}", cat, t0, res.total_ms,
        attrs={
            "disk": int(disk),
            "seek_ms": res.seek_ms,
            "rotation_ms": res.rotation_ms,
            "transfer_ms": res.transfer_ms,
            "switch_ms": res.switch_ms,
            "blocks": int(res.n_blocks),
            "runs": int(res.n_requests),
        },
    )


def record_scatter(telemetry, prepared, parts, result) -> None:
    """Record one :func:`~repro.query.scatter.scatter_execute` call.

    ``parts`` holds ``(sub, BatchResult)`` in service order (grouped by
    disk, sub-plans back to back); per disk the cache filter's memory
    service leads and drive batches follow, reproducing the per-disk
    busy accounting whose max is the query's makespan ``result``.
    """
    tracer = telemetry.tracer
    t0 = tracer.clock_ms if tracer is not None else 0.0
    write = any(sub.is_write for sub, _ in parts)
    children = [_prepare_span(t0, prepared, tuple(s for s, _ in parts))]
    offsets: dict[int, float] = {}
    for sub, res in parts:
        disk = sub.disk_index
        t = offsets.get(disk, t0)
        if sub.cache_ms > 0:
            children.append(_cache_span(
                t, sub.cache_ms, disk, sub.cache_hits, sub.cache_runs,
            ))
            t += sub.cache_ms
        children.append(_service_span(
            t, res, disk,
            cat="flush" if sub.is_write else "service",
        ))
        offsets[disk] = t + res.total_ms
    root = Span(
        f"q{tracer.n_queries if tracer is not None else 0}", "query",
        t0, result.total_ms,
        attrs={
            "mapper": prepared.mapper_name,
            "policy": prepared.policy,
            "cells": int(prepared.n_cells),
            "disks": len(offsets),
            "write": write,
        },
        children=tuple(children),
    )
    telemetry.observe_query(root, advance=True)


def record_traffic_query(telemetry, *, client: str, label: str,
                         index: int, n_cells: int, policy: str,
                         arrival_ms: float, start_ms: float,
                         done_ms: float, prepared, cache: dict,
                         slices, events, hits: dict | None = None,
                         runs: dict | None = None) -> None:
    """Record one completed traffic query at simulated event times.

    ``cache`` maps each involved disk to its memory-service share (as
    captured at submission, before the engine's billing zeroes it), and
    ``hits``/``runs`` carry the matching per-disk hit/run counts when
    the engine captured them; ``slices`` holds ``(disk, t0,
    BatchResult)`` per serviced slice; ``events`` holds ``(t, from
    disk, to disk)`` per failover re-dispatch.  The root spans
    ``[arrival, completion)``, so queueing delay is the gap between the
    root start and its first service child.
    """
    children = [_prepare_span(arrival_ms, prepared, prepared.subs)]
    for disk in sorted(cache):
        share = cache[disk]
        if share > 0:
            attrs = {"disk": int(disk)}
            if hits is not None:
                attrs["hits"] = int(hits.get(disk, 0))
            if runs is not None:
                attrs["runs"] = int(runs.get(disk, 0))
            children.append(Span(
                f"cache d{disk}", "cache", arrival_ms, share,
                attrs=attrs,
            ))
    for disk, t0, res in slices:
        children.append(_service_span(t0, res, disk,
                                      name=f"slice d{disk}"))
    for t, old, new in events:
        children.append(Span(
            "failover", "failover", t, 0.0,
            attrs={"from_disk": int(old), "to_disk": int(new)},
        ))
    root = Span(
        f"{client}#{index}", "query", arrival_ms,
        done_ms - arrival_ms,
        attrs={
            "client": client,
            "label": label,
            "index": int(index),
            "cells": int(n_cells),
            "policy": policy,
            "start_ms": start_ms,
        },
        children=tuple(children),
    )
    telemetry.observe_query(root, advance=False)


def record_reorg(telemetry, report) -> None:
    """Record one background reorganisation window
    (:class:`~repro.ingest.reorg.ReorgReport`) on the batch clock."""
    tracer = telemetry.tracer
    t0 = tracer.clock_ms if tracer is not None else 0.0
    root = Span(
        "reorganize", "reorg", t0, report.reorg_ms,
        attrs={
            "pages_freed": int(report.pages_freed),
            "blocks": int(report.n_blocks),
            "ideal_ms": report.reorg_ms,
            "throttle": 1.0,
            "io_ms_by_disk": {
                str(d): report.io_ms_by_disk[d]
                for d in sorted(report.io_ms_by_disk)
            },
        },
    )
    telemetry.observe_query(root, advance=True)
