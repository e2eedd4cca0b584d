"""The telemetry handle carried by storage managers.

:class:`Telemetry` bundles an optional :class:`~repro.obs.span.Tracer`
and an optional :class:`~repro.obs.metrics.MetricsRegistry` behind one
``observe_query`` entry point, which is the only call the execution
paths make.  A detached dataset simply has no handle (``storage.obs is
None``), so the hot paths pay one attribute check and nothing else —
the bit-identity the parity tests pin.
"""

from __future__ import annotations

from repro.errors import ObsError
from repro.obs.metrics import MetricsRegistry
from repro.obs.span import Span, Tracer

__all__ = ["Telemetry"]


class Telemetry:
    """Per-dataset telemetry state: tracer, metrics, default exporter.

    Constructed by :meth:`Dataset.with_telemetry` and attached to the
    storage manager as ``storage.obs``; the same object survives
    ``with_shards``/``with_replication`` rebuilds so recordings span
    reconfiguration.
    """

    def __init__(self, *, trace: bool = True, metrics: bool = True,
                 exporter: str | None = None):
        if not trace and not metrics:
            raise ObsError(
                "a Telemetry needs trace=True or metrics=True "
                "(Dataset.with_telemetry(trace=False, metrics=False) "
                "detaches instead)"
            )
        if exporter is not None:
            # fail fast on typos, before any query runs
            from repro.obs.exporters import EXPORTERS

            EXPORTERS.get(exporter)
        self.tracer = Tracer() if trace else None
        self.metrics = MetricsRegistry() if metrics else None
        self.exporter = exporter

    @property
    def active(self) -> bool:
        """Whether anything is attached (always true for a constructed
        instance; the check reads naturally at call sites)."""
        return self.tracer is not None or self.metrics is not None

    def observe_query(self, root: Span, *, advance: bool) -> None:
        """Record one completed query's span tree.

        ``advance`` moves the tracer's seeded batch clock past the root
        (batch recordings tile the axis; traffic recordings
        already carry simulated times and pass ``advance=False``).
        """
        if self.tracer is not None:
            self.tracer.record(root)
            if advance:
                self.tracer.advance(root.dur_ms)
        if self.metrics is not None:
            if root.cat == "query":
                self.metrics.inc("queries")
                self.metrics.observe("query_ms", root.dur_ms)
            for span in root.walk():
                self.metrics.inc("spans")
                if span is not root:
                    self.metrics.add_time(f"{span.cat}_ms", span.dur_ms)

    def describe(self) -> dict:
        """The gated ``meta["obs"]`` payload: trace totals and the
        metrics snapshot, keys present only for attached halves."""
        out: dict = {}
        if self.tracer is not None:
            out["trace"] = {
                "n_queries": self.tracer.n_queries,
                "n_spans": self.tracer.n_spans,
                "phase_ms": {
                    cat: round(ms, 3)
                    for cat, ms in self.tracer.phase_ms().items()
                },
            }
        if self.metrics is not None:
            out["metrics"] = self.metrics.snapshot()
        if self.exporter is not None:
            out["exporter"] = self.exporter
        return out

    def export(self, name: str | None = None, path=None) -> str:
        """Render the collected telemetry through an exporter (the
        attached default when ``name`` is omitted)."""
        from repro.obs.exporters import export_trace

        return export_trace(self, name, path)

    def reset(self) -> None:
        """Drop all recordings (tracer roots, clock, metric totals)."""
        if self.tracer is not None:
            self.tracer.reset()
        if self.metrics is not None:
            self.metrics.reset()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = []
        if self.tracer is not None:
            parts.append(f"trace({self.tracer.n_queries} queries)")
        if self.metrics is not None:
            parts.append("metrics")
        if self.exporter:
            parts.append(f"exporter={self.exporter!r}")
        return f"Telemetry({', '.join(parts)})"
