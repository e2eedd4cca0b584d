"""The trace export: Chrome ``trace_event`` JSON.

:func:`export_chrome` renders a telemetry recording's span trees for
``chrome://tracing`` or https://ui.perfetto.dev, one row per drive.  It
returns text rather than writing a file, which is what lets the
determinism tests pin same-seed exports byte-for-byte;
:meth:`Telemetry.export <repro.obs.telemetry.Telemetry.export>` also
writes it to a path.
"""

from __future__ import annotations

import json

from repro.errors import ObsError

__all__ = ["export_chrome"]


def export_chrome(telemetry) -> str:
    """Chrome trace_event JSON for chrome://tracing / Perfetto"""
    tracer = getattr(telemetry, "tracer", None)
    if tracer is None:
        raise ObsError(
            "the trace export needs span traces; attach with "
            "with_telemetry(trace=True)"
        )
    events = []
    for qi, root in enumerate(tracer.roots):
        for span in root.walk():
            disk = span.attrs.get("disk")
            args = {k: span.attrs[k] for k in sorted(span.attrs)}
            args["query"] = qi
            events.append({
                "name": span.name,
                "cat": span.cat,
                "ph": "X",
                # trace_event timestamps are microseconds
                "ts": round(span.t0_ms * 1000.0, 3),
                "dur": round(span.dur_ms * 1000.0, 3),
                "pid": 1,
                # row 0 carries query/prepare spans; disk-bound spans
                # get one row per drive so utilisation reads visually
                "tid": 0 if disk is None else int(disk) + 1,
                "args": args,
            })
    return json.dumps(
        {"displayTimeUnit": "ms", "traceEvents": events},
        sort_keys=True, default=str,
    )
