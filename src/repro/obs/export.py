"""Chrome trace-event export of finished spans.

Every finished span has one serialized form,
:func:`repro.obs.tracer.span_record`: epoch timestamps, the span's
cross-process uid, its parent uid and trace id. A Chrome trace
(``chrome://tracing`` and Perfetto both load it) is built from those
records, whichever process they came from:

* :func:`stitched_trace_events` — records as complete ("X") events,
  aligned on the wall clock, with microsecond timestamps relative to
  the earliest span;
* :func:`stitch_chrome_trace` / :func:`write_chrome_trace` — the whole
  document for local :class:`repro.obs.Span` objects plus the records
  collected from worker spools: one lane per process when more than one
  contributed, with span uids / parent uids / trace ids under ``args``.

The JSONL form of a trace is the same records written as ``span``
events through a :class:`repro.obs.TelemetryWriter`.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Union

from .tracer import Span, span_record

__all__ = [
    "stitch_chrome_trace",
    "stitched_trace_events",
    "write_chrome_trace",
]


def stitched_trace_events(
    records: Iterable[Dict[str, Any]],
) -> List[Dict[str, Any]]:
    """Span *records* (possibly many processes) as Chrome "X" events.

    Records carry epoch timestamps (``ts`` seconds + ``dur`` seconds),
    so spans from the coordinator and every worker align on the wall
    clock; each source pid becomes one Chrome process lane and its
    thread ids are remapped to small integers per lane. The span uid,
    parent uid, and trace id ride under ``args`` — that is what the
    connectivity tests walk to prove the trace has no orphans.
    """
    done = sorted(
        (r for r in records if r.get("ts") is not None),
        key=lambda r: (r["ts"], r.get("uid") or ""),
    )
    if not done:
        return []
    base = done[0]["ts"]
    tids: Dict[Any, int] = {}
    events: List[Dict[str, Any]] = []
    for r in done:
        name = str(r.get("name", "span"))
        pid = int(r.get("pid") or 0)
        lane = tids.setdefault((pid, r.get("tid")), len(tids) + 1)
        args: Dict[str, Any] = dict(r.get("attrs") or {})
        if r.get("uid") is not None:
            args["span_uid"] = r["uid"]
        if r.get("parent") is not None:
            args["parent_uid"] = r["parent"]
        if r.get("trace") is not None:
            args["trace_id"] = r["trace"]
        events.append(
            {
                "name": name,
                "cat": name.split(".", 1)[0],
                "ph": "X",
                "ts": round((r["ts"] - base) * 1e6, 3),
                "dur": round(float(r.get("dur") or 0.0) * 1e6, 3),
                "pid": pid,
                "tid": lane,
                "args": args,
            }
        )
    return events


def stitch_chrome_trace(
    records: Iterable[Dict[str, Any]],
    spans: Iterable[Span] = (),
    metrics: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """One Chrome trace spanning the coordinator and all its workers.

    ``records`` are remote :func:`repro.obs.tracer.span_record` dicts
    (worker spools); ``spans`` are local finished
    :class:`Span` objects, serialized here under the current pid. When
    more than one process contributed, lanes are named per pid —
    ``coordinator`` for this process, ``worker-N`` for the rest — so a
    single-process document holds only "X" events.
    ``otherData.trace_id`` is set when every event agrees on one trace.
    """
    all_records = [
        span_record(s) for s in spans if s.finished
    ] + [dict(r) for r in records]
    events = stitched_trace_events(all_records)
    own_pid = os.getpid()
    pids = sorted({e["pid"] for e in events})
    if len(pids) > 1:
        events.extend(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {
                    "name": "coordinator"
                    if pid == own_pid
                    else f"worker-{pid}"
                },
            }
            for pid in pids
        )
    doc: Dict[str, Any] = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"producer": "repro.obs", "pids": pids},
    }
    trace_ids = {
        r.get("trace") for r in all_records if r.get("trace") is not None
    }
    if len(trace_ids) == 1:
        doc["otherData"]["trace_id"] = trace_ids.pop()
    if metrics:
        doc["otherData"]["metrics"] = metrics
    return doc


def write_chrome_trace(
    path: Union[str, Path],
    spans: Iterable[Span],
    metrics: Optional[Dict[str, Any]] = None,
    records: Optional[Iterable[Dict[str, Any]]] = None,
) -> Path:
    """Serialize :func:`stitch_chrome_trace` to ``path``; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = stitch_chrome_trace(records or (), spans=spans, metrics=metrics)
    path.write_text(
        json.dumps(doc, sort_keys=True, default=str), encoding="utf-8"
    )
    return path
