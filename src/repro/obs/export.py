"""Span exporters: Chrome trace-event JSON and telemetry JSONL.

Offline formats for a finished trace:

* :func:`chrome_trace` / :func:`write_chrome_trace` — the Chrome
  trace-event format (``chrome://tracing`` and Perfetto both load it).
  Each finished span becomes one complete ("X") event with microsecond
  timestamps relative to the earliest span, its attributes under
  ``args``, and thread ids remapped to small integers.
* :func:`stitch_chrome_trace` — the *distributed* variant: local spans
  plus remote :func:`repro.obs.tracer.span_record` dicts collected from
  worker spools, aligned on the wall clock so one
  document shows the coordinator lane and every worker lane, with span
  uids / parent uids / trace ids under ``args``.
* :func:`export_spans_jsonl` — ``span_start``/``span_end`` event pairs
  appended through a :class:`repro.engine.TelemetryWriter`, i.e. the same
  JSONL stream format as the batch telemetry of PR 1 (streaming export is
  also available by constructing the :class:`repro.obs.Tracer` with a
  writer directly; this function is the batch form for a finished trace).
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Union

from .tracer import Span, span_record

__all__ = [
    "chrome_trace",
    "chrome_trace_events",
    "stitch_chrome_trace",
    "stitched_trace_events",
    "write_chrome_trace",
    "export_spans_jsonl",
]


def chrome_trace_events(spans: Iterable[Span]) -> List[Dict[str, Any]]:
    """Finished spans as Chrome complete ("X") events, start-ordered."""
    done = sorted((s for s in spans if s.finished), key=lambda s: s.start)
    if not done:
        return []
    base = done[0].start
    tids: Dict[int, int] = {}
    pid = os.getpid()
    events: List[Dict[str, Any]] = []
    for s in done:
        tid = tids.setdefault(s.tid, len(tids) + 1)
        events.append(
            {
                "name": s.name,
                "cat": s.name.split(".", 1)[0],
                "ph": "X",
                "ts": round((s.start - base) * 1e6, 3),
                "dur": round(s.duration * 1e6, 3),
                "pid": pid,
                "tid": tid,
                "args": {"span_id": s.span_id, **s.attrs},
            }
        )
    return events


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
    :class:`Span` objects, serialized here under the current pid. Lanes
    are named per pid — ``coordinator`` for this process, ``worker-N``
    for the rest — and ``otherData.trace_id`` is set when every event
    agrees on one trace.
    """
    all_records = [
        span_record(s) for s in spans if s.finished
    ] + [dict(r) for r in records]
    events = stitched_trace_events(all_records)
    own_pid = os.getpid()
    pids = sorted({e["pid"] for e in events})
    for pid in pids:
        events.append(
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


def chrome_trace(
    spans: Iterable[Span],
    metrics: Optional[Dict[str, Any]] = None,
    records: Optional[Iterable[Dict[str, Any]]] = None,
) -> Dict[str, Any]:
    """The full Chrome trace document (``traceEvents`` + metadata).

    With ``records`` (remote span records absorbed into the tracer by a
    collector), the document is the stitched multi-process form; without
    them it is the classic single-process export.
    """
    records = list(records) if records is not None else []
    if records:
        return stitch_chrome_trace(records, spans=spans, metrics=metrics)
    doc: Dict[str, Any] = {
        "traceEvents": chrome_trace_events(spans),
        "displayTimeUnit": "ms",
        "otherData": {"producer": "repro.obs"},
    }
    if metrics:
        doc["otherData"]["metrics"] = metrics
    return doc


def write_chrome_trace(
    path: Union[str, Path],
    spans: Iterable[Span],
    metrics: Optional[Dict[str, Any]] = None,
    records: Optional[Iterable[Dict[str, Any]]] = None,
) -> Path:
    """Serialize :func:`chrome_trace` to ``path``; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = chrome_trace(spans, metrics=metrics, records=records)
    path.write_text(
        json.dumps(doc, sort_keys=True, default=str), encoding="utf-8"
    )
    return path


def export_spans_jsonl(writer, spans: Iterable[Span]) -> int:
    """Append ``span_start``/``span_end`` pairs for finished spans.

    ``writer`` is a :class:`repro.engine.TelemetryWriter` (possibly
    pointed at an existing batch-telemetry file — the event names do not
    collide with the batch life-cycle events). Returns the number of
    spans exported.
    """
    count = 0
    for s in sorted((s for s in spans if s.finished), key=lambda x: x.start):
        writer.emit(
            "span_start",
            ts=s.ts_epoch,
            span=s.span_id,
            parent=s.parent_id,
            name=s.name,
        )
        writer.emit(
            "span_end",
            ts=s.ts_epoch + s.duration,
            span=s.span_id,
            parent=s.parent_id,
            name=s.name,
            duration=round(s.duration, 9),
            attrs={k: _jsonable(v) for k, v in s.attrs.items()},
        )
        count += 1
    return count


def _jsonable(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)
