"""Structured run telemetry — one JSONL event stream per batch.

Every batch the engine executes can append its life cycle to a JSONL file
through :class:`repro.obs.TelemetryWriter` (re-exported here):
``batch_start``, per-job ``job_start`` / ``job_end`` / ``job_retry`` /
``job_timeout``, and a closing ``batch_end`` carrying wall time and cache
hit/miss totals; pool and queue batches also journal what their workers
spooled (``span``, ``metrics_snapshot`` and ``bnb_event`` records, see
:mod:`repro.obs.spool`). Events from successive runs append to the same
file (each run under a fresh ``batch`` id), so a warm-cache re-run can be
compared against its cold predecessor with nothing but the telemetry file:

    >>> summaries = summarize_telemetry(".relcache/telemetry.jsonl")
    >>> [s["wall_time"] for s in summaries]       # doctest: +SKIP
    [12.4, 1.7]
    >>> [s["cache_hits"] for s in summaries]      # doctest: +SKIP
    [0, 34]

:func:`repro.report.render_batch_summary` renders these summaries as the
same ASCII tables the benchmark harness prints.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, Iterable, List, Union

from ..obs.obslog import TelemetryWriter, read_jsonl

__all__ = [
    "TelemetryWriter",
    "completed_jobs",
    "read_events",
    "summarize_telemetry",
]


def read_events(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """Parse a telemetry JSONL file (skipping any truncated trailing line)."""
    return read_jsonl(path)[0]


def completed_jobs(
    source: Union[str, Path, Iterable[Dict[str, Any]]],
) -> Dict[str, bool]:
    """``job_id -> ok`` for every ``job_end`` event in a telemetry stream.

    The journal a crash-resumed batch consults: a job with a recorded
    ``job_end`` finished (successfully or not) before the interruption,
    so replaying the batch can skip it. A job retried across batches
    keeps its *latest* outcome.
    """
    if isinstance(source, (str, Path)):
        events: Iterable[Dict[str, Any]] = read_events(source)
    else:
        events = source
    finished: Dict[str, bool] = {}
    for event in events:
        if event.get("event") == "job_end" and event.get("job") is not None:
            finished[str(event["job"])] = bool(event.get("ok"))
    return finished


def summarize_telemetry(
    source: Union[str, Path, Iterable[Dict[str, Any]]],
) -> List[Dict[str, Any]]:
    """Per-batch roll-up of a telemetry stream, in batch start order.

    Accepts a JSONL path or an iterable of already-parsed events. Each
    summary reports job counts, failures, wall time, and cache totals —
    the numbers the acceptance comparison between a cold and a warm run
    needs.

    A batch that crashed (or was killed) before its ``batch_end`` event
    still gets a wall time — the gap between its first and last recorded
    event timestamps, a lower bound on the truth — and is flagged with
    ``"incomplete": True`` so consumers can tell the estimate apart from
    a measured value.
    """
    if isinstance(source, (str, Path)):
        events: Iterable[Dict[str, Any]] = read_events(source)
    else:
        events = source

    summaries: Dict[str, Dict[str, Any]] = {}
    for event in events:
        if event.get("event") == "span":
            continue  # finished spans share the stream; not batch life cycle
        batch = event.get("batch", "?")
        summary = summaries.setdefault(
            batch,
            {
                "batch": batch,
                "name": None,
                "jobs": 0,
                "ok": 0,
                "failed": 0,
                "retries": 0,
                "wall_time": None,
                "cache_hits": 0,
                "cache_misses": 0,
                "incomplete": True,
                "_first_ts": None,
                "_last_ts": None,
            },
        )
        ts = event.get("ts")
        if isinstance(ts, (int, float)):
            if summary["_first_ts"] is None:
                summary["_first_ts"] = ts
            summary["_last_ts"] = ts
        kind = event.get("event")
        if kind == "batch_start":
            summary["name"] = event.get("name")
            summary["jobs"] = event.get("jobs", 0)
        elif kind == "job_end":
            if event.get("ok"):
                summary["ok"] += 1
            else:
                summary["failed"] += 1
        elif kind == "job_retry":
            summary["retries"] += 1
        elif kind == "batch_end":
            summary["wall_time"] = event.get("wall_time")
            summary["cache_hits"] = event.get("cache_hits", 0)
            summary["cache_misses"] = event.get("cache_misses", 0)
            summary["incomplete"] = False

    for summary in summaries.values():
        first, last = summary.pop("_first_ts"), summary.pop("_last_ts")
        if summary["incomplete"] and summary["wall_time"] is None:
            if first is not None and last is not None:
                summary["wall_time"] = max(0.0, last - first)
    return list(summaries.values())
