"""Cross-process metrics aggregation for the exploration engine.

Pool and queue workers accumulate into their *own* process-global
:class:`repro.obs.MetricsRegistry`; without this module those numbers
would vanish when the worker exits, so a ``--jobs 8`` sweep would report
an empty registry while a serial run of the same batch reported
thousands of engine calls. The fix is a snapshot/delta/merge pipeline:

1. after each job the worker spools the registry delta since its
   previous ship (:func:`snapshot_delta`, called by
   :meth:`repro.obs.TelemetrySpool.ship_metrics`);
2. the coordinator's :class:`repro.obs.SpoolCollector` re-emits the
   delta as a ``metrics_snapshot`` event on the batch's JSONL telemetry
   stream — the same channel the job life-cycle events use — and folds
   it into its own registry (:func:`merge_snapshot`): counters sum,
   gauges take the last write, histograms merge count/sum/min/max and
   bucket counts.

Post-hoc, :func:`merge_telemetry` replays the ``metrics_snapshot``
events of a telemetry file into a fresh registry, so worker totals can
be reconstructed from the artifact alone — for the whole fleet, or per
worker (a service run's ``worker_metrics.json``).

Caveat: a per-job histogram delta cannot recover the window's true
min/max from two cumulative snapshots, so deltas carry the worker's
process-lifetime min/max instead — a conservative superset. Counts,
sums, and buckets are exact.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, Iterable, Optional, Union

from .metrics import MetricsRegistry
from .metrics import registry as _global_registry
from .obslog import read_jsonl

__all__ = [
    "snapshot_delta",
    "merge_snapshot",
    "merge_telemetry",
]

Snapshot = Dict[str, Dict[str, Any]]


def snapshot_delta(before: Snapshot, after: Snapshot) -> Snapshot:
    """What changed between two registry snapshots, as a snapshot.

    Counters and histogram counts/sums/buckets subtract; gauges keep the
    ``after`` value (last-write semantics); instruments that did not move
    are dropped so the shipped payload stays small.
    """
    delta: Snapshot = {}
    for name, data in after.items():
        kind = data.get("kind")
        prev = before.get(name)
        if prev is not None and prev.get("kind") != kind:
            prev = None  # re-registered under a different kind; treat as new
        if kind == "counter":
            value = data.get("value", 0) - (
                prev.get("value", 0) if prev else 0
            )
            if value:
                delta[name] = {"kind": "counter", "value": value}
        elif kind == "gauge":
            if data.get("value") is not None and data != prev:
                delta[name] = {"kind": "gauge", "value": data["value"]}
        elif kind == "histogram":
            count = data.get("count", 0) - (prev.get("count", 0) if prev else 0)
            if count <= 0:
                continue
            entry = {
                "kind": "histogram",
                "count": count,
                "sum": data.get("sum", 0.0)
                - (prev.get("sum", 0.0) if prev else 0.0),
                # Window min/max are unrecoverable from cumulative
                # snapshots; the process-lifetime values are a superset.
                "min": data.get("min"),
                "max": data.get("max"),
            }
            bounds = data.get("bounds")
            counts = data.get("bucket_counts")
            if bounds is not None and counts is not None:
                prev_counts = (
                    prev.get("bucket_counts")
                    if prev and list(prev.get("bounds", ())) == list(bounds)
                    else None
                )
                if prev_counts is not None and len(prev_counts) == len(counts):
                    counts = [c - p for c, p in zip(counts, prev_counts)]
                entry["bounds"] = list(bounds)
                entry["bucket_counts"] = list(counts)
            delta[name] = entry
    return delta


def merge_snapshot(
    snap: Snapshot, registry: Optional[MetricsRegistry] = None
) -> int:
    """Fold a snapshot (typically a worker delta) into ``registry``.

    Defaults to the process-global registry. Returns the number of
    instruments merged; instruments whose kind conflicts with an
    existing registration are skipped (a foreign snapshot must never
    poison the live registry).
    """
    reg = registry if registry is not None else _global_registry()
    merged = 0
    for name, data in snap.items():
        kind = data.get("kind")
        try:
            if kind == "counter":
                value = data.get("value", 0)
                if value:
                    reg.counter(name).inc(value)
            elif kind == "gauge":
                if data.get("value") is not None:
                    reg.gauge(name).set(data["value"])
            elif kind == "histogram":
                reg.histogram(name).merge(data)
            else:
                continue
        except TypeError:
            continue  # name already registered under another kind
        merged += 1
    return merged


def merge_telemetry(
    source: Union[str, Path, Iterable[Dict[str, Any]]],
    registry: Optional[MetricsRegistry] = None,
) -> MetricsRegistry:
    """Replay a telemetry stream's ``metrics_snapshot`` deltas.

    ``source`` is a JSONL path or already-parsed records; every other
    event is ignored. ``registry`` defaults to a *fresh* one (not the
    global), so the reconstruction can be inspected without
    contaminating live metrics. Pass one worker's records to get that
    worker's totals.
    """
    reg = registry if registry is not None else MetricsRegistry()
    if isinstance(source, (str, Path)):
        source = read_jsonl(source)[0]
    for event in source:
        metrics = event.get("metrics")
        if event.get("event") == "metrics_snapshot" and isinstance(
            metrics, dict
        ):
            merge_snapshot(metrics, reg)
    return reg
