"""Per-worker telemetry spools and the coordinator-side collector.

Worker processes — pool workers and queue workers alike (see
:func:`repro.engine.executor.worker_runtime`) — cannot hand their spans,
metric deltas, or B&B search events to the coordinator's tracer and
registry directly. Each worker appends them to one JSONL *spool file*,
``<spool-dir>/worker-<pid>.jsonl`` (a queue's ``spools/`` directory, or
a pool batch's temporary one), buffered in memory and flushed after
every job before its result is returned or published (and, in queue
mode, on every lease heartbeat), so the coordinator never sees a result
whose telemetry is still in flight.

The coordinator side is :class:`SpoolCollector`: it tail-reads every
spool incrementally (tracking per-file byte offsets, consuming only
complete lines), folds metric deltas into the process-global registry
and a per-worker accumulator, forwards span records to the active
tracer for stitching, and re-emits everything into the run's telemetry
journal. Both coordinators poll it before yielding each result and
:meth:`SpoolCollector.drain` it once more after their workers stop.

Spool event kinds:

* ``worker_span`` — one :func:`repro.obs.tracer.span_record`;
* ``metrics_snapshot`` — a registry *delta* since the worker's previous
  ship (counters/histograms subtract, gauges carry last writes), tagged
  with ``worker_pid`` and, when shipped after a job, that job's ``job``
  id, so :func:`repro.obs.merge_telemetry` can replay worker totals;
* ``bnb_event`` — a B&B search-tree event (:mod:`repro.ilp`).

Duplicate-execution caveat: if a lease expires and the job runs again
elsewhere, both executions spool their metrics — counters then reflect
work *performed* (two runs), not jobs *completed*, which is exactly
what a utilization view wants.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from .aggregate import Snapshot, merge_snapshot, snapshot_delta
from .metrics import MetricsRegistry, snapshot
from .obslog import read_jsonl
from .tracer import Span, absorb_record, span_record

__all__ = [
    "SPOOL_DIR_NAME",
    "TelemetrySpool",
    "SpoolCollector",
    "spool_backlog",
]

#: Subdirectory of a queue dir holding the per-worker spool files.
SPOOL_DIR_NAME = "spools"


class TelemetrySpool:
    """Buffered JSONL writer for one worker's telemetry events.

    Events accumulate in memory and hit disk on :meth:`flush` — called
    after every job and by the lease heartbeat. Writes are whole-line
    appends through a single file handle, so the collector on the other
    side only ever sees complete records (it discards a trailing partial
    line until the next poll). The first flush opens the file, creating
    its directory; once open, a flush never recreates a directory the
    coordinator has since removed.

    Like :class:`repro.engine.TelemetryWriter`, a spool degrades to a
    no-op if its directory cannot be written — telemetry must never
    take down the worker.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._buffer: List[str] = []
        self._fh = None
        self._disabled = False
        #: Registry snapshot covered by previous ships; the first delta
        #: is taken against construction time, so registry state
        #: inherited from a forked parent is never double-counted.
        self._shipped: Snapshot = snapshot()

    def emit(self, event: str, **fields: Any) -> None:
        record = {"ts": time.time(), "event": event, **fields}
        self._buffer.append(json.dumps(record, default=str))

    def emit_span(self, span: Span) -> None:
        self.emit("worker_span", **span_record(span))

    def ship_metrics(self, **fields: Any) -> bool:
        """Spool the registry delta since the last ship; True if any.

        ``fields`` (a finished job's ``job`` id) ride along on the
        ``metrics_snapshot`` event.
        """
        now = snapshot()
        delta = snapshot_delta(self._shipped, now)
        self._shipped = now
        if not delta:
            return False
        self.emit("metrics_snapshot", worker_pid=os.getpid(), metrics=delta,
                  **fields)
        return True

    def flush(self) -> None:
        if self._disabled:
            return
        lines, self._buffer = self._buffer, []
        try:
            if self._fh is None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._fh = open(self.path, "a", encoding="utf-8")
            if lines:
                self._fh.write("".join(line + "\n" for line in lines))
                self._fh.flush()
        except OSError:
            self._disabled = True
            self._fh = None

    def close(self) -> None:
        """Ship a final metrics delta, flush, and release the handle."""
        self.ship_metrics()
        self.flush()
        if self._fh is not None:
            try:
                self._fh.close()
            except OSError:
                pass
            self._fh = None


class SpoolCollector:
    """Folds worker spools into the coordinator's view of the run.

    For every complete line newly appended to any spool under
    ``spool_dir``:

    * ``metrics_snapshot`` deltas merge into the process-global registry
      and into a per-worker-pid accumulator
      (:meth:`worker_snapshots` — the evidence-pack artifact);
    * ``worker_span`` records go to the active tracer (stitching) and
      :attr:`span_records`;
    * everything is re-emitted verbatim into ``writer`` (the batch or
      run telemetry journal), so the journal is the one durable stream.
    """

    def __init__(self, spool_dir: Union[str, Path], writer=None) -> None:
        self.spool_dir = Path(spool_dir)
        self._writer = writer
        self._offsets: Dict[Path, int] = {}
        self.span_records: List[Dict[str, Any]] = []
        self.events = 0
        self._worker_registries: Dict[int, MetricsRegistry] = {}

    def poll(self) -> int:
        """Consume newly flushed spool lines; returns events folded."""
        if not self.spool_dir.is_dir():
            return 0
        folded = 0
        for path in sorted(self.spool_dir.glob("worker-*.jsonl")):
            folded += self._consume(path)
        self.events += folded
        return folded

    def drain(self) -> int:
        """Final sweep once the workers have stopped."""
        return self.poll()

    def backlog(self) -> int:
        """Bytes flushed by workers but not yet folded (spool backlog)."""
        total = 0
        if not self.spool_dir.is_dir():
            return 0
        for path in self.spool_dir.glob("worker-*.jsonl"):
            try:
                size = path.stat().st_size
            except OSError:
                continue
            total += max(0, size - self._offsets.get(path, 0))
        return total

    def worker_snapshots(self) -> Dict[int, Snapshot]:
        """Accumulated per-worker metric snapshots, keyed by pid."""
        return {
            pid: reg.snapshot()
            for pid, reg in sorted(self._worker_registries.items())
        }

    def _consume(self, path: Path) -> int:
        try:
            events, end = read_jsonl(path, self._offsets.get(path, 0))
        except OSError:
            return 0
        self._offsets[path] = end
        for event in events:
            self._fold(event)
        return len(events)

    def _fold(self, event: Dict[str, Any]) -> None:
        kind = event.get("event")
        if kind == "metrics_snapshot":
            metrics = event.get("metrics") or {}
            merge_snapshot(metrics)
            pid = int(event.get("worker_pid") or 0)
            reg = self._worker_registries.setdefault(pid, MetricsRegistry())
            merge_snapshot(metrics, registry=reg)
        elif kind == "worker_span":
            record = {
                k: v for k, v in event.items() if k not in ("event",)
            }
            self.span_records.append(record)
            absorb_record(record)
        if self._writer is not None:
            payload = {k: v for k, v in event.items() if k != "event"}
            self._writer.emit(event.get("event", "spool_event"), **payload)


def spool_backlog(
    spool_dir: Union[str, Path],
    collector: Optional[SpoolCollector] = None,
) -> int:
    """Unconsumed spool bytes under ``spool_dir``.

    With a live ``collector`` this is its :meth:`~SpoolCollector.backlog`
    (bytes flushed but not folded); without one — a standalone
    ``ObsServer`` watching a queue dir — it is the total spooled bytes.
    """
    if collector is not None:
        return collector.backlog()
    spool_dir = Path(spool_dir)
    if not spool_dir.is_dir():
        return 0
    total = 0
    for path in spool_dir.glob("worker-*.jsonl"):
        try:
            total += path.stat().st_size
        except OSError:
            continue
    return total
