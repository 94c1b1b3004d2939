"""Per-worker telemetry spools and the coordinator-side collector.

Worker processes — pool workers and queue workers alike (see
:func:`repro.engine.executor.worker_runtime`) — cannot hand their spans,
metric deltas, or B&B search events to the coordinator's tracer and
registry directly. Each worker appends them to one JSONL *spool file*,
``<spool-dir>/worker-<pid>.jsonl`` (a queue's ``spools/`` directory, or
a pool batch's temporary one), through a :class:`TelemetrySpool`: a
:class:`repro.obs.TelemetryWriter` that writes and flushes every record
as it is emitted, so a job's telemetry is on disk before its result is
returned or published and the coordinator never sees a result whose
telemetry is still in flight.

The coordinator side is :class:`SpoolCollector`: it tail-reads every
spool incrementally (tracking per-file byte offsets, consuming only
complete lines), folds metric deltas into the process-global registry
and a per-worker accumulator, forwards span records to the active
tracer for stitching, and re-emits everything into the run's telemetry
journal. Both coordinators poll it before yielding each result and
:meth:`SpoolCollector.drain` it once more after their workers stop.

Spool event kinds:

* ``span`` — one finished span, as :func:`repro.obs.tracer.span_record`
  serializes it (the one span record, in spools, journals and
  ``--trace-out x.jsonl`` alike);
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

import os
import time
from pathlib import Path
from typing import Any, Dict, List, Union

from .aggregate import Snapshot, merge_snapshot, snapshot_delta
from .metrics import MetricsRegistry, snapshot
from .obslog import TelemetryWriter, read_jsonl
from .tracer import absorb_record

__all__ = [
    "SPOOL_DIR_NAME",
    "TelemetrySpool",
    "SpoolCollector",
]

#: Subdirectory of a queue dir holding the per-worker spool files.
SPOOL_DIR_NAME = "spools"


class TelemetrySpool(TelemetryWriter):
    """One worker's spool: a writer plus its metrics-delta baseline.

    The file is opened on construction — while the spool directory
    exists — so a late write (from a job its coordinator abandoned)
    lands in the open handle and never recreates a directory the
    coordinator has since removed. Records carry ``ts`` and ``event``;
    the collector stamps them with the journal's batch id.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        super().__init__(path)
        #: Registry snapshot covered by previous ships; the first delta
        #: is taken against construction time, so registry state
        #: inherited from a forked parent is never double-counted.
        self._shipped: Snapshot = snapshot()

    def emit(self, event: str, **fields: Any) -> None:
        self.write({"ts": time.time(), "event": event, **fields})

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

    def close(self) -> None:
        """Ship a final metrics delta and release the handle."""
        self.ship_metrics()
        super().close()


class SpoolCollector:
    """Folds worker spools into the coordinator's view of the run.

    For every complete line newly appended to any spool under
    ``spool_dir``:

    * ``metrics_snapshot`` deltas merge into the process-global registry
      and into a per-worker-pid accumulator
      (:meth:`worker_snapshots` — the evidence-pack artifact);
    * ``span`` records go to the active tracer (stitching) and
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
        """Consume newly written spool lines; returns events folded."""
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
        """Bytes workers have written that this collector has not folded.

        A fresh collector has folded nothing, so its backlog is the total
        spooled bytes.
        """
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
        payload = {k: v for k, v in event.items() if k != "event"}
        if kind == "span":
            self.span_records.append(payload)
            absorb_record(payload)
        if self._writer is not None:
            self._writer.emit(kind or "spool_event", **payload)
