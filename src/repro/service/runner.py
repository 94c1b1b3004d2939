"""Run execution: a durable, resumable wrapper around the engine.

:func:`execute_run` drives one stored run through its state machine:

1. ``PENDING -> RUNNING`` (manifest records start time + attempt count);
2. the spec's :class:`repro.engine.BatchSpec` is built, jobs already
   journaled by a previous attempt are *skipped* (the crash-resume path:
   their canonical results replay from ``results.jsonl``, cross-checked
   against the telemetry journal's ``job_end`` events), and the remainder
   executes through :func:`repro.engine.run_batch` — telemetry appends to
   the run directory, every finished job is journaled immediately, and
   progress lands in the manifest so ``GET /api/jobs/<id>`` shows it;
3. the deterministic result document (``result.json``) and rendered
   report (``report.txt``) are written, the terminal state recorded, and
   the directory sealed as an evidence pack
   (:func:`repro.service.evidence.pack_evidence`).

Cancellation and timeouts are cooperative: the executor's ``should_stop``
hook is polled between job completions, so a cancelled or overdue run
stops at the next job boundary, journals what it has, and seals as
``CANCELLED`` / ``FAILED`` respectively.

The result document's ``results`` array is *deterministic*: job values
are canonicalized (:func:`canonical_value`) with no wall times, pids, or
timestamps, so a service run of a spec is byte-comparable against a
direct ``run_batch`` of the same spec.
"""

from __future__ import annotations

import threading
import time
import traceback
from typing import Any, Dict, List, Optional

from .. import obs
from ..engine import BatchSpec, WorkerPool, run_batch
from ..engine.telemetry import completed_jobs, read_events, summarize_telemetry
from ..report import render_batch_summary
from .evidence import pack_evidence
from .specs import build_batch
from .store import (
    CANCELLED,
    DONE,
    FAILED,
    JOURNAL_NAME,
    REPORT_NAME,
    RESULT_NAME,
    RUNNING,
    SPEC_NAME,
    TELEMETRY_NAME,
    TRACE_NAME,
    WORKER_METRICS_NAME,
    MANIFEST_NAME,
    RunRecord,
    RunStore,
)

#: How often the executing run refreshes its liveness marker. Comfortably
#: inside :data:`repro.service.store.DEFAULT_LEASE_TTL` so a healthy run
#: can never look abandoned to ``repro runs gc``.
HEARTBEAT_INTERVAL = 5.0

__all__ = [
    "execute_run",
    "canonical_value",
    "canonical_results",
    "result_document",
]


# ---------------------------------------------------------------------------
# Canonical (deterministic) value encoding


def canonical_value(value: Any) -> Any:
    """JSON-able, deterministic encoding of a job's raw value.

    Floats keep full precision (Python's JSON round-trips them exactly),
    and nothing environment-dependent — wall times, pids, timestamps —
    survives, so equal computations encode to equal documents.
    """
    from ..arch import Architecture
    from ..arch.serialization import architecture_to_dict
    from ..synthesis.pareto import TradeoffPoint
    from ..synthesis.result import SynthesisResult

    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, SynthesisResult):
        return {
            "type": "synthesis_result",
            "status": value.status,
            "algorithm": value.algorithm,
            "cost": value.cost,
            "reliability": value.reliability,
            "approx_reliability": value.approx_reliability,
            "num_iterations": value.num_iterations,
            "architecture": (
                architecture_to_dict(value.architecture)
                if value.architecture is not None else None
            ),
        }
    if isinstance(value, TradeoffPoint):
        return {
            "type": "tradeoff_point",
            "r_star": value.r_star,
            "result": canonical_value(value.result),
        }
    if isinstance(value, Architecture):
        return {"type": "architecture",
                **architecture_to_dict(value)}
    if isinstance(value, dict):
        return {str(k): canonical_value(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical_value(v) for v in value]
    return repr(value)


def _journal_entry(result) -> Dict[str, Any]:
    entry: Dict[str, Any] = {
        "job_id": result.job_id,
        "ok": result.ok,
        "meta": canonical_value(result.meta),
    }
    if result.ok:
        entry["value"] = canonical_value(result.value)
    else:
        entry["error"] = result.error
        entry["error_type"] = result.error_type
    return entry


def canonical_results(results) -> List[Dict[str, Any]]:
    """Deterministic per-job entries for a sequence of ``JobResult``.

    This is the byte-comparable core of ``result.json``: the acceptance
    check builds the same list from a direct :func:`repro.engine.run_batch`
    of the spec and compares JSON dumps.
    """
    return [_journal_entry(r) for r in results]


def result_document(record: RunRecord, batch: BatchSpec,
                    entries: List[Dict[str, Any]],
                    stats: Dict[str, Any]) -> Dict[str, Any]:
    """Assemble ``result.json``: deterministic results + run statistics."""
    return {
        "run_id": record.run_id,
        "kind": record.kind,
        "spec_digest": record.manifest.get("spec_digest"),
        "batch": batch.name,
        "results": entries,
        "stats": stats,
    }


# ---------------------------------------------------------------------------
# Execution


def _load_replayable(store: RunStore, record: RunRecord) -> Dict[str, Dict]:
    """Journal entries safe to replay on resume (double-entry checked).

    A journal line counts only if the telemetry journal also recorded a
    matching successful ``job_end`` — the two files are written
    back-to-back, so an entry present in one but not the other marks the
    exact job a crash interrupted.
    """
    telemetry = record.path / TELEMETRY_NAME
    finished = completed_jobs(telemetry) if telemetry.is_file() else {}
    replayable: Dict[str, Dict] = {}
    for entry in store.read_journal(record):
        job_id = entry.get("job_id")
        if job_id is None or not entry.get("ok"):
            continue
        if finished.get(job_id):
            replayable[job_id] = entry
    return replayable


def _write_result(store: RunStore, record: RunRecord, batch: BatchSpec,
                  entries: List[Dict[str, Any]],
                  stats: Dict[str, Any]) -> None:
    import json

    doc = result_document(record, batch, entries, stats)
    (record.path / RESULT_NAME).write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _write_report(record: RunRecord, lines: List[str]) -> None:
    telemetry = record.path / TELEMETRY_NAME
    if telemetry.is_file():
        lines.append("")
        lines.append(render_batch_summary(summarize_telemetry(telemetry)))
    (record.path / REPORT_NAME).write_text(
        "\n".join(lines) + "\n", encoding="utf-8"
    )


# The tracer slot is process-global, so concurrent execute_run threads
# must share one tracer and only the last of them may clear it — and
# only if the runner (not an outer caller such as a test's
# ``obs.tracing()``) installed it in the first place.
_TRACER_LOCK = threading.Lock()
_TRACER_USERS = 0
_TRACER_OWNED = False


def _acquire_tracer() -> None:
    global _TRACER_USERS, _TRACER_OWNED
    with _TRACER_LOCK:
        if obs.get_tracer() is None:
            obs.set_tracer(obs.Tracer())
            _TRACER_OWNED = True
        _TRACER_USERS += 1


def _release_tracer() -> None:
    global _TRACER_USERS, _TRACER_OWNED
    with _TRACER_LOCK:
        _TRACER_USERS -= 1
        if _TRACER_USERS <= 0 and _TRACER_OWNED:
            obs.set_tracer(None)
            _TRACER_OWNED = False


def _write_observability(record: RunRecord,
                         trace_ctx: "obs.TraceContext") -> None:
    """Write the run's stitched trace and per-worker metrics artifacts.

    Both are observability sidecars next to the deterministic
    ``result.json``: ``trace.json`` is a Chrome trace-event document
    stitching the coordinator's spans with every worker's spooled span
    records (filtered to this run's trace id, so concurrent runs sharing
    a tracer stay separate), and ``worker_metrics.json`` reconstructs
    each worker's metric totals from the telemetry journal's
    ``metrics_snapshot`` deltas — the "which worker was slow and why"
    answer. Written before the seal so ``pack_evidence`` manifests them.
    """
    import json

    tracer = obs.get_tracer()
    spans = [
        s for s in (tracer.spans if tracer is not None else [])
        if s.trace_id == trace_ctx.trace_id and s.finished
    ]
    records = [
        r for r in (tracer.records if tracer is not None else [])
        if r.get("trace") == trace_ctx.trace_id
    ]
    if spans or records:
        doc = obs.stitch_chrome_trace(records, spans=spans)
        (record.path / TRACE_NAME).write_text(
            json.dumps(doc, sort_keys=True, default=str) + "\n",
            encoding="utf-8",
        )
    telemetry = record.path / TELEMETRY_NAME
    workers: Dict[str, obs.MetricsRegistry] = {}
    for event in read_events(telemetry) if telemetry.is_file() else ():
        if event.get("event") == "metrics_snapshot":
            pid = str(event.get("worker_pid") or "coordinator")
            obs.merge_telemetry(
                [event], workers.setdefault(pid, obs.MetricsRegistry())
            )
    (record.path / WORKER_METRICS_NAME).write_text(
        json.dumps(
            {
                "run_id": record.run_id,
                "trace_id": trace_ctx.trace_id,
                "workers": {
                    pid: reg.snapshot()
                    for pid, reg in sorted(workers.items())
                },
            },
            indent=2, sort_keys=True, default=str,
        ) + "\n",
        encoding="utf-8",
    )


def _seal(store: RunStore, record: RunRecord, state: str,
          error: Optional[str] = None) -> RunRecord:
    """Record the terminal state, then freeze the directory as evidence."""
    store.clear_heartbeat(record)  # the lease ends with the run
    artifacts = sorted(
        p.name for p in record.path.iterdir()
        if p.is_file() and not p.name.endswith(".tmp")
    )
    store.transition(record, state, error=error, artifacts=artifacts)
    pack_evidence(record.path, run_id=record.run_id)
    return record


def execute_run(
    store: RunStore,
    record: RunRecord,
    cancel: Optional[threading.Event] = None,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    timeout: Optional[float] = None,
    pool: Optional[WorkerPool] = None,
) -> RunRecord:
    """Execute one stored run to a terminal state and seal its evidence.

    Parameters
    ----------
    cancel:
        Cooperative cancellation flag, polled at job boundaries.
    jobs:
        Worker processes for the underlying batch (``1`` = in-thread).
    cache_dir:
        Shared persistent reliability cache directory.
    timeout:
        Wall-clock budget for the whole run; overrides the spec's own
        ``timeout`` when the spec gives none.
    pool:
        The caller's :class:`repro.engine.WorkerPool`, whose workers a
        pool batch takes and hands back (the queue keeps one for its
        life); without one a pool batch forks its own.
    """
    spec = record.spec()
    if record.state != RUNNING:
        # The queue claims PENDING -> RUNNING atomically under its own
        # lock before handing the record over; direct callers (CLI,
        # tests) still arrive with a PENDING record and claim here.
        store.transition(record, RUNNING)
    run_timeout = spec.get("timeout") or timeout
    deadline = (time.monotonic() + run_timeout) if run_timeout else None
    handle = obs.run_registry().start(
        "service", run=record.run_id, job_kind=record.kind,
        attempt=record.manifest.get("attempt"),
    )
    # Trace identity is *derived* from the run id, so a resumed run
    # (same id, new process) continues the same distributed trace. The
    # runner installs a tracer only when none is active — concurrent
    # runs inside one service process share it (refcounted, since the
    # tracer slot is process-global) and are separated by trace id when
    # artifacts are written.
    trace_ctx = obs.TraceContext.derive(
        record.run_id, run=record.run_id, kind=record.kind,
    )
    _acquire_tracer()
    prev_ctx = obs.set_trace_context(trace_ctx)
    # Lease heartbeat: proves to `repro runs gc` (possibly in another
    # process) that this run is being actively executed, even while a
    # long job keeps the manifest untouched.
    store.heartbeat(record)
    beat_stop = threading.Event()

    def _beat() -> None:
        while not beat_stop.wait(HEARTBEAT_INTERVAL):
            store.heartbeat(record)

    beat = threading.Thread(target=_beat, daemon=True,
                            name=f"repro-heartbeat-{record.run_id}")
    beat.start()
    status = FAILED
    error: Optional[str] = None
    try:
        batch = build_batch(spec)
        replayable = _load_replayable(store, record)
        remaining = [j for j in batch.jobs if j.job_id not in replayable]
        skipped = len(batch.jobs) - len(remaining)
        store.set_progress(
            record, done=skipped, failed=0, total=len(batch.jobs),
            skipped=skipped,
        )
        handle.update(total=len(batch.jobs), skipped=skipped)

        progress = {"done": skipped, "failed": 0}

        def on_result(result) -> None:
            store.append_journal(record, _journal_entry(result))
            progress["done"] += 1
            progress["failed"] += 0 if result.ok else 1
            store.set_progress(record, done=progress["done"],
                               failed=progress["failed"])
            handle.update(done=progress["done"], failed=progress["failed"])

        def should_stop() -> bool:
            if cancel is not None and cancel.is_set():
                return True
            return deadline is not None and time.monotonic() > deadline

        batch_jobs = jobs if jobs != 1 else spec.get("jobs", 1)
        outcome = run_batch(
            BatchSpec(name=batch.name, jobs=remaining, meta=dict(batch.meta)),
            jobs=batch_jobs,
            cache_dir=cache_dir,
            telemetry=str(record.path / TELEMETRY_NAME),
            on_result=on_result,
            should_stop=should_stop,
            pool=pool,
        )

        # Merge replayed + fresh results back into submission order.
        fresh = {r.job_id: _journal_entry(r) for r in outcome.results}
        entries = []
        for job in batch.jobs:
            entry = replayable.get(job.job_id) or fresh.get(job.job_id)
            if entry is not None:
                entries.append(entry)
        failed = sum(1 for e in entries if not e.get("ok"))
        stats = {
            "wall_time": round(outcome.wall_time, 6),
            "jobs_used": outcome.jobs_used,
            "cache_hits": outcome.cache_hits,
            "cache_misses": outcome.cache_misses,
            "replayed": skipped,
            "executed": len(outcome.results),
            "failed": failed,
            "stopped": outcome.stopped,
        }
        _write_result(store, record, batch, entries, stats)
        _write_report(record, [
            f"run {record.run_id} ({record.kind})",
            f"jobs: {len(entries)}/{len(batch.jobs)} recorded, "
            f"{skipped} replayed from journal, {failed} failed",
            outcome.summary(),
        ])

        if outcome.stopped:
            if cancel is not None and cancel.is_set():
                status, error = CANCELLED, "cancelled by request"
            else:
                status, error = FAILED, (
                    f"timed out after {run_timeout}s "
                    f"({progress['done']}/{len(batch.jobs)} jobs done)"
                )
        elif len(entries) < len(batch.jobs) or failed:
            status, error = FAILED, f"{failed} job(s) failed"
        else:
            status = DONE
        return record
    except Exception as exc:  # noqa: BLE001 - a run must always seal
        status = FAILED
        error = f"{type(exc).__name__}: {exc}\n" + traceback.format_exc(limit=5)
        return record
    finally:
        obs.set_trace_context(prev_ctx)
        try:
            _write_observability(record, trace_ctx)
        except Exception:  # noqa: BLE001 - sidecars must never block sealing
            pass
        _release_tracer()
        beat_stop.set()
        beat.join(timeout=1.0)
        handle.finish(status=status.lower())
        _seal(store, record, status, error=error)


# Re-exported store filenames, so API/CLI callers need one import only.
ARTIFACT_NAMES = (SPEC_NAME, MANIFEST_NAME, JOURNAL_NAME, TELEMETRY_NAME,
                  RESULT_NAME, REPORT_NAME, TRACE_NAME, WORKER_METRICS_NAME)
