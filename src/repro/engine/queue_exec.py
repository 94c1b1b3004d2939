"""File-backed work queue: lease-based execution across processes.

The process pool in :mod:`repro.engine.executor` couples workers to one
parent for the lifetime of a batch. The work queue decouples them: a
coordinator serializes jobs into a shared directory, any number of worker
processes — spawned locally by :func:`iter_queue`, or started by hand via
``repro worker`` on the same filesystem — *lease* jobs out of it, and
results flow back through the same directory. That makes a sweep
restartable (the queue survives the coordinator) and lets several hosts
share one cache-backed queue over a common mount.

Layout under ``queue_dir``::

    jobs/<digest>.pkl       the pickled :class:`~repro.engine.jobs.Job`
    pending/<digest>.json   claim token ({"attempts": n}); presence = runnable
    leased/<digest>.json    the same token while a worker owns the job;
                            the file's mtime is the worker's heartbeat
    results/<digest>.pkl    the finished record (ok payload or failure)
    trace.json              the coordinator's :class:`repro.obs.TraceContext`
                            (trace id + parent span uid); workers adopt it
                            so their spans join the coordinator's trace
    spools/worker-<pid>.jsonl   per-worker telemetry spool: span records,
                            metric deltas, and B&B search events,
                            heartbeat-flushed and folded back into the
                            run by the coordinator's
                            :class:`repro.obs.SpoolCollector`

Jobs are content-addressed by :func:`job_digest` (SHA-256 of the pickled
``(kind, payload)``), so identical subproblems submitted by different
batch entries — or different coordinators — collapse onto one execution;
the coordinator fans the single result back out to every ``job_id`` that
asked for it.

Leasing is one atomic :func:`os.rename` of the claim token from
``pending/`` to ``leased/`` — exactly one worker wins, no lock file, no
daemon. While a job runs, a heartbeat thread refreshes the lease file's
mtime; a lease whose heartbeat goes stale for longer than the TTL
(crashed or wedged worker) is re-queued with its attempt counter bumped,
and fails for good once the attempts exceed the retry budget. The queue
is therefore *at-least-once*: a worker that stalls past the TTL and then
recovers can finish a job that was also re-run elsewhere. Results are
first-write-wins and jobs are deterministic, so duplicated execution
costs time, never correctness.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass
from multiprocessing import Process
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

from .. import obs
from .executor import (
    TRANSIENT_EXCEPTIONS,
    _ok_result,
    _run_shipped,
    worker_runtime,
    worker_trace_context,
)
from .jobs import BatchSpec, Job, JobResult
from .telemetry import TelemetryWriter

__all__ = [
    "DEFAULT_LEASE_TTL",
    "FileWorkQueue",
    "job_digest",
    "run_worker",
    "iter_queue",
]

#: Seconds a lease may go without a heartbeat before it is re-queued.
DEFAULT_LEASE_TTL = 60.0

#: How many crashed local workers :func:`iter_queue` will replace before
#: failing the remaining jobs instead of spinning forever.
MAX_WORKER_RESTARTS = 3

#: Coordinator/worker polling granularity when the queue is quiet.
POLL_INTERVAL = 0.05

_JOBS_DIR = "jobs"
_PENDING_DIR = "pending"
_LEASED_DIR = "leased"
_RESULTS_DIR = "results"
_STOP_FILE = "stop"
_TRACE_FILE = "trace.json"


def job_digest(job: Job) -> str:
    """Content address of a job: what it runs, not what it is called.

    ``job_id`` and ``meta`` are deliberately excluded — two sweep entries
    that describe the same computation under different labels must share
    one execution.
    """
    blob = pickle.dumps((job.kind, job.payload), protocol=4)
    return hashlib.sha256(blob).hexdigest()


@dataclass
class Lease:
    """A claimed job: its digest plus the attempt this execution is."""

    digest: str
    attempts: int = 1


def _atomic_write(path: Path, data: bytes) -> None:
    tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
    tmp.write_bytes(data)
    tmp.replace(path)


class FileWorkQueue:
    """The shared directory protocol described in the module docstring.

    Every method is safe to call from any number of processes on the
    same directory; filesystem errors degrade to "nothing claimable" /
    "no result yet" rather than raising, because a concurrent peer
    renaming files underneath us is normal operation, not failure.
    """

    def __init__(self, queue_dir: Union[str, Path]) -> None:
        self.path = Path(queue_dir)
        self.jobs_dir = self.path / _JOBS_DIR
        self.pending_dir = self.path / _PENDING_DIR
        self.leased_dir = self.path / _LEASED_DIR
        self.results_dir = self.path / _RESULTS_DIR
        self.spool_dir = self.path / obs.SPOOL_DIR_NAME
        for directory in (self.jobs_dir, self.pending_dir, self.leased_dir,
                          self.results_dir, self.spool_dir):
            directory.mkdir(parents=True, exist_ok=True)

    # -- trace context ----------------------------------------------------

    def write_trace_context(self, ctx: "obs.TraceContext") -> "obs.TraceContext":
        """Persist the coordinator's trace context for workers to adopt.

        A queue that already carries a trace (a resumed or re-attached
        coordinator) keeps its original trace id — the whole point of a
        persistent id is that kill-and-resume lands in *one* trace — but
        the parent span uid and correlation fields are refreshed to the
        live coordinator. Returns the effective context.
        """
        existing = self.load_trace_context()
        if existing is not None and existing.trace_id != ctx.trace_id:
            ctx = obs.TraceContext(
                existing.trace_id, ctx.parent_uid, dict(ctx.fields)
            )
        _atomic_write(
            self.path / _TRACE_FILE,
            json.dumps(ctx.to_dict(), sort_keys=True).encode("utf-8"),
        )
        return ctx

    def load_trace_context(self) -> Optional["obs.TraceContext"]:
        try:
            doc = json.loads(
                (self.path / _TRACE_FILE).read_text(encoding="utf-8")
            )
            return obs.TraceContext.from_dict(doc)
        except (OSError, ValueError, KeyError):
            return None

    def spool_path(self, pid: Optional[int] = None) -> Path:
        """This process's telemetry spool file under the queue."""
        return self.spool_dir / f"worker-{os.getpid() if pid is None else pid}.jsonl"

    # -- enqueue ----------------------------------------------------------

    def enqueue(self, job: Job) -> Tuple[str, str]:
        """Make ``job`` runnable; returns ``(digest, status)``.

        Status is ``"cached"`` (a result already exists — nothing to
        run), ``"duplicate"`` (already pending or leased), or
        ``"enqueued"``.
        """
        digest = job_digest(job)
        if self.has_result(digest):
            return digest, "cached"
        job_path = self.jobs_dir / f"{digest}.pkl"
        if not job_path.exists():
            _atomic_write(job_path, pickle.dumps(job, protocol=4))
        token = f"{digest}.json"
        if (self.pending_dir / token).exists() or (
            self.leased_dir / token
        ).exists():
            return digest, "duplicate"
        self._write_token(self.pending_dir / token, attempts=1)
        return digest, "enqueued"

    def _write_token(self, path: Path, attempts: int) -> None:
        _atomic_write(
            path,
            json.dumps({"attempts": int(attempts)}).encode("utf-8"),
        )

    # -- worker side ------------------------------------------------------

    def claim(self) -> Optional[Lease]:
        """Atomically take one pending job; ``None`` when nothing is."""
        try:
            names = sorted(os.listdir(self.pending_dir))
        except OSError:
            return None
        for name in names:
            if not name.endswith(".json"):
                continue
            src = self.pending_dir / name
            try:
                token = json.loads(src.read_text(encoding="utf-8"))
            except (OSError, ValueError):
                token = {}
            try:
                # The atomic claim: exactly one renamer wins the token.
                os.rename(src, self.leased_dir / name)
            except OSError:
                continue  # another worker beat us to it
            lease_path = self.leased_dir / name
            try:
                os.utime(lease_path)  # the claim is the first heartbeat
            except OSError:
                pass
            return Lease(digest=name[:-5],
                         attempts=int(token.get("attempts", 1)))
        return None

    def heartbeat(self, lease: Lease) -> None:
        """Refresh the lease's liveness; self-heals a deleted lease file.

        (A racing ``requeue_expired`` can momentarily delete the token of
        a live worker — recreating it here keeps the job owned.)
        """
        path = self.leased_dir / f"{lease.digest}.json"
        try:
            os.utime(path)
        except OSError:
            try:
                self._write_token(path, attempts=lease.attempts)
            except OSError:
                pass
        if obs.enabled():
            obs.counter("engine.queue.heartbeats").inc()

    def load_job(self, digest: str) -> Optional[Job]:
        try:
            blob = (self.jobs_dir / f"{digest}.pkl").read_bytes()
            return pickle.loads(blob)
        except (OSError, pickle.PickleError):
            return None

    def release(self, lease: Lease, attempts: Optional[int] = None) -> None:
        """Put a leased job back into ``pending/`` (worker-side retry).

        The pending token is written *before* the lease is dropped so a
        crash in between leaves the job claimable, never lost.
        """
        token = f"{lease.digest}.json"
        self._write_token(
            self.pending_dir / token,
            attempts=attempts if attempts is not None else lease.attempts + 1,
        )
        self._discard_lease(lease.digest)

    def _discard_lease(self, digest: str) -> None:
        try:
            (self.leased_dir / f"{digest}.json").unlink()
        except OSError:
            pass

    def write_result(self, digest: str, record: Dict[str, Any]) -> None:
        """Publish a finished record; the first writer wins.

        A duplicated execution (expired-then-recovered lease) may publish
        second — jobs are deterministic, so overwriting with an identical
        record is harmless either way.
        """
        _atomic_write(
            self.results_dir / f"{digest}.pkl",
            pickle.dumps(record, protocol=4),
        )
        self._discard_lease(digest)

    # -- coordinator side -------------------------------------------------

    def has_result(self, digest: str) -> bool:
        return (self.results_dir / f"{digest}.pkl").exists()

    def load_result(self, digest: str) -> Optional[Dict[str, Any]]:
        try:
            blob = (self.results_dir / f"{digest}.pkl").read_bytes()
            return pickle.loads(blob)
        except (OSError, pickle.PickleError):
            return None

    def requeue_expired(self, lease_ttl: float,
                        max_attempts: Optional[int] = None) -> Tuple[int, int]:
        """Reclaim leases whose heartbeat went stale.

        Returns ``(requeued, failed)``: expired leases are re-queued with
        their attempt counter bumped, except those already at
        ``max_attempts``, which get a terminal ``TimeoutError`` result
        instead of looping forever on a poisonous job.
        """
        now = time.time()
        requeued = failed = 0
        try:
            names = sorted(os.listdir(self.leased_dir))
        except OSError:
            return 0, 0
        for name in names:
            if not name.endswith(".json"):
                continue
            path = self.leased_dir / name
            try:
                age = now - path.stat().st_mtime
            except OSError:
                continue  # the worker just finished or released it
            if age <= lease_ttl:
                continue
            digest = name[:-5]
            if self.has_result(digest):
                self._discard_lease(digest)
                continue
            try:
                attempts = int(
                    json.loads(path.read_text(encoding="utf-8"))["attempts"]
                )
            except (OSError, ValueError, KeyError):
                attempts = 1
            if max_attempts is not None and attempts >= max_attempts:
                self.write_result(digest, {
                    "ok": False,
                    "attempts": attempts,
                    "error": (
                        f"lease expired after {attempts} attempt(s) "
                        f"(ttl={lease_ttl}s)"
                    ),
                    "error_type": "TimeoutError",
                })
                failed += 1
                continue
            token = self.pending_dir / name
            if not token.exists():
                self._write_token(token, attempts=attempts + 1)
            self._discard_lease(digest)
            requeued += 1
        return requeued, failed

    def counts(self) -> Dict[str, int]:
        """Queue occupancy by stage (diagnostics and tests)."""
        out = {}
        for label, directory in (
            ("jobs", self.jobs_dir), ("pending", self.pending_dir),
            ("leased", self.leased_dir), ("results", self.results_dir),
        ):
            try:
                out[label] = sum(
                    1 for n in os.listdir(directory) if not n.startswith(".")
                    and ".tmp" not in n
                )
            except OSError:
                out[label] = 0
        return out

    def health(self, collector: Optional["obs.SpoolCollector"] = None
               ) -> Dict[str, Any]:
        """The ``/healthz`` contribution: depth, leases, spool backlog.

        ``spool_backlog`` is bytes workers have flushed that nobody has
        folded yet — with a live collector, relative to its offsets;
        standalone, the total spooled bytes. A fleet that stalls shows
        up as ``active_leases`` flatlining while ``queue_depth`` stays
        high and the backlog stops moving. ``oldest_lease_age`` is the
        seconds since the staleest lease's last heartbeat — the signal
        the ``stuck_lease`` alert rule thresholds against its ttl.
        """
        counts = self.counts()
        doc: Dict[str, Any] = {
            "queue_depth": counts["pending"],
            "active_leases": counts["leased"],
            "results": counts["results"],
            "spool_backlog": obs.spool_backlog(
                self.spool_dir, collector=collector
            ),
        }
        oldest: Optional[float] = None
        now = time.time()
        try:
            names = os.listdir(self.leased_dir)
        except OSError:
            names = []
        for name in names:
            if name.startswith(".") or ".tmp" in name:
                continue
            try:
                age = now - (self.leased_dir / name).stat().st_mtime
            except OSError:
                continue
            if oldest is None or age > oldest:
                oldest = age
        if oldest is not None:
            doc["oldest_lease_age"] = round(oldest, 3)
        if collector is not None:
            workers = {}
            for pid, snap in collector.worker_snapshots().items():
                jobs = (snap.get("engine.jobs.completed") or {}).get("value")
                workers[str(pid)] = {"jobs": jobs or 0}
            if workers:
                doc["workers"] = workers
        return doc

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FileWorkQueue({str(self.path)!r}, {self.counts()})"


# ---------------------------------------------------------------------------
# Worker


def _heartbeat_loop(queue: FileWorkQueue, lease: Lease, interval: float,
                    stop: threading.Event,
                    spool: "obs.TelemetrySpool") -> None:
    while not stop.wait(interval):
        queue.heartbeat(lease)
        spool.flush()


def _execute_lease(queue: FileWorkQueue, lease: Lease, retries: int,
                   heartbeat_interval: float, spool: "obs.TelemetrySpool",
                   trace_ctx: Optional["obs.TraceContext"] = None) -> None:
    job = queue.load_job(lease.digest)
    if job is None:
        # The job spec vanished (queue pruned underneath us): the lease
        # is meaningless, drop it.
        queue._discard_lease(lease.digest)
        return
    stop = threading.Event()
    beat = threading.Thread(
        target=_heartbeat_loop,
        args=(queue, lease, heartbeat_interval, stop, spool),
        daemon=True,
    )
    beat.start()
    # The job's telemetry ships before its result is published: the
    # coordinator stops collecting once every result is in, so no
    # result ever outruns its spans and metrics.
    try:
        try:
            wrapped = _run_shipped(job, spool, trace_ctx)
        except TRANSIENT_EXCEPTIONS as exc:
            if lease.attempts <= retries:
                if obs.enabled():
                    obs.counter("engine.queue.retries").inc()
                queue.release(lease)
            else:
                queue.write_result(lease.digest, {
                    "ok": False,
                    "attempts": lease.attempts,
                    "error": str(exc) or type(exc).__name__,
                    "error_type": type(exc).__name__,
                })
        except Exception as exc:
            queue.write_result(lease.digest, {
                "ok": False,
                "attempts": lease.attempts,
                "error": str(exc) or type(exc).__name__,
                "error_type": type(exc).__name__,
            })
        else:
            queue.write_result(lease.digest, {
                "ok": True,
                "attempts": lease.attempts,
                "wrapped": wrapped,
            })
    finally:
        stop.set()
        beat.join(timeout=1.0)


def run_worker(
    queue_dir: Union[str, Path],
    cache_dir: Optional[str] = None,
    cache_backend: str = "auto",
    cache_shards: Optional[int] = None,
    retries: int = 1,
    lease_ttl: float = DEFAULT_LEASE_TTL,
    stop_file: Optional[str] = None,
    idle_timeout: Optional[float] = None,
    max_jobs: Optional[int] = None,
    poll_interval: float = POLL_INTERVAL,
) -> int:
    """Drain jobs from ``queue_dir`` until told (or timed) to stop.

    This is the body of both the locally-spawned queue workers and the
    ``repro worker`` CLI command. The worker exits when ``stop_file``
    appears, after ``max_jobs`` executions, or after ``idle_timeout``
    seconds without claimable work; with none of the three it serves
    forever. Returns the number of jobs executed.

    Idle workers also sweep expired leases, so a fleet of standalone
    workers recovers crashed peers' jobs without any coordinator.

    The worker runs in the same runtime as a pool worker
    (:func:`repro.engine.executor.worker_runtime`): it spools its
    telemetry — per-job and lifetime metric deltas, span records for
    jobs run under the queue's trace context, and B&B search events —
    to ``spools/worker-<pid>.jsonl`` for the coordinator's collector,
    and its obslog records carry the run id, job digest, and lease
    attempt as correlation fields.
    """
    queue = FileWorkQueue(queue_dir)
    stop_path = Path(stop_file) if stop_file is not None else queue.path / _STOP_FILE
    heartbeat_interval = min(max(lease_ttl / 4.0, 0.02), 2.0)
    executed = 0
    idle_since = time.monotonic()
    base_ctx = queue.load_trace_context()
    worker_fields: Dict[str, Any] = {"worker_pid": os.getpid()}
    if base_ctx is not None:
        worker_fields.update(base_ctx.fields)

    with worker_runtime(queue.spool_dir, cache_dir, cache_backend,
                        cache_shards) as spool:
        with obs.log_context(**worker_fields):
            obs.log("worker.started", queue=str(queue.path))
            while True:
                if stop_path.exists():
                    break
                if max_jobs is not None and executed >= max_jobs:
                    break
                lease = queue.claim()
                if lease is None:
                    queue.requeue_expired(lease_ttl, max_attempts=retries + 1)
                    if (idle_timeout is not None
                            and time.monotonic() - idle_since > idle_timeout):
                        break
                    time.sleep(poll_interval)
                    continue
                idle_since = time.monotonic()
                executed += 1
                if obs.enabled():
                    obs.counter("engine.queue.leases.claimed").inc()
                if base_ctx is None:
                    # The coordinator may have attached (and written the
                    # trace context) after we started polling.
                    base_ctx = queue.load_trace_context()
                lease_ctx = (
                    base_ctx.with_fields(job_digest=lease.digest[:12],
                                         lease_attempt=lease.attempts)
                    if base_ctx is not None else None
                )
                with obs.log_context(job_digest=lease.digest[:12],
                                     lease_attempt=lease.attempts):
                    obs.log("worker.lease_claimed")
                    _execute_lease(queue, lease, retries, heartbeat_interval,
                                   spool=spool, trace_ctx=lease_ctx)
                    obs.log("worker.lease_done", executed=executed)
            obs.log("worker.stopped", executed=executed)
    return executed


# ---------------------------------------------------------------------------
# Coordinator


def _record_result(job: Job, record: Dict[str, Any], primary: bool,
                   writer: TelemetryWriter) -> JobResult:
    if record.get("ok"):
        result = _ok_result(job, record["wrapped"], int(record["attempts"]))
        if not primary:
            # The fan-out copies of a deduplicated execution must not
            # double-count the one worker's cache traffic.
            result.cache_hits = 0
            result.cache_misses = 0
        return result
    return JobResult(
        job_id=job.job_id,
        ok=False,
        error=record.get("error"),
        error_type=record.get("error_type"),
        attempts=int(record.get("attempts", 1)),
        meta=dict(job.meta),
    )


def iter_queue(
    batch: BatchSpec,
    jobs: int = 2,
    queue_dir: Optional[Union[str, Path]] = None,
    cache_dir: Optional[str] = None,
    retries: int = 1,
    lease_ttl: Optional[float] = None,
    writer: Optional[TelemetryWriter] = None,
    cache_backend: str = "auto",
    cache_shards: Optional[int] = None,
    spawn_workers: bool = True,
    poll_interval: float = POLL_INTERVAL,
) -> Iterator[JobResult]:
    """Run ``batch`` through a file work queue, yielding completions.

    Spawns ``jobs`` local worker processes against ``queue_dir`` (a
    throwaway queue when omitted) unless ``spawn_workers=False``, in
    which case external ``repro worker`` processes pointed at the same
    directory are expected to do the draining. Identical jobs collapse
    onto one execution and fan back out to every requesting ``job_id``.

    The coordinator writes its :class:`repro.obs.TraceContext` into the
    queue (minting one — parented under the live batch span when a
    tracer is active — unless the queue already carries a trace id, in
    which case a resumed run keeps it), folds every worker spool into
    the telemetry journal, the global metrics registry, and the active
    tracer via a :class:`repro.obs.SpoolCollector`, and contributes a
    ``queue`` health source (depth / leases / spool backlog) to
    ``/healthz`` for the duration of the drain.
    """
    writer = writer if writer is not None else TelemetryWriter(None)
    ttl = lease_ttl if lease_ttl is not None else DEFAULT_LEASE_TTL
    own_queue = queue_dir is None
    qdir = (
        Path(tempfile.mkdtemp(prefix="repro-queue-"))
        if own_queue else Path(queue_dir)
    )
    queue = FileWorkQueue(qdir)
    stop_path = queue.path / _STOP_FILE
    try:
        stop_path.unlink()  # a stale stop marker would strand the workers
    except OSError:
        pass

    queue.write_trace_context(
        worker_trace_context(batch.name)
        or obs.TraceContext.mint(batch=batch.name)
    )
    collector = obs.SpoolCollector(queue.spool_dir, writer=writer)
    obs.add_health_source("queue", lambda: queue.health(collector=collector))

    by_digest: Dict[str, List[Job]] = {}
    for job in batch.jobs:
        writer.emit("job_start", job=job.job_id, kind=job.kind, mode="queue")
        digest, status = queue.enqueue(job)
        group = by_digest.setdefault(digest, [])
        if group or status in ("duplicate", "cached"):
            writer.emit("job_dedup", job=job.job_id, digest=digest[:12],
                        status=status)
            if obs.enabled():
                obs.counter("engine.queue.jobs.deduped").inc()
        elif obs.enabled():
            obs.counter("engine.queue.jobs.enqueued").inc()
        group.append(job)

    def spawn() -> Process:
        worker = Process(
            target=run_worker,
            kwargs={
                "queue_dir": str(qdir),
                "cache_dir": cache_dir,
                "cache_backend": cache_backend,
                "cache_shards": cache_shards,
                "retries": retries,
                "lease_ttl": ttl,
                "stop_file": str(stop_path),
            },
            daemon=True,
        )
        worker.start()
        return worker

    workers: List[Process] = [spawn() for _ in range(jobs)] if spawn_workers else []
    restarts = 0
    unresolved = set(by_digest)
    try:
        while unresolved:
            progressed = False
            for digest in sorted(unresolved):
                record = queue.load_result(digest)
                if record is None:
                    continue
                # Workers flush their spool before publishing a result,
                # so folding first guarantees the metrics and spans of
                # this job are home before its JobResult is yielded.
                collector.poll()
                unresolved.discard(digest)
                progressed = True
                if obs.enabled():
                    obs.counter("engine.queue.results").inc()
                for i, job in enumerate(by_digest[digest]):
                    yield _record_result(job, record, primary=(i == 0),
                                         writer=writer)
            if not unresolved:
                break
            collector.poll()
            requeued, expired_failed = queue.requeue_expired(
                ttl, max_attempts=retries + 1
            )
            if requeued:
                writer.emit("lease_expired", requeued=requeued)
                if obs.enabled():
                    obs.counter("engine.queue.leases.expired").inc(requeued)
            if expired_failed and obs.enabled():
                obs.counter("engine.queue.leases.failed").inc(expired_failed)
            if spawn_workers:
                for i, worker in enumerate(workers):
                    if worker.is_alive():
                        continue
                    # Workers only exit on the stop file — a dead one
                    # crashed. Replace it a bounded number of times.
                    if restarts >= MAX_WORKER_RESTARTS:
                        continue
                    restarts += 1
                    writer.emit("worker_restart", count=restarts)
                    workers[i] = spawn()
                if workers and all(not w.is_alive() for w in workers):
                    # Restart budget exhausted and nobody is draining:
                    # fail what's left instead of polling forever.
                    for digest in sorted(unresolved):
                        for job in by_digest[digest]:
                            yield JobResult(
                                job_id=job.job_id,
                                ok=False,
                                error="queue workers exhausted restarts",
                                error_type="BrokenWorkerError",
                                meta=dict(job.meta),
                            )
                    unresolved.clear()
                    break
            if not progressed:
                time.sleep(poll_interval)
    finally:
        obs.remove_health_source("queue")
        try:
            stop_path.touch()
        except OSError:
            pass
        for worker in workers:
            worker.join(timeout=10.0)
        for worker in workers:
            if worker.is_alive():  # pragma: no cover - last resort
                worker.terminate()
                worker.join(timeout=1.0)
        # Final sweep: the workers' exit deltas (and, with external
        # workers, anything flushed since the last poll).
        collector.drain()
        if own_queue:
            shutil.rmtree(qdir, ignore_errors=True)
