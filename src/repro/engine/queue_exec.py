"""File-backed work queue: lease-based execution across processes.

The process pool in :mod:`repro.engine.executor` couples workers to one
parent for the lifetime of a batch. The work queue decouples them: a
coordinator serializes jobs into a shared directory, any number of worker
processes — spawned locally by :func:`iter_queue`, or started by hand via
``repro worker`` on the same filesystem — *lease* jobs out of it, and
results flow back through the same directory. That makes a sweep
restartable (the queue survives the coordinator) and lets several hosts
share one cache-backed queue over a common mount.

The queue is the third transport of the executor's one dispatch loop:
:func:`iter_queue` hands the batch to the same loop that serial and pool
runs use, which journals each job, applies the retry rule and builds the
results, while the transport here enqueues, polls for published records
and fans them out. Workers run each job into the same envelope as the
other modes and retry transient failures themselves under that rule, so
a record they publish is final for the coordinator.

Layout under ``queue_dir``::

    jobs/<digest>.pkl       the pickled :class:`~repro.engine.jobs.Job`
    pending/<digest>.json   claim token ({"attempts": n}); presence = runnable
    leased/<digest>.json    the same token while a worker owns the job;
                            the file's mtime is the worker's heartbeat
    results/<digest>.pkl    the finished record: ``ok``, ``attempts`` and
                            the job's envelope, under ``wrapped`` on
                            success and inline (``error``, ``error_type``,
                            wall time, pid, cache traffic) on failure
    trace.json              the coordinator's :class:`repro.obs.TraceContext`
                            (trace id + parent span uid); workers adopt it
                            so their spans join the coordinator's trace
    spools/worker-<pid>.jsonl   per-worker telemetry spool: span records,
                            metric deltas, and B&B search events,
                            written as they happen and folded back into
                            the run by the coordinator's
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
    MAX_WORKER_RESTARTS,
    _Completion,
    _dispatch,
    _run_shipped,
    _should_retry,
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

        ``spool_backlog`` is bytes workers have spooled that nobody has
        folded yet — with a live collector, relative to its offsets;
        standalone, the total spooled bytes. A fleet that stalls shows
        up as ``active_leases`` flatlining while ``queue_depth`` stays
        high and the backlog stops moving. ``oldest_lease_age`` is the
        seconds since the staleest lease's last heartbeat — a
        ``threshold`` alert rule on ``queue.oldest_lease_age`` against
        the lease ttl reports a worker that died holding its lease.
        """
        counts = self.counts()
        doc: Dict[str, Any] = {
            "queue_depth": counts["pending"],
            "active_leases": counts["leased"],
            "results": counts["results"],
            "spool_backlog": (
                collector or obs.SpoolCollector(self.spool_dir)
            ).backlog(),
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
                    stop: threading.Event) -> None:
    while not stop.wait(interval):
        queue.heartbeat(lease)


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
        args=(queue, lease, heartbeat_interval, stop),
        daemon=True,
    )
    beat.start()
    # The job's telemetry ships before its result is published: the
    # coordinator stops collecting once every result is in, so no
    # result ever outruns its spans and metrics.
    try:
        envelope = _run_shipped(job, spool, trace_ctx)
        if _should_retry(envelope, lease.attempts, retries):
            if obs.enabled():
                obs.counter("engine.queue.retries").inc()
            queue.release(lease)
            return
        if "error_type" in envelope:
            record = dict(envelope, ok=False, attempts=lease.attempts)
        else:
            record = {"ok": True, "attempts": lease.attempts,
                      "wrapped": envelope}
        queue.write_result(lease.digest, record)
    finally:
        stop.set()
        beat.join(timeout=1.0)


def run_worker(
    queue_dir: Union[str, Path],
    cache_dir: Optional[str] = None,
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

    with worker_runtime(cache_dir) as spools:
        spool = spools.open(queue.spool_dir)
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


class _QueueTransport:
    """The file work queue as a dispatch transport (see :func:`iter_queue`).

    Jobs sharing a digest run once and fan back out to every job id that
    asked for it. A published record is final: the worker that wrote it
    already spent its own retry budget, so :func:`_dispatch` never
    resubmits a queue job.
    """

    mode = "queue"

    def __init__(self, batch_name: str, writer: TelemetryWriter,
                 queue_dir: Optional[Union[str, Path]], workers: int,
                 poll_interval: float, **worker_kwargs: Any) -> None:
        self._own_queue = queue_dir is None
        qdir = (
            Path(tempfile.mkdtemp(prefix="repro-queue-"))
            if self._own_queue else Path(queue_dir)
        )
        self._queue = FileWorkQueue(qdir)
        self._stop_path = self._queue.path / _STOP_FILE
        try:
            self._stop_path.unlink()  # a stale stop marker would strand the workers
        except OSError:
            pass
        self._queue.write_trace_context(
            worker_trace_context(batch_name)
            or obs.TraceContext.mint(batch=batch_name)
        )
        self._collector = obs.SpoolCollector(self._queue.spool_dir, writer=writer)
        obs.add_health_source(
            "queue", lambda: self._queue.health(collector=self._collector)
        )
        self._writer = writer
        # run_worker's settings for every worker this coordinator spawns.
        self._worker_kwargs = dict(worker_kwargs, queue_dir=str(qdir),
                                   stop_file=str(self._stop_path))
        self._spawn = workers
        self._ttl = worker_kwargs["lease_ttl"]
        self._max_attempts = worker_kwargs["retries"] + 1
        self._poll_interval = poll_interval
        self._by_digest: Dict[str, List[Job]] = {}
        self._workers: List[Process] = []
        self._restarts = 0

    def submit(self, job: Job, attempts: int) -> None:
        digest, status = self._queue.enqueue(job)
        group = self._by_digest.setdefault(digest, [])
        if group or status in ("duplicate", "cached"):
            self._writer.emit("job_dedup", job=job.job_id, digest=digest[:12],
                              status=status)
            if obs.enabled():
                obs.counter("engine.queue.jobs.deduped").inc()
        elif obs.enabled():
            obs.counter("engine.queue.jobs.enqueued").inc()
        group.append(job)

    def _start_worker(self) -> Process:
        worker = Process(target=run_worker, kwargs=self._worker_kwargs,
                         daemon=True)
        worker.start()
        return worker

    def _replace_dead_workers(self) -> bool:
        """Respawn crashed workers within the budget; False if none live."""
        for i, worker in enumerate(self._workers):
            # Workers only exit on the stop file — a dead one crashed.
            if worker.is_alive() or self._restarts >= MAX_WORKER_RESTARTS:
                continue
            self._restarts += 1
            self._writer.emit("worker_restart", count=self._restarts)
            self._workers[i] = self._start_worker()
        return any(w.is_alive() for w in self._workers)

    def completions(self) -> Iterator[_Completion]:
        self._workers = [self._start_worker() for _ in range(self._spawn)]
        unresolved = set(self._by_digest)
        while unresolved:
            progressed = False
            for digest in sorted(unresolved):
                record = self._queue.load_result(digest)
                if record is None:
                    continue
                # Workers spool telemetry before publishing a result,
                # so folding first guarantees the metrics and spans of
                # this job are home before its JobResult is yielded.
                self._collector.poll()
                unresolved.discard(digest)
                progressed = True
                if obs.enabled():
                    obs.counter("engine.queue.results").inc()
                # Final: the worker already spent the retry budget.
                envelope = dict(record.get("wrapped", record), transient=False)
                attempts = int(record.get("attempts", 1))
                for job in self._by_digest[digest]:
                    yield job, attempts, envelope
                    # The fan-out copies of a deduplicated execution must
                    # not double-count the one worker's cache traffic.
                    envelope = dict(envelope, cache_hits=0, cache_misses=0)
            if not unresolved:
                break
            self._collector.poll()
            requeued, expired_failed = self._queue.requeue_expired(
                self._ttl, max_attempts=self._max_attempts
            )
            if requeued:
                self._writer.emit("lease_expired", requeued=requeued)
                if obs.enabled():
                    obs.counter("engine.queue.leases.expired").inc(requeued)
            if expired_failed and obs.enabled():
                obs.counter("engine.queue.leases.failed").inc(expired_failed)
            if self._workers and not self._replace_dead_workers():
                # Restart budget exhausted and nobody is draining: fail
                # what's left instead of polling forever.
                for digest in sorted(unresolved):
                    for job in self._by_digest[digest]:
                        yield job, 1, {
                            "error": "queue workers exhausted restarts",
                            "error_type": "BrokenWorkerError",
                        }
                return
            if not progressed:
                time.sleep(self._poll_interval)

    def close(self) -> None:
        obs.remove_health_source("queue")
        try:
            self._stop_path.touch()
        except OSError:
            pass
        for worker in self._workers:
            worker.join(timeout=10.0)
        for worker in self._workers:
            if worker.is_alive():  # pragma: no cover - last resort
                worker.terminate()
                worker.join(timeout=1.0)
        # Final sweep: the workers' exit deltas (and, with external
        # workers, anything spooled since the last poll).
        self._collector.drain()
        if self._own_queue:
            shutil.rmtree(self._queue.path, ignore_errors=True)


def iter_queue(
    batch: BatchSpec,
    jobs: int = 2,
    queue_dir: Optional[Union[str, Path]] = None,
    cache_dir: Optional[str] = None,
    retries: int = 1,
    lease_ttl: Optional[float] = None,
    writer: Optional[TelemetryWriter] = None,
    spawn_workers: bool = True,
    poll_interval: float = POLL_INTERVAL,
) -> Iterator[JobResult]:
    """Run ``batch`` through a file work queue, yielding completions.

    Spawns ``jobs`` local worker processes against ``queue_dir`` (a
    throwaway queue when omitted) unless ``spawn_workers=False``, in
    which case external ``repro worker`` processes pointed at the same
    directory are expected to do the draining. Identical jobs collapse
    onto one execution and fan back out to every requesting ``job_id``.
    Workers retry transient failures themselves (``retries``), so a
    record they publish is final for the coordinator.

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
    transport = _QueueTransport(
        batch.name, writer, queue_dir, jobs if spawn_workers else 0,
        poll_interval, cache_dir=cache_dir, retries=retries,
        lease_ttl=lease_ttl if lease_ttl is not None else DEFAULT_LEASE_TTL,
    )
    yield from _dispatch(batch, transport, retries, writer)
