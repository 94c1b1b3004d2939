"""Batch execution: one dispatch loop over three transports.

``run_batch(batch, jobs=4, cache_dir=..., telemetry=...)`` is the single
entry point every sweep routes through. One generator, :func:`_dispatch`,
journals each job's start, submits it, resubmits a transient failure
while the retry budget lasts, builds every :class:`JobResult` and
journals its end. What differs between executor modes lives in a
transport with ``submit``, ``completions`` and ``close``:

* ``serial`` (the default for ``jobs<=1``) runs each job in this
  process — no pool, no pickling, identical results — and runs a retry
  next, so results come back in submission order;
* ``pool`` (the default for ``jobs>1``) fans the batch out over a
  ``concurrent.futures`` process pool, enforces per-job timeouts and
  rebuilds a broken pool;
* ``queue`` drains the batch through the file-backed work queue of
  :mod:`repro.engine.queue_exec`.

Every mode runs a job through :func:`_worker_run`, which returns one
envelope — the value, or the error's message, type and whether it is
transient — with the job's wall time, pid and cache traffic, so a result
looks the same whichever transport carried it.

A :class:`WorkerPool` owns the process pool: the executor and what its
workers inherited at fork (worker count, absolute ``cache_dir``, runner
generation). ``run_batch(..., pool=)`` takes a caller's pool, which
keeps its idle workers from one clean batch to the next; the service's
:class:`repro.service.JobQueue` keeps one for its life. Without a pool
argument a pool batch makes a batch-scoped one, so workers live for one
batch. A batch that times a job out, is stopped, or rebuilds a broken
pool shuts its executor down instead of handing it back, and a pool
whose workers inherited other values (or one of whose workers died
while idle) is replaced by a fresh fork.

Pool workers and queue workers share one runtime: :func:`worker_runtime`
sets a worker process up once for its life, and each job runs through
one wrapper that ships the job's spans and metrics delta to the worker's
telemetry spool before its envelope goes back. A pool job carries its
batch's spool directory, trace context and log fields, and a worker
opens a spool for a batch at that batch's first job. The coordinator
folds the spools with a :class:`repro.obs.SpoolCollector` before
yielding each result, so worker telemetry has one route home.

Failures are contained per job: a failed job yields
``JobResult(ok=False, ...)`` instead of poisoning the batch, and a
transient one (``OSError``, a timeout, a broken pool) first gets up to
``retries`` more attempts. ``timeout`` applies in pool mode only (a
serial loop cannot preempt a running engine); a timed-out job's worker
runs it to completion in the background and its result is discarded.
"""

from __future__ import annotations

import contextvars
import os
import shutil
import signal
import tempfile
import threading
import time
import traceback
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from multiprocessing.util import Finalize
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple, Union

from .. import obs
from ..reliability.exact import get_reliability_cache, reliability_cache
from .cache import ReliabilityCache
from .jobs import BatchSpec, Job, JobResult
from .telemetry import TelemetryWriter

__all__ = [
    "BatchResult",
    "EXECUTOR_MODES",
    "WorkerPool",
    "run_batch",
    "iter_batch",
    "execute_job",
    "register_runner",
]

#: Exception types worth retrying: environmental, not semantic.
TRANSIENT_EXCEPTIONS = (OSError, TimeoutError, BrokenProcessPool)

#: How many crashed workers (a broken pool, a dead queue worker) a batch
#: replaces before it fails the jobs still outstanding.
MAX_WORKER_RESTARTS = 3

#: ``(job, attempts, envelope)``: one finished attempt, as a transport
#: hands it to :func:`_dispatch`.
_Completion = Tuple[Job, int, Dict[str, Any]]


# ---------------------------------------------------------------------------
# Job runners


def _run_synthesize(job: Job) -> Any:
    from ..synthesis.algorithms import synthesize

    return synthesize(job.payload["spec"], job.payload["algorithm"],
                      **dict(job.payload.get("options", {})))


def _run_reliability(job: Job) -> Any:
    from ..reliability import failure_probability, problem_from_architecture
    from ..reliability.montecarlo import failure_probability_mc

    payload = job.payload
    if "problem" in payload:
        # A bare ReliabilityProblem (verify corpora, cache benchmarks)
        # analyzed directly — no architecture expansion involved.
        return failure_probability(payload["problem"], method=payload["method"])
    if payload["method"] == "mc":
        problem = problem_from_architecture(payload["architecture"], payload["sink"])
        return failure_probability_mc(
            problem, samples=payload["samples"], seed=payload["seed"]
        )
    return failure_probability(
        payload["architecture"], sink=payload["sink"], method=payload["method"]
    )


def _run_noop(job: Job) -> Any:
    """Plumbing test kind: optionally nap, then echo the payload value.

    Exists so executor/queue mechanics (leases, dedup, throughput
    benchmarks) can be exercised without paying for real synthesis.
    """
    nap = job.payload.get("sleep_s", 0.0)
    if nap:
        time.sleep(nap)
    return job.payload.get("value")


def _run_budget(job: Job) -> Any:
    from ..synthesis.pareto import most_reliable_under_budget

    return most_reliable_under_budget(
        job.payload["spec"],
        job.payload["budget"],
        algorithm=job.payload["algorithm"],
        **dict(job.payload.get("options", {})),
    )


_RUNNERS: Dict[str, Callable[[Job], Any]] = {
    "synthesize": _run_synthesize,
    "reliability": _run_reliability,
    "budget": _run_budget,
    "noop": _run_noop,
}

#: Modules whose import registers a runner for the keyed job kind. Pool
#: workers execute jobs in a fresh interpreter that has not imported the
#: registering module, so ``execute_job`` resolves these lazily.
_KIND_PLUGINS: Dict[str, str] = {
    "verify": "repro.verify",
}


#: Bumped by :func:`register_runner`: workers forked before a
#: registration do not know the new kind, so a :class:`WorkerPool` does
#: not hand their executor to a later batch.
_RUNNER_GENERATION = 0


def register_runner(kind: str, fn: Callable[[Job], Any]) -> Callable[[Job], Any]:
    """Register a runner for a custom job ``kind`` (extension point)."""
    global _RUNNER_GENERATION
    _RUNNERS[kind] = fn
    _RUNNER_GENERATION += 1
    return fn


def execute_job(job: Job) -> Any:
    """Run one job in the current process and return its raw value."""
    runner = _RUNNERS.get(job.kind)
    if runner is None and job.kind in _KIND_PLUGINS:
        import importlib

        importlib.import_module(_KIND_PLUGINS[job.kind])
        runner = _RUNNERS.get(job.kind)
    if runner is None:
        raise ValueError(f"unknown job kind {job.kind!r}")
    return runner(job)


# ---------------------------------------------------------------------------
# Worker side


def _failure(exc: BaseException, **fields: Any) -> Dict[str, Any]:
    """The envelope of a failed attempt, classified where it was caught."""
    return {
        "error": str(exc) or type(exc).__name__,
        "error_type": type(exc).__name__,
        "transient": isinstance(exc, TRANSIENT_EXCEPTIONS),
        **fields,
    }


def _worker_run(job: Job) -> Dict[str, Any]:
    """Execute ``job`` and return its envelope; a failure is not raised.

    The envelope holds ``value`` on success, or ``error``,
    ``error_type`` and ``transient`` on failure, and in both cases the
    job's wall time, pid and cache traffic. A success is any envelope
    without ``error_type``.

    The ``engine.job`` span materializes when a tracer is active in this
    process: the batch's own in serial mode, or the per-job tracer that
    :func:`_run_shipped` installs in a worker. Metrics tick in every
    mode (the batch and the worker runtime both register observers).
    """
    cache = get_reliability_cache()
    before = (cache.stats.hits, cache.stats.misses) if cache is not None else (0, 0)
    start = time.perf_counter()
    try:
        with obs.span("engine.job", job=job.job_id, kind=job.kind):
            envelope = {"value": execute_job(job)}
    except Exception as exc:
        envelope = _failure(exc)
        # The traceback goes to the structured log, not into the result,
        # which must not depend on where the code is installed.
        obs.log("engine.job_error", level="warning", job=job.job_id,
                error=envelope["error_type"],
                traceback=traceback.format_exc(limit=3))
    wall = time.perf_counter() - start
    if obs.enabled() and "error_type" not in envelope:
        obs.counter("engine.jobs.completed").inc()
        obs.histogram("engine.job.seconds").observe(wall)
    after = (cache.stats.hits, cache.stats.misses) if cache is not None else (0, 0)
    envelope.update(
        wall_time=wall,
        worker_pid=os.getpid(),
        cache_hits=after[0] - before[0],
        cache_misses=after[1] - before[1],
    )
    return envelope


class _SpoolSlot:
    """The spool a worker process writes to: one per spool directory.

    A queue worker opens one for its life; a pool worker, which may
    serve many batches, opens one per batch, at that batch's first job.
    The file is opened while the batch's directory exists, so a late
    write never recreates a directory its coordinator removed.
    """

    def __init__(self) -> None:
        self.spool: Optional[obs.TelemetrySpool] = None

    def open(self, spool_dir: Union[str, Path]) -> "obs.TelemetrySpool":
        path = Path(spool_dir) / f"worker-{os.getpid()}.jsonl"
        if self.spool is None or self.spool.path != path:
            self.close()
            self.spool = obs.TelemetrySpool(path)
        return self.spool

    def close(self) -> None:
        spool, self.spool = self.spool, None
        if spool is not None:
            spool.close()


@contextmanager
def worker_runtime(cache_dir: Optional[str]) -> Iterator[_SpoolSlot]:
    """Set up one pool or queue worker process for its life.

    Installs the shared reliability cache, drops a tracer and open-span
    stack inherited through fork (a worker traces each job under the
    coordinator's context instead, see :func:`_run_shipped`), observes
    metrics, and streams B&B search events into the spool the yielded
    slot holds. On exit the cache closes and that spool ships a final
    metrics delta.
    """
    from ..ilp.search_events import capture_search_events
    from ..reliability.exact import set_reliability_cache

    cache = ReliabilityCache(cache_dir)
    previous = set_reliability_cache(cache)
    obs.set_tracer(None)
    obs.reset_span_stack()
    obs.add_observer()
    pid = os.getpid()
    slot = _SpoolSlot()

    def bnb_event(ev: Dict[str, Any]) -> None:
        if slot.spool is not None:
            slot.spool.emit("bnb_event", worker_pid=pid, **ev)

    try:
        with capture_search_events(bnb_event):
            yield slot
    finally:
        set_reliability_cache(previous)
        cache.close()
        obs.remove_observer()
        slot.close()


def _run_shipped(job: Job, spool: "obs.TelemetrySpool",
                 trace_ctx: Optional["obs.TraceContext"]) -> Dict[str, Any]:
    """Run ``job`` in a worker, then ship its telemetry to ``spool``.

    Under a trace context the job runs under its own tracer, whose root
    span parents to the coordinator's span. The spans and the job's
    metrics delta are spooled before the envelope is returned: the
    coordinator folds the spool as each result arrives, so no result
    outruns its telemetry.
    """
    tracer: Optional[obs.Tracer] = None
    try:
        if trace_ctx is None:
            return _worker_run(job)
        with obs.trace_context(trace_ctx), obs.tracing() as tracer:
            return _worker_run(job)
    finally:
        for s in tracer.spans if tracer is not None else ():
            spool.emit("span", **obs.span_record(s))
        spool.ship_metrics(job=job.job_id)


#: A pool worker's spool slot, set by :func:`_worker_init`.
_POOL_SPOOLS = _SpoolSlot()


def _worker_init(cache_dir: Optional[str]) -> None:
    """Pool initializer: enter the worker runtime for the worker's life."""
    global _POOL_SPOOLS
    # A worker dies on SIGTERM (its pool's teardown of a broken pool),
    # whatever handler the parent had installed (``repro serve`` maps
    # SIGTERM to Ctrl-C).
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    runtime = ExitStack()
    _POOL_SPOOLS = runtime.enter_context(worker_runtime(cache_dir))
    # atexit never runs in a fork-started worker; multiprocessing's exit
    # hook does, so the cache still closes and the final ship lands.
    Finalize(None, runtime.close, exitpriority=0)


def _pool_run(job: Job, spool_dir: str,
              trace_ctx: Optional["obs.TraceContext"],
              log_fields: Dict[str, Any]) -> Dict[str, Any]:
    """Run one pool job under its batch's spool, trace and log fields.

    The job runs in an empty ``contextvars`` context: its worker may
    outlive the batch whose thread forked it, so nothing that thread had
    set (log fields, a trace context, open spans) may follow a later
    batch's job.
    """
    def run() -> Dict[str, Any]:
        with obs.log_context(**log_fields):
            return _run_shipped(job, _POOL_SPOOLS.open(spool_dir), trace_ctx)

    return contextvars.Context().run(run)


def worker_trace_context(batch_name: str) -> Optional["obs.TraceContext"]:
    """The trace context a coordinator hands its workers, or ``None``.

    Worker spans parent under the live span (the batch span when a
    tracer is on); an active context (a service run's) keeps its trace
    id and correlation fields. With neither there is no trace to join.
    """
    ctx = obs.current_trace_context()
    cur = obs.current_span()
    if cur is None:
        return ctx
    if ctx is not None:
        return ctx.reparent(cur)
    return obs.TraceContext.from_span(cur, batch=batch_name)


# ---------------------------------------------------------------------------
# Dispatch


def _should_retry(envelope: Dict[str, Any], attempts: int, retries: int) -> bool:
    """The one retry rule: a transient failure while the budget lasts."""
    return bool(envelope.get("transient")) and attempts <= retries


def _job_result(job: Job, envelope: Dict[str, Any], attempts: int) -> JobResult:
    """The one builder of a :class:`JobResult`, from a final envelope."""
    return JobResult(
        job_id=job.job_id,
        ok="error_type" not in envelope,
        value=envelope.get("value"),
        error=envelope.get("error"),
        error_type=envelope.get("error_type"),
        attempts=attempts,
        wall_time=envelope.get("wall_time", 0.0),
        worker_pid=envelope.get("worker_pid"),
        cache_hits=envelope.get("cache_hits", 0),
        cache_misses=envelope.get("cache_misses", 0),
        meta=dict(job.meta),
    )


def _dispatch(batch: BatchSpec, transport: Any, retries: int,
              writer: TelemetryWriter) -> Iterator[JobResult]:
    """The one dispatch loop every executor mode runs.

    Journals ``job_start`` and submits every job; then, for each
    ``(job, attempts, envelope)`` the transport completes, either
    resubmits the job (journaling ``job_retry``) or builds its result,
    journals ``job_end`` and yields it. Closing this iterator closes the
    transport, which is how ``should_stop``, timeouts and exhausted
    restarts tear a batch down.
    """
    try:
        for job in batch.jobs:
            writer.emit("job_start", job=job.job_id, kind=job.kind,
                        mode=transport.mode)
            transport.submit(job, 1)
        for job, attempts, envelope in transport.completions():
            if _should_retry(envelope, attempts, retries):
                writer.emit("job_retry", job=job.job_id, attempt=attempts,
                            error=envelope["error_type"])
                transport.submit(job, attempts + 1)
                continue
            result = _job_result(job, envelope, attempts)
            writer.emit(
                "job_end",
                job=result.job_id,
                ok=result.ok,
                attempts=result.attempts,
                wall_time=round(result.wall_time, 6),
                cache_hits=result.cache_hits,
                cache_misses=result.cache_misses,
                error=result.error_type,
            )
            yield result
    finally:
        transport.close()


class _InlineTransport:
    """Runs each job in this process; a resubmitted job runs next."""

    mode = "serial"

    def __init__(self, writer: TelemetryWriter,
                 cache_dir: Optional[str]) -> None:
        from ..ilp.search_events import capture_search_events

        self._runnable: deque = deque()
        self._scope = ExitStack()
        # Reuse an already-installed cache (e.g. inside a pool worker
        # running a nested batch); otherwise install one for this batch.
        if get_reliability_cache() is None:
            cache = ReliabilityCache(cache_dir)
            self._scope.callback(cache.close)
            self._scope.enter_context(reliability_cache(cache))
        # With durable telemetry, stream the B&B search tree of every
        # solve into the journal — that is what ``repro tree`` and the
        # service's /events tail render.
        if writer.path:
            self._scope.enter_context(capture_search_events(
                lambda ev: writer.emit("bnb_event", **ev)
            ))

    def submit(self, job: Job, attempts: int) -> None:
        if attempts > 1:
            self._runnable.appendleft((job, attempts))
        else:
            self._runnable.append((job, attempts))

    def completions(self) -> Iterator[_Completion]:
        while self._runnable:
            job, attempts = self._runnable.popleft()
            yield job, attempts, _worker_run(job)

    def close(self) -> None:
        self._scope.close()


def _fork_pool(workers: int, cache_dir: Optional[str]) -> ProcessPoolExecutor:
    return ProcessPoolExecutor(max_workers=workers, initializer=_worker_init,
                               initargs=(cache_dir,))


def _workers_alive(executor: ProcessPoolExecutor) -> bool:
    """False once a worker of ``executor`` has died.

    ``ProcessPoolExecutor`` has no public health check. Its manager
    thread flags it ``_broken`` when it sees a worker die, and a worker
    killed a moment ago may not be flagged yet, so the worker processes
    are polled first and the flag read after.
    """
    processes = getattr(executor, "_processes", None) or {}
    alive = all(p.is_alive() for p in list(processes.values()))
    return alive and not getattr(executor, "_broken", False)


class WorkerPool:
    """A process pool kept across batches by the caller that owns it.

    Holds at most one idle ``ProcessPoolExecutor`` with what its workers
    inherited at fork: the worker count, the absolute ``cache_dir`` and
    the runner generation that :func:`register_runner` bumps. A pool
    batch takes the executor (:meth:`take`) when all three match its own
    and its workers are alive, and forks a new one otherwise; forking is
    lazy, so a pool no batch has taken holds no process. The batch hands
    the executor back (:meth:`release`) only when it ended clean. The
    spool directory, trace context and log fields ride on each submit
    instead.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._executor: Optional[ProcessPoolExecutor] = None
        self._inherited: Optional[Tuple[int, Optional[str], int]] = None
        self._taken = False
        self._closed = False

    def take(self, workers: int, cache_dir: Optional[str]
             ) -> Optional[ProcessPoolExecutor]:
        """An executor for one batch; ``None`` while another batch holds
        this pool, or once it is closed."""
        cache_dir = os.path.abspath(cache_dir) if cache_dir else None
        inherited = (workers, cache_dir, _RUNNER_GENERATION)
        with self._lock:
            if self._taken or self._closed:
                return None
            self._taken = True
            held, self._executor = self._executor, None
            if (held is not None and inherited == self._inherited
                    and _workers_alive(held)):
                return held
            self._inherited = inherited
        if held is not None:
            held.shutdown(wait=True)
        return _fork_pool(workers, cache_dir)

    def release(self, executor: Optional[ProcessPoolExecutor]) -> None:
        """End a batch's hold. ``executor`` is the one it took, with idle
        workers, kept for the next batch; ``None`` when the batch shut
        its executor down."""
        with self._lock:
            self._taken = False
            if not self._closed:
                self._executor, executor = executor, None
        if executor is not None:
            executor.shutdown(wait=True)

    def close(self) -> None:
        """Shut the held executor down; no batch takes this pool again."""
        with self._lock:
            self._closed = True
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)


class _PoolTransport:
    """A process pool: per-job timeouts, spool folding, pool rebuilds.

    A job is resubmitted only in response to its own completion, so it
    is never in flight twice.
    """

    mode = "pool"

    def __init__(self, batch_name: str, jobs: int, timeout: Optional[float],
                 writer: TelemetryWriter, cache_dir: Optional[str],
                 pool: Optional[WorkerPool]) -> None:
        # Workers spool their telemetry into a per-batch directory that
        # the collector folds home. With no tracer and no trace context
        # active, workers skip span collection. Each job carries what a
        # worker that outlives this batch must not keep.
        self._spool_dir = tempfile.mkdtemp(prefix="repro-pool-")
        self._collector = obs.SpoolCollector(self._spool_dir, writer=writer)
        self._batch_args = (self._spool_dir, worker_trace_context(batch_name),
                            obs.current_log_context())
        self._workers = jobs
        self._cache_dir = os.path.abspath(cache_dir) if cache_dir else None
        self._timeout = timeout
        self._writer = writer
        # future -> (job, attempts, submitted_at)
        self._pending: Dict[Any, Tuple[Job, int, float]] = {}
        self._restarts = 0
        # Set once a worker may still be busy with a job nobody waits for.
        self._abandoned = False
        # The caller's pool, or a batch-scoped one when there is none or
        # another batch holds it.
        self._owner = pool
        executor = pool.take(jobs, self._cache_dir) if pool is not None else None
        if executor is None:
            self._owner = WorkerPool()
            executor = self._owner.take(jobs, self._cache_dir)
        self._scoped = self._owner is not pool
        self._executor = executor

    def submit(self, job: Job, attempts: int) -> None:
        try:
            fut = self._executor.submit(_pool_run, job, *self._batch_args)
        except BrokenProcessPool as exc:
            # The pool broke under another job: park this one on a failed
            # future, so the rebuild below resubmits it with the rest.
            fut = Future()
            fut.set_exception(exc)
        self._pending[fut] = (job, attempts, time.monotonic())

    def _complete(self, job: Job, attempts: int,
                  envelope: Dict[str, Any]) -> _Completion:
        # The worker spooled the job's telemetry before returning.
        self._collector.poll()
        return job, attempts, envelope

    def completions(self) -> Iterator[_Completion]:
        poll = 0.25 if self._timeout is not None else None
        while self._pending:
            done, _ = wait(list(self._pending), timeout=poll,
                           return_when=FIRST_COMPLETED)
            for fut in done:
                exc = fut.exception()
                if isinstance(exc, BrokenProcessPool):
                    continue  # handled wholesale below
                job, attempts, _ = self._pending.pop(fut)
                envelope = fut.result() if exc is None else _failure(exc)
                yield self._complete(job, attempts, envelope)
            if any(f.done() and isinstance(f.exception(), BrokenProcessPool)
                   for f in self._pending):
                yield from self._rebuild()
            elif self._timeout is not None:
                yield from self._expire()

    def _rebuild(self) -> Iterator[_Completion]:
        """Replace a broken pool and resubmit its in-flight jobs.

        The resubmissions bump the attempt count but spend no retry: the
        pool broke, not the job. Past ``MAX_WORKER_RESTARTS`` the
        in-flight jobs fail instead.
        """
        self._restarts += 1
        self._executor.shutdown(wait=False, cancel_futures=True)
        exhausted = self._restarts > MAX_WORKER_RESTARTS
        if exhausted:
            self._abandoned = True
        else:
            self._writer.emit("pool_restart", count=self._restarts)
            self._executor = _fork_pool(self._workers, self._cache_dir)
        inflight, self._pending = self._pending, {}
        for fut, (job, attempts, _) in inflight.items():
            if fut.done() and fut.exception() is None:
                # The pool broke *around* a completed job: report its
                # finished result instead of running it again.
                yield self._complete(job, attempts, fut.result())
            elif exhausted:
                yield job, attempts, _failure(
                    BrokenProcessPool("pool restarts exhausted"),
                    transient=False,
                )
            else:
                self.submit(job, attempts + 1)

    def _expire(self) -> Iterator[_Completion]:
        """Cancel every attempt past the per-job timeout."""
        now = time.monotonic()
        for fut, (job, attempts, submitted) in list(self._pending.items()):
            if fut.done() or now - submitted <= self._timeout:
                continue
            # A running job cannot be cancelled: its worker finishes it
            # in the background and the result is discarded.
            fut.cancel()
            del self._pending[fut]
            self._abandoned = True
            self._writer.emit("job_timeout", job=job.job_id,
                              timeout=self._timeout)
            yield job, attempts, _failure(
                TimeoutError(f"job exceeded {self._timeout}s"),
                wall_time=self._timeout,
            )

    def close(self) -> None:
        # A batch that ended clean hands its idle workers back to the
        # pool's owner; a batch-scoped owner then shuts them down and
        # waits, which lands their exit ships before the final fold. A
        # worker still busy with a timed-out job, or with a stopped
        # batch's job, is not waited for, and a rebuilt pool is not
        # handed back.
        idle = not (self._pending or self._abandoned)
        if idle and not self._restarts:
            self._owner.release(self._executor)
        else:
            self._executor.shutdown(wait=idle, cancel_futures=True)
            self._owner.release(None)
        if self._scoped:
            self._owner.close()
        self._collector.drain()
        shutil.rmtree(self._spool_dir, ignore_errors=True)


# ---------------------------------------------------------------------------
# Batch API


@dataclass
class BatchResult:
    """All job results of one batch, in the batch's submission order."""

    name: str
    results: List[JobResult] = field(default_factory=list)
    wall_time: float = 0.0
    jobs_used: int = 1
    telemetry_path: Optional[str] = None
    #: True when a ``should_stop`` hook aborted the batch early: the
    #: results list then covers only the jobs that completed first.
    stopped: bool = False

    @property
    def cache_hits(self) -> int:
        return sum(r.cache_hits for r in self.results)

    @property
    def cache_misses(self) -> int:
        return sum(r.cache_misses for r in self.results)

    @property
    def num_failed(self) -> int:
        return sum(1 for r in self.results if not r.ok)

    def by_id(self) -> Dict[str, JobResult]:
        return {r.job_id: r for r in self.results}

    def values(self) -> List[Any]:
        """Raw job values in submission order; raises on any failed job."""
        return [r.unwrap() for r in self.results]

    def summary(self) -> str:
        parts = [
            f"batch {self.name!r}: {len(self.results)} jobs"
            f" ({self.num_failed} failed) in {self.wall_time:.2f}s"
            f" with jobs={self.jobs_used}"
        ]
        lookups = self.cache_hits + self.cache_misses
        if lookups:
            parts.append(
                f"cache: {self.cache_hits} hits / {self.cache_misses} misses"
                f" ({100.0 * self.cache_hits / lookups:.0f}% hit rate)"
            )
        return "; ".join(parts)


#: Executor modes accepted by :func:`iter_batch` / :func:`run_batch`.
EXECUTOR_MODES = ("serial", "pool", "queue")


def iter_batch(
    batch: BatchSpec,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    retries: int = 1,
    timeout: Optional[float] = None,
    writer: Optional[TelemetryWriter] = None,
    executor: Optional[str] = None,
    queue_dir: Optional[str] = None,
    pool: Optional[WorkerPool] = None,
) -> Iterator[JobResult]:
    """Execute ``batch`` and yield :class:`JobResult` as each completes.

    ``executor=None`` picks ``"serial"`` for ``jobs<=1`` and ``"pool"``
    otherwise (the historical behaviour); ``"queue"`` routes the batch
    through the file-backed work queue (:mod:`repro.engine.queue_exec`),
    spawning ``jobs`` local worker processes against ``queue_dir``.
    Pool and queue modes yield in completion order; serial mode in
    submission order. A pool batch runs on ``pool``'s workers when it
    can take them (see :class:`WorkerPool`), else on a batch-scoped pool.
    """
    mode = executor if executor is not None else ("serial" if jobs <= 1 else "pool")
    if mode not in EXECUTOR_MODES:
        raise ValueError(
            f"unknown executor {mode!r}; expected one of {EXECUTOR_MODES}"
        )
    writer = writer if writer is not None else TelemetryWriter(None)
    # Observe metrics for the batch's duration: serial jobs tick the
    # parent registry directly; workers observe in their own runtime and
    # spool deltas home.
    obs.add_observer()
    try:
        if mode == "queue":
            from .queue_exec import iter_queue

            yield from iter_queue(batch, jobs=max(jobs, 1),
                                  queue_dir=queue_dir, cache_dir=cache_dir,
                                  retries=retries, lease_ttl=timeout,
                                  writer=writer)
            return
        transport = (
            _InlineTransport(writer, cache_dir) if mode == "serial"
            else _PoolTransport(batch.name, max(jobs, 1), timeout, writer,
                                cache_dir, pool)
        )
        yield from _dispatch(batch, transport, retries, writer)
    finally:
        obs.remove_observer()


def run_batch(
    batch: BatchSpec,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    telemetry: Optional[str] = None,
    retries: int = 1,
    timeout: Optional[float] = None,
    on_result: Optional[Callable[[JobResult], None]] = None,
    should_stop: Optional[Callable[[], bool]] = None,
    executor: Optional[str] = None,
    queue_dir: Optional[str] = None,
    pool: Optional[WorkerPool] = None,
) -> BatchResult:
    """Execute a whole batch and collect results in submission order.

    Parameters
    ----------
    jobs:
        Worker processes; ``1`` runs serially in-process.
    cache_dir:
        Directory for the persistent reliability cache shared by all
        workers and all future runs; ``None`` keeps caching in-memory and
        per-process.
    telemetry:
        Path of a JSONL event stream to append this batch's life cycle to.
    retries:
        Extra attempts granted to jobs failing with a transient error.
    timeout:
        Per-job wall-clock limit in seconds (pool mode); in queue mode
        it becomes the lease TTL after which an unheartbeated job is
        re-queued.
    executor:
        ``"serial"``, ``"pool"``, or ``"queue"``; ``None`` keeps the
        historical jobs-based choice (serial for ``jobs<=1``, else pool).
    queue_dir:
        Queue-mode only: directory holding the shared work queue; a
        temporary queue is created (and discarded) when omitted.
    pool:
        Pool-mode only: a :class:`WorkerPool` whose workers the batch
        takes and, when it ends clean, hands back for the next batch;
        without one the batch forks and reaps its own.
    on_result:
        Called with each :class:`JobResult` the moment it completes (in
        completion order) — the service journals results through this so
        a crash loses at most the in-flight job.
    should_stop:
        Polled before the first job and after each completion; returning
        True aborts the remainder of the batch (pool futures are
        cancelled) and marks the outcome ``stopped=True`` — cooperative
        cancellation and deadline enforcement for the service queue.
    """
    writer = TelemetryWriter(telemetry, batch=batch.name)
    order = {job.job_id: i for i, job in enumerate(batch.jobs)}
    start = time.perf_counter()
    writer.emit(
        "batch_start", name=batch.name, jobs=len(batch.jobs),
        workers=jobs, cache_dir=cache_dir,
    )
    batch_span = obs.span("engine.batch", name=batch.name,
                          jobs=len(batch.jobs), workers=jobs)
    run = obs.run_registry().start(
        "batch", name=batch.name, total=len(batch.jobs), workers=jobs,
        done=0, failed=0,
    )
    outcome: Optional[BatchResult] = None
    try:
        with obs.log_context(run=run.run_id, batch=batch.name):
            obs.log("engine.batch_start", jobs=len(batch.jobs), workers=jobs)
            results: List[JobResult] = []
            done = failed = 0
            stopped = should_stop is not None and should_stop()
            if not stopped:
                for result in iter_batch(
                    batch, jobs=jobs, cache_dir=cache_dir, retries=retries,
                    timeout=timeout, writer=writer, executor=executor,
                    queue_dir=queue_dir, pool=pool,
                ):
                    results.append(result)
                    done += 1
                    failed += 0 if result.ok else 1
                    run.update(done=done, failed=failed)
                    obs.log(
                        "engine.job_end",
                        level="info" if result.ok else "warning",
                        job=result.job_id, ok=result.ok,
                        wall_time=round(result.wall_time, 6),
                        error=result.error_type,
                    )
                    if on_result is not None:
                        on_result(result)
                    if should_stop is not None and should_stop():
                        stopped = True
                        break  # iter_batch's finally tears the pool down
            results.sort(key=lambda r: order.get(r.job_id, len(order)))
            wall = time.perf_counter() - start
            outcome = BatchResult(
                name=batch.name,
                results=results,
                wall_time=wall,
                jobs_used=jobs,
                telemetry_path=str(writer.path) if writer.path else None,
                stopped=stopped,
            )
            writer.emit(
                "batch_end",
                name=batch.name,
                wall_time=round(wall, 6),
                ok=len(results) - outcome.num_failed,
                failed=outcome.num_failed,
                cache_hits=outcome.cache_hits,
                cache_misses=outcome.cache_misses,
                stopped=stopped,
            )
            batch_span.set_attr("failed", outcome.num_failed)
            batch_span.set_attr("cache_hits", outcome.cache_hits)
            batch_span.set_attr("cache_misses", outcome.cache_misses)
            obs.log(
                "engine.batch_end", wall_time=round(wall, 6),
                failed=outcome.num_failed,
            )
            return outcome
    finally:
        if outcome is None:
            run.finish(status="error")
        else:
            status = "failed" if outcome.num_failed else "done"
            run.finish(
                status="stopped" if outcome.stopped else status,
                wall_time=round(outcome.wall_time, 6),
            )
        batch_span.__exit__(None, None, None)
        writer.close()
        if writer.path is not None:
            from ..obs import warehouse as _warehouse

            _warehouse.maybe_auto_ingest(writer.path)
