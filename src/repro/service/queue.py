"""Thread-backed FIFO job queue feeding the run store.

:class:`JobQueue` is the service's execution plane: ``submit`` validates
and persists a spec as a PENDING run, worker threads pop run ids in FIFO
order and drive them through :func:`repro.service.runner.execute_run`.
Each queued run gets a per-run :class:`threading.Event` for cooperative
cancellation (``cancel``), and a wall-clock timeout (the spec's own, or
the queue's default) enforced at job boundaries by the runner.

Runs execute one per worker thread; the parallelism *within* a run comes
from the engine's process pool (``spec.jobs`` / ``batch_jobs``), so a
single-worker queue with ``batch_jobs=4`` already saturates four cores.
The queue owns that pool, a :class:`repro.engine.WorkerPool`: it forks
at the first pool run, keeps its idle workers from one run to the next,
and is closed by :meth:`JobQueue.shutdown`. A run forks a new pool when
the previous one ended unclean (a timed-out job, a cancelled run, a
rebuilt pool) or when its worker count, ``cache_dir`` or the registered
job kinds differ, and a run that finds the pool busy (``workers > 1``)
forks one of its own. The persistent reliability cache is shared by
every run through ``cache_dir``: one SQLite file in WAL mode with a busy
timeout, so concurrent runs and their pool workers queue for its writer
lock instead of failing.
"""

from __future__ import annotations

import queue as _queue
import threading
from typing import Any, Dict, List, Optional

from .. import obs
from ..engine import WorkerPool
from .runner import execute_run
from .store import CANCELLED, PENDING, RUNNING, RunRecord, RunStore

__all__ = ["JobQueue"]


class JobQueue:
    """FIFO queue of stored runs, executed by daemon worker threads."""

    def __init__(
        self,
        store: RunStore,
        workers: int = 1,
        batch_jobs: int = 1,
        cache_dir: Optional[str] = None,
        default_timeout: Optional[float] = None,
    ) -> None:
        self.store = store
        self.workers = max(1, int(workers))
        self.batch_jobs = max(1, int(batch_jobs))
        self.cache_dir = cache_dir
        self.default_timeout = default_timeout
        self._queue: "_queue.Queue[Optional[str]]" = _queue.Queue()
        self._lock = threading.Lock()
        self._cancel_events: Dict[str, threading.Event] = {}
        self._active: Dict[str, str] = {}  # run_id -> worker name
        self._threads: List[threading.Thread] = []
        self._idle = threading.Condition(self._lock)
        self._inflight = 0
        self._stopping = False
        self.pool = WorkerPool()

    # -- lifecycle --------------------------------------------------------

    @property
    def running(self) -> bool:
        return bool(self._threads)

    def start(self) -> "JobQueue":
        if self._threads:
            return self
        self._stopping = False
        for i in range(self.workers):
            thread = threading.Thread(
                target=self._worker_loop, name=f"repro-service-worker-{i}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)
        return self

    def shutdown(self, wait: bool = True, timeout: float = 30.0) -> None:
        """Stop accepting work and (optionally) wait for workers to exit.

        ``wait=True`` blocks until in-flight runs reach a worker boundary.
        Queued-but-unstarted runs stay PENDING in the store — a restart
        with ``--resume`` picks them back up. The stop flag and the
        workers' PENDING->RUNNING claim share one lock (see
        :meth:`_execute`), so after the flag is set here no further run
        can slip into RUNNING: every run is either claimed by a worker
        that will seal it, or still PENDING.

        The pool closes last: its idle workers exit here, and a run
        still in flight shuts its workers down when its batch ends. A
        restarted queue gets a new pool, which forks at its first run.
        """
        with self._lock:
            self._stopping = True
        for _ in self._threads:
            self._queue.put(None)
        if wait:
            for thread in self._threads:
                thread.join(timeout=timeout)
        self._threads = []
        pool, self.pool = self.pool, WorkerPool()
        pool.close()

    # -- submission -------------------------------------------------------

    def submit(self, spec: Dict[str, Any]) -> RunRecord:
        """Validate + persist ``spec`` as a PENDING run and enqueue it."""
        record = self.store.create(spec)
        self._enqueue(record.run_id)
        obs.log("service.job_submitted", run=record.run_id,
                kind=record.kind)
        return record

    def enqueue_existing(self, record: RunRecord) -> None:
        """Queue an already-stored PENDING run (the resume path)."""
        if record.state != PENDING:
            raise ValueError(
                f"run {record.run_id!r} is {record.state}, not {PENDING}"
            )
        self._enqueue(record.run_id)

    def _enqueue(self, run_id: str) -> None:
        with self._lock:
            if self._stopping:
                raise RuntimeError("queue is shutting down")
            self._cancel_events.setdefault(run_id, threading.Event())
            self._inflight += 1
        self._queue.put(run_id)

    # -- cancellation -----------------------------------------------------

    def cancel(self, run_id: str) -> RunRecord:
        """Cancel a PENDING or RUNNING run; terminal runs raise.

        A PENDING run transitions to CANCELLED immediately (the worker
        skips it when dequeued); a RUNNING run stops cooperatively at its
        next job boundary and seals as CANCELLED there.
        """
        record = self.store.load(run_id)
        with self._lock:
            event = self._cancel_events.get(run_id)
        if event is not None:
            event.set()
        if record.state == PENDING:
            record = self.store.transition(record, CANCELLED,
                                           error="cancelled before start")
            from .evidence import pack_evidence

            pack_evidence(record.path, run_id=record.run_id)
        elif record.state != RUNNING:
            raise ValueError(
                f"run {run_id!r} is already {record.state}"
            )
        obs.log("service.job_cancelled", run=run_id, state=record.state)
        return record

    # -- introspection ----------------------------------------------------

    def active(self) -> Dict[str, str]:
        with self._lock:
            return dict(self._active)

    def pending(self) -> int:
        return self._queue.qsize()

    def join(self, timeout: Optional[float] = None) -> bool:
        """Block until every enqueued run reached a terminal state."""
        with self._idle:
            return self._idle.wait_for(
                lambda: self._inflight == 0, timeout=timeout
            )

    # -- the worker loop --------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            run_id = self._queue.get()
            if run_id is None:
                return
            try:
                self._execute(run_id)
            finally:
                with self._idle:
                    self._inflight -= 1
                    self._active.pop(run_id, None)
                    self._cancel_events.pop(run_id, None)
                    self._idle.notify_all()
                self._queue.task_done()

    def _execute(self, run_id: str) -> None:
        # The whole claim — stop-flag check, PENDING check, and the
        # PENDING -> RUNNING transition — happens under one lock. Checking
        # the flag and transitioning separately left a race with a
        # draining shutdown: the worker could pass the check, shutdown
        # could decide everything was PENDING-or-finished and return, and
        # only then would the run flip to RUNNING — stranded, owned by a
        # daemon thread about to die with the process.
        with self._lock:
            if self._stopping:
                return  # drained on shutdown: the run stays PENDING on disk
            try:
                record = self.store.load(run_id)
            except KeyError:
                return  # deleted while queued
            if record.state != PENDING:
                return  # cancelled (or externally resolved) while queued
            record = self.store.transition(record, RUNNING)
            cancel = self._cancel_events.setdefault(run_id, threading.Event())
            self._active[run_id] = threading.current_thread().name
        try:
            execute_run(
                self.store,
                record,
                cancel=cancel,
                jobs=self.batch_jobs,
                cache_dir=self.cache_dir,
                timeout=self.default_timeout,
                pool=self.pool,
            )
        except Exception:  # noqa: BLE001 - the loop must survive anything
            # execute_run seals failures itself; this guards the guard.
            obs.log("service.worker_error", level="error", run=run_id)
