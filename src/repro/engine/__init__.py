"""Parallel design-space exploration engine.

The paper's evaluation — Table II scaling sweeps, the Fig. 3
cost/reliability trade-off, contingency studies — is a pile of
*independent* synthesis and reliability-analysis runs. This subsystem
turns those piles into first-class batches:

* :mod:`repro.engine.jobs` — a declarative :class:`Job` /
  :class:`BatchSpec` layer with builders for requirement sweeps, template
  scaling sweeps, contingency sets, per-sink reliability maps and budget
  bisections;
* :mod:`repro.engine.executor` — :func:`run_batch` /
  :func:`iter_batch`, one dispatch loop (submit, collect, retry, stop)
  over three transports: in-process (``jobs=1``), a
  ``concurrent.futures`` process pool with per-job timeouts, and the
  file queue; every mode yields the same results and journal. A
  :class:`WorkerPool` keeps a pool's workers from one batch to the next;
* :mod:`repro.engine.queue_exec` — the ``executor="queue"`` transport: a
  file-backed work queue with atomic-rename leases, heartbeats and
  digest-level job dedup, drained by local or standalone
  (``repro worker``) worker processes;
* :mod:`repro.engine.cache` — a persistent content-addressed
  :class:`ReliabilityCache` plugged beneath
  :func:`repro.reliability.failure_probability`, so ILP-MR's RELANALYSIS
  loop and sweep re-evaluations never re-analyze a graph twice — a
  bounded in-memory LRU in front of one SQLite file per cache directory;
* :mod:`repro.engine.telemetry` — JSONL run telemetry per batch plus
  roll-up summaries rendered by :func:`repro.report.render_batch_summary`.

``repro.synthesis.explore_tradeoff``, the CLI ``scaling`` / ``tradeoff`` /
``sweep`` commands and the benchmark harness all route through here.
"""

from .cache import CacheStats, ReliabilityCache, problem_digest
from .executor import (
    EXECUTOR_MODES,
    BatchResult,
    WorkerPool,
    execute_job,
    iter_batch,
    register_runner,
    run_batch,
)
from .queue_exec import FileWorkQueue, job_digest, run_worker
from .jobs import (
    BatchSpec,
    Job,
    JobResult,
    budget_bisection,
    contingency_sweep,
    reliability_map,
    requirement_sweep,
    scaling_sweep,
    tradeoff_points,
)
from .telemetry import (
    TelemetryWriter,
    completed_jobs,
    read_events,
    summarize_telemetry,
)

__all__ = [
    "BatchResult",
    "BatchSpec",
    "CacheStats",
    "EXECUTOR_MODES",
    "FileWorkQueue",
    "Job",
    "JobResult",
    "ReliabilityCache",
    "TelemetryWriter",
    "WorkerPool",
    "budget_bisection",
    "completed_jobs",
    "contingency_sweep",
    "execute_job",
    "iter_batch",
    "job_digest",
    "problem_digest",
    "read_events",
    "register_runner",
    "reliability_map",
    "requirement_sweep",
    "run_batch",
    "run_worker",
    "scaling_sweep",
    "summarize_telemetry",
    "tradeoff_points",
]
