"""``repro.service`` — synthesis as a service.

The service plane (ROADMAP item 1) that turns one-shot CLI invocations
into durable, queryable, resumable *runs*:

* :mod:`repro.service.specs` — JSON-schema-validated job specs
  (``synthesize`` / ``sweep`` / ``verify``), normalized and
  content-addressed, with batch builders shared with the CLI;
* :mod:`repro.service.store` — the durable run store under
  ``.archex/runs/<run-id>/``: state-machine manifests
  (``PENDING -> RUNNING -> DONE/FAILED/CANCELLED``), environment and
  seed capture, atomic writes, a per-job results journal;
* :mod:`repro.service.evidence` — SHA-256 hash manifests sealing every
  terminal run into a verifiable *evidence pack* (``pack`` / ``verify``
  with tamper detection);
* :mod:`repro.service.queue` / :mod:`repro.service.runner` — a
  thread-backed FIFO queue with per-run cancel and timeout, executing
  batches through :func:`repro.engine.run_batch` and journaling each
  result for crash durability;
* :mod:`repro.service.api` — :class:`ServiceServer`, the
  :class:`repro.obs.ObsServer` extended with ``POST /api/jobs``,
  ``GET /api/jobs/<id>[/result|/artifacts/<name>]``,
  ``DELETE /api/jobs/<id>`` and ``GET /api/runs``;
* :mod:`repro.service.resume` — ``serve --resume`` crash recovery that
  requeues interrupted runs and replays journaled results instead of
  recomputing them.

Programmatic quick start (the CLI's ``repro serve``)::

    from repro.service import JobQueue, RunStore, ServiceServer

    store = RunStore(".archex/runs")
    queue = JobQueue(store, cache_dir=".archex/cache").start()
    with ServiceServer(queue, port=8181) as server:
        ...  # POST specs to server.url + "/api/jobs"
    queue.shutdown()
"""

from .api import MAX_BODY_BYTES, ServiceServer
from .evidence import (
    EvidenceReport,
    MANIFEST_FILENAME,
    file_digest,
    pack_evidence,
    read_manifest,
    verify_evidence,
)
from .queue import JobQueue
from .resume import find_interrupted, resume_interrupted
from .runner import (
    canonical_results,
    canonical_value,
    execute_run,
    result_document,
)
from .specs import (
    JOB_KINDS,
    PARAM_SCHEMAS,
    SPEC_SCHEMA,
    SpecError,
    build_batch,
    normalize_job_spec,
    register_batch_builder,
    spec_digest,
    validate_job_spec,
    validate_schema,
)
from .store import (
    CANCELLED,
    DEFAULT_RUNS_DIR,
    DONE,
    FAILED,
    PENDING,
    RUNNING,
    TERMINAL_STATES,
    TRANSITIONS,
    RunRecord,
    RunStore,
    StateError,
    capture_environment,
)

__all__ = [
    "CANCELLED",
    "DEFAULT_RUNS_DIR",
    "DONE",
    "EvidenceReport",
    "FAILED",
    "JOB_KINDS",
    "JobQueue",
    "MANIFEST_FILENAME",
    "MAX_BODY_BYTES",
    "PARAM_SCHEMAS",
    "PENDING",
    "RUNNING",
    "RunRecord",
    "RunStore",
    "SPEC_SCHEMA",
    "ServiceServer",
    "SpecError",
    "StateError",
    "TERMINAL_STATES",
    "TRANSITIONS",
    "build_batch",
    "canonical_results",
    "canonical_value",
    "capture_environment",
    "execute_run",
    "file_digest",
    "find_interrupted",
    "normalize_job_spec",
    "pack_evidence",
    "read_manifest",
    "register_batch_builder",
    "result_document",
    "resume_interrupted",
    "spec_digest",
    "validate_job_spec",
    "validate_schema",
    "verify_evidence",
]
