"""Durable run store: one directory per run under ``.archex/runs/``.

Every run the service (or the CLI on its behalf) executes persists as::

    .archex/runs/<run-id>/
        manifest.json     state machine + environment + progress
        spec.json         the normalized job spec (content-addressed)
        results.jsonl     per-job canonical results journal (crash log)
        telemetry.jsonl   the engine's batch event stream
        result.json       the deterministic result document
        report.txt        rendered human-readable report
        MANIFEST.sha256   hash manifest over everything above (evidence)

The manifest is a small JSON state machine::

    PENDING -> RUNNING -> DONE | FAILED | CANCELLED
    PENDING -> CANCELLED                 (cancelled before starting)
    RUNNING -> PENDING                   (requeued by ``serve --resume``)

Transitions outside :data:`TRANSITIONS` raise :class:`StateError`; every
manifest write is atomic (temp file + ``os.replace``) so a crash never
leaves a half-written manifest. Alongside the spec, the manifest records
everything needed to reproduce the run: RNG seeds, git commit, package
versions, and the solver/batch statistics the runner fills in at the end.
"""

from __future__ import annotations

import functools
import json
import os
import platform
import shutil
import subprocess
import sys
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Union

from .specs import normalize_job_spec, spec_digest

__all__ = [
    "PENDING",
    "RUNNING",
    "DONE",
    "FAILED",
    "CANCELLED",
    "TERMINAL_STATES",
    "TRANSITIONS",
    "StateError",
    "RunRecord",
    "RunStore",
    "capture_environment",
    "DEFAULT_RUNS_DIR",
]

PENDING = "PENDING"
RUNNING = "RUNNING"
DONE = "DONE"
FAILED = "FAILED"
CANCELLED = "CANCELLED"

#: States a run never leaves.
TERMINAL_STATES = frozenset({DONE, FAILED, CANCELLED})

#: The legal state machine. ``RUNNING -> PENDING`` is the resume edge: a
#: crashed service finds RUNNING manifests with no process behind them
#: and requeues the work.
TRANSITIONS: Dict[str, frozenset] = {
    PENDING: frozenset({RUNNING, CANCELLED}),
    RUNNING: frozenset({DONE, FAILED, CANCELLED, PENDING}),
    DONE: frozenset(),
    FAILED: frozenset(),
    CANCELLED: frozenset(),
}

#: Default store location, relative to the working directory.
DEFAULT_RUNS_DIR = os.path.join(".archex", "runs")

MANIFEST_NAME = "manifest.json"
SPEC_NAME = "spec.json"
JOURNAL_NAME = "results.jsonl"
TELEMETRY_NAME = "telemetry.jsonl"
RESULT_NAME = "result.json"
REPORT_NAME = "report.txt"
HEARTBEAT_NAME = "heartbeat"
TRACE_NAME = "trace.json"
WORKER_METRICS_NAME = "worker_metrics.json"

#: How long a run's lease (heartbeat) counts as live without a refresh.
#: The runner heartbeats every few seconds; five minutes of silence means
#: the executing process is gone, not slow.
DEFAULT_LEASE_TTL = 300.0


class StateError(RuntimeError):
    """An illegal run-state transition was attempted."""


@functools.lru_cache(maxsize=None)
def _package_versions() -> Dict[str, str]:
    from importlib import metadata

    versions: Dict[str, str] = {}
    for pkg in ("numpy", "scipy", "networkx"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:  # pragma: no cover - env detail
            pass
    return versions


def _tracked_packages() -> Dict[str, str]:
    """Versions of the tracked packages, read once per process: they
    describe the code this process loaded."""
    return dict(_package_versions())


#: The checkout this package runs from.
_CHECKOUT = Path(__file__).resolve().parents[3]


def _git_commit(root: Path = _CHECKOUT) -> Optional[Dict[str, Any]]:
    """HEAD's commit and whether the tree is dirty, from one ``git status``.

    ``None`` outside a checkout and on an unborn branch. Every line of
    ``--porcelain=v2`` output but the ``#`` headers names a changed or
    untracked path.
    """
    try:
        out = subprocess.run(
            ["git", "-C", str(root), "status", "--porcelain=v2", "--branch"],
            capture_output=True, text=True, timeout=5.0, check=True,
        ).stdout
    except (OSError, subprocess.SubprocessError):  # no git / not a checkout
        return None
    lines = out.splitlines()
    commit = next((line.split()[2] for line in lines
                   if line.startswith("# branch.oid ")), None)
    if commit is None or commit == "(initial)":
        return None
    return {"commit": commit,
            "dirty": any(not line.startswith("#") for line in lines)}


def capture_environment() -> Dict[str, Any]:
    """Reproducibility snapshot: interpreter, platform, git, packages."""
    return {
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "git": _git_commit(),
        "packages": _tracked_packages(),
    }


def _write_json_atomic(path: Path, document: Dict[str, Any]) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(
        json.dumps(document, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    os.replace(tmp, path)


@dataclass
class RunRecord:
    """One run: its directory plus the parsed manifest."""

    run_id: str
    path: Path
    manifest: Dict[str, Any] = field(default_factory=dict)

    @property
    def state(self) -> str:
        return self.manifest.get("state", "?")

    @property
    def kind(self) -> str:
        return self.manifest.get("kind", "?")

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def artifact(self, name: str) -> Path:
        return self.path / name

    def spec(self) -> Dict[str, Any]:
        return json.loads((self.path / SPEC_NAME).read_text(encoding="utf-8"))

    def as_dict(self) -> Dict[str, Any]:
        doc = dict(self.manifest)
        doc["run_id"] = self.run_id
        return doc


class RunStore:
    """Filesystem-backed registry of durable runs."""

    def __init__(self, root: Union[str, Path] = DEFAULT_RUNS_DIR) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    # -- creation ---------------------------------------------------------

    def _new_run_id(self, kind: str) -> str:
        stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
        return f"{kind}-{stamp}-{uuid.uuid4().hex[:8]}"

    def create(self, spec: Dict[str, Any],
               run_id: Optional[str] = None) -> RunRecord:
        """Persist a new PENDING run for a (raw or normalized) job spec."""
        normalized = normalize_job_spec(spec)
        run_id = run_id or self._new_run_id(normalized["kind"])
        path = self.root / run_id
        if path.exists():
            raise FileExistsError(f"run {run_id!r} already exists")
        path.mkdir(parents=True)
        _write_json_atomic(path / SPEC_NAME, normalized)
        manifest = {
            "manifest_version": 1,
            "run_id": run_id,
            "kind": normalized["kind"],
            "state": PENDING,
            "created_at": time.time(),
            "started_at": None,
            "finished_at": None,
            "attempt": 0,
            "spec_digest": spec_digest(normalized),
            "seeds": {"spec": normalized.get("params", {}).get("seed")},
            "environment": capture_environment(),
            "progress": {"done": 0, "failed": 0, "skipped": 0, "total": None},
            "error": None,
            "artifacts": [SPEC_NAME, MANIFEST_NAME],
        }
        record = RunRecord(run_id=run_id, path=path, manifest=manifest)
        self._flush(record)
        return record

    # -- reading ----------------------------------------------------------

    def load(self, run_id: str) -> RunRecord:
        path = self.root / run_id
        manifest_path = path / MANIFEST_NAME
        if not manifest_path.is_file():
            raise KeyError(f"unknown run {run_id!r}")
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        return RunRecord(run_id=run_id, path=path, manifest=manifest)

    def __contains__(self, run_id: str) -> bool:
        return (self.root / run_id / MANIFEST_NAME).is_file()

    def list(self, states: Optional[Iterable[str]] = None) -> List[RunRecord]:
        """All runs, newest first, optionally filtered by state.

        The sort is by start time (falling back to creation time for
        runs that never started) and is *stable*: ties break on run id,
        so two calls straddling an unrelated write return the same
        order — the contract ``repro runs ls --json`` consumers and the
        dashboard rely on.
        """
        wanted = frozenset(states) if states is not None else None
        records = []
        for entry in self.root.iterdir():
            if not (entry / MANIFEST_NAME).is_file():
                continue
            record = self.load(entry.name)
            if wanted is None or record.state in wanted:
                records.append(record)

        def _key(r: RunRecord):
            manifest = r.manifest
            started = manifest.get("started_at")
            if not isinstance(started, (int, float)):
                started = manifest.get("created_at", 0.0)
            if not isinstance(started, (int, float)):
                started = 0.0
            return (-started, r.run_id)

        records.sort(key=_key)
        return records

    # -- state machine ----------------------------------------------------

    def transition(self, record: RunRecord, state: str,
                   **fields: Any) -> RunRecord:
        """Move ``record`` to ``state``, enforcing :data:`TRANSITIONS`."""
        current = record.state
        if state not in TRANSITIONS:
            raise StateError(f"unknown state {state!r}")
        if state not in TRANSITIONS.get(current, frozenset()):
            raise StateError(
                f"illegal transition {current} -> {state} for run "
                f"{record.run_id!r}"
            )
        record.manifest["state"] = state
        now = time.time()
        if state == RUNNING:
            record.manifest["started_at"] = now
            record.manifest["attempt"] = record.manifest.get("attempt", 0) + 1
        elif state in TERMINAL_STATES:
            record.manifest["finished_at"] = now
        elif state == PENDING:  # resume requeue
            record.manifest["resumed_at"] = now
        record.manifest.update(fields)
        self._flush(record)
        return record

    def update(self, record: RunRecord, **fields: Any) -> RunRecord:
        """Merge manifest fields without a state change (atomic write)."""
        record.manifest.update(fields)
        self._flush(record)
        return record

    def set_progress(self, record: RunRecord, *, done: int, failed: int,
                     total: Optional[int] = None,
                     skipped: Optional[int] = None) -> None:
        progress = record.manifest.setdefault("progress", {})
        progress["done"] = done
        progress["failed"] = failed
        if total is not None:
            progress["total"] = total
        if skipped is not None:
            progress["skipped"] = skipped
        self._flush(record)

    def _flush(self, record: RunRecord) -> None:
        _write_json_atomic(record.path / MANIFEST_NAME, record.manifest)

    # -- results journal --------------------------------------------------

    def append_journal(self, record: RunRecord, entry: Dict[str, Any]) -> None:
        """Append one per-job result line (fsync-free, line-atomic enough:
        a torn trailing line is skipped on read)."""
        line = json.dumps(entry, sort_keys=True, separators=(",", ":"))
        with (record.path / JOURNAL_NAME).open("a", encoding="utf-8") as fh:
            fh.write(line + "\n")
            fh.flush()

    def read_journal(self, record: RunRecord) -> List[Dict[str, Any]]:
        path = record.path / JOURNAL_NAME
        if not path.is_file():
            return []
        entries: List[Dict[str, Any]] = []
        for line in path.read_text(encoding="utf-8").splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                entries.append(json.loads(line))
            except json.JSONDecodeError:
                continue  # torn final line from a crash mid-write
        return entries

    # -- leases -----------------------------------------------------------

    def heartbeat(self, record: RunRecord) -> None:
        """Refresh the run's liveness marker (touched by the executor)."""
        path = record.path / HEARTBEAT_NAME
        try:
            os.utime(path)
        except OSError:
            try:
                path.touch()
            except OSError:  # pragma: no cover - directory vanished
                pass

    def clear_heartbeat(self, record: RunRecord) -> None:
        try:
            (record.path / HEARTBEAT_NAME).unlink()
        except OSError:
            pass

    def lease_age(self, record: RunRecord) -> Optional[float]:
        """Seconds since the run last proved an executor was alive.

        Liveness is the freshest of the heartbeat file and the manifest
        (every progress update rewrites the manifest), so runs executed
        by pre-heartbeat code still count as live while they progress.
        ``None`` means no evidence at all (directory unreadable).
        """
        newest: Optional[float] = None
        for name in (HEARTBEAT_NAME, MANIFEST_NAME):
            try:
                mtime = (record.path / name).stat().st_mtime
            except OSError:
                continue
            newest = mtime if newest is None else max(newest, mtime)
        return None if newest is None else max(0.0, time.time() - newest)

    def has_live_lease(self, record: RunRecord,
                       lease_ttl: float = DEFAULT_LEASE_TTL) -> bool:
        """True when some process recently heartbeat this run."""
        age = self.lease_age(record)
        return age is not None and age <= lease_ttl

    # -- housekeeping -----------------------------------------------------

    def delete(self, run_id: str) -> None:
        path = self.root / run_id
        if not (path / MANIFEST_NAME).is_file():
            raise KeyError(f"unknown run {run_id!r}")
        shutil.rmtree(path)

    def gc(self, keep: int = 20,
           states: Iterable[str] = TERMINAL_STATES,
           max_age: Optional[float] = None,
           lease_ttl: float = DEFAULT_LEASE_TTL) -> List[str]:
        """Delete terminal runs beyond the ``keep`` newest; return their ids.

        Non-terminal runs are normally never collected — a PENDING or
        RUNNING directory belongs to the queue. With ``max_age`` set,
        *stale* non-terminal runs older than that many seconds are also
        collected, but only when nothing holds a live lease on them
        (heartbeat or manifest touched within ``lease_ttl`` seconds):
        a run a worker is actively executing is never deleted out from
        under it, no matter how old the run is.
        """
        victims = self.list(states=states)[keep:]
        if max_age is not None:
            now = time.time()
            for record in self.list(states={PENDING, RUNNING}):
                created = record.manifest.get("created_at", now)
                if now - created <= max_age:
                    continue
                if self.has_live_lease(record, lease_ttl=lease_ttl):
                    continue  # an executor is still working this run
                victims.append(record)
        deleted = []
        for record in victims:
            self.delete(record.run_id)
            deleted.append(record.run_id)
        return deleted
