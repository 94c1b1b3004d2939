"""SQLite-backed telemetry warehouse — queryable history of every run.

The engine and service plane emit rich JSONL exhaust (batch telemetry,
span records, worker metric deltas, B&B search-tree events, structured
obslog lines), all written by :class:`repro.obs.TelemetryWriter`, but
answering "which job was slow last Tuesday" has meant hand-grepping
journals. The warehouse ingests any of those files into indexed SQLite
tables so operators get SQL over the full fleet history:

    wh = TelemetryWarehouse(".archex/warehouse.db")
    wh.ingest_file(".relcache/telemetry.jsonl")
    wh.query("SELECT job, wall_time FROM jobs ORDER BY wall_time DESC")

Tables (all times epoch seconds):

* ``sources``       — ingested files and their byte offsets; re-ingesting
  a file resumes where the last pass stopped, so ingest is incremental
  and idempotent (a rotated/truncated file restarts from zero).
* ``batches``       — one row per batch id (``batch_start``/``batch_end``
  roll-up: jobs, ok/failed, wall time, cache traffic).
* ``jobs``          — one row per (batch, job): outcome, attempts, wall
  time, cache hits/misses, retry/timeout counts.
* ``spans``         — one row per finished span (a ``span`` record).
* ``metric_deltas`` — one row per instrument per ``metrics_snapshot``
  event (per-worker registry deltas).
* ``bnb_events``    — the branch-and-bound search-tree stream.
* ``logs``          — structured obslog records.

Every file is ingested the same way: a record with a ``level`` is a log
line (whatever correlation fields, such as ``batch``, it carries); every
other record is dispatched on its ``event``, and events with no table
(``job_dedup``, ``pool_restart``, ...) are skipped.

Auto-ingest: :func:`configure_auto_ingest` (what ``--warehouse`` on
every engine command and on ``repro serve`` calls) arms a process-global
destination; :func:`maybe_auto_ingest` (called by the engine after every
``run_batch`` with telemetry, and so by ``execute_run``) then folds the
batch's journal in. Each auto-ingest opens a fresh connection — cheap,
and safe from any thread or pool callback. Ingest failures degrade to a
warning obslog event: the warehouse must never take a run down (the same
contract as :class:`repro.engine.TelemetryWriter`).
"""

from __future__ import annotations

import json
import sqlite3
import threading
import time
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .obslog import log as _log
from .obslog import read_jsonl

__all__ = [
    "DEFAULT_WAREHOUSE_PATH",
    "TelemetryWarehouse",
    "configure_auto_ingest",
    "auto_ingest_path",
    "maybe_auto_ingest",
]

#: Default on-disk location, next to the run store and alert rules.
DEFAULT_WAREHOUSE_PATH = Path(".archex") / "warehouse.db"

_SCHEMA = """
CREATE TABLE IF NOT EXISTS sources (
    path        TEXT PRIMARY KEY,
    kind        TEXT NOT NULL,
    offset      INTEGER NOT NULL DEFAULT 0,
    ingested_at REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS batches (
    batch        TEXT PRIMARY KEY,
    name         TEXT,
    started_at   REAL,
    finished_at  REAL,
    jobs         INTEGER,
    workers      INTEGER,
    ok           INTEGER,
    failed       INTEGER,
    wall_time    REAL,
    cache_hits   INTEGER,
    cache_misses INTEGER,
    stopped      INTEGER
);
CREATE TABLE IF NOT EXISTS jobs (
    batch        TEXT NOT NULL,
    job          TEXT NOT NULL,
    kind         TEXT,
    started_at   REAL,
    finished_at  REAL,
    ok           INTEGER,
    attempts     INTEGER,
    wall_time    REAL,
    cache_hits   INTEGER,
    cache_misses INTEGER,
    error        TEXT,
    retries      INTEGER NOT NULL DEFAULT 0,
    timeouts     INTEGER NOT NULL DEFAULT 0,
    PRIMARY KEY (batch, job)
);
CREATE TABLE IF NOT EXISTS spans (
    batch  TEXT,
    uid    TEXT,
    parent TEXT,
    name   TEXT NOT NULL,
    pid    INTEGER,
    ts     REAL NOT NULL,
    dur    REAL,
    attrs  TEXT
);
CREATE INDEX IF NOT EXISTS idx_spans_batch ON spans (batch);
CREATE INDEX IF NOT EXISTS idx_spans_name ON spans (name);
CREATE TABLE IF NOT EXISTS metric_deltas (
    batch   TEXT,
    worker  INTEGER,
    ts      REAL NOT NULL,
    metric  TEXT NOT NULL,
    kind    TEXT,
    value   REAL,
    count   INTEGER,
    payload TEXT
);
CREATE INDEX IF NOT EXISTS idx_metric_deltas_metric
    ON metric_deltas (metric);
CREATE INDEX IF NOT EXISTS idx_metric_deltas_batch
    ON metric_deltas (batch);
CREATE TABLE IF NOT EXISTS bnb_events (
    batch     TEXT,
    ts        REAL,
    solve     TEXT,
    kind      TEXT,
    node      INTEGER,
    depth     INTEGER,
    objective REAL,
    reason    TEXT,
    payload   TEXT
);
CREATE INDEX IF NOT EXISTS idx_bnb_events_solve ON bnb_events (solve);
CREATE TABLE IF NOT EXISTS logs (
    ts      REAL NOT NULL,
    level   TEXT,
    event   TEXT,
    run     TEXT,
    job     TEXT,
    source  TEXT,
    payload TEXT
);
CREATE INDEX IF NOT EXISTS idx_logs_event ON logs (event);
"""

#: First SQL keywords allowed through :meth:`TelemetryWarehouse.query`.
_READ_ONLY_PREFIXES = ("select", "with", "explain", "pragma")

#: Life-cycle events whose rows are keyed by their batch id.
_BATCH_KEYED = ("batch_start", "batch_end", "job_start", "job_end",
                "job_retry", "job_timeout")


def _num(value: Any) -> Optional[float]:
    return float(value) if isinstance(value, (int, float)) else None


class TelemetryWarehouse:
    """One SQLite file holding the ingested telemetry history."""

    def __init__(self, path: Union[str, Path] = DEFAULT_WAREHOUSE_PATH) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._conn = sqlite3.connect(str(self.path), check_same_thread=False)
        self._conn.row_factory = sqlite3.Row
        try:
            self._conn.execute("PRAGMA journal_mode=WAL")
        except sqlite3.OperationalError:
            pass  # e.g. network filesystems without shm support
        self._conn.execute("PRAGMA synchronous=NORMAL")
        with self._conn:
            self._conn.executescript(_SCHEMA)

    # ------------------------------------------------------------------
    # ingest

    def ingest_file(self, path: Union[str, Path]) -> Dict[str, int]:
        """Ingest new lines of a JSONL stream since the last pass.

        Only complete (newline-terminated) lines are consumed; the
        stored byte offset advances past exactly what was parsed, so a
        writer mid-line never corrupts the ingest and the next pass
        picks up the remainder. Returns per-table insert counts.
        """
        source = Path(path)
        key = str(source.resolve())
        with self._lock:
            row = self._conn.execute(
                "SELECT offset FROM sources WHERE path = ?", (key,)
            ).fetchone()
            offset = int(row["offset"]) if row is not None else 0
            try:
                size = source.stat().st_size
            except OSError:
                return {}
            if size < offset:
                offset = 0  # rotated or truncated underneath us
            counts: Dict[str, int] = {}
            records, end = read_jsonl(source, offset)
            if end == offset:
                return counts
            with self._conn:
                counts = self._ingest(records, source.name)
                self._conn.execute(
                    "INSERT INTO sources (path, kind, offset, ingested_at)"
                    " VALUES (?, ?, ?, ?)"
                    " ON CONFLICT(path) DO UPDATE SET"
                    " offset = excluded.offset,"
                    " ingested_at = excluded.ingested_at",
                    (key, "jsonl", end, time.time()),
                )
            return counts

    def ingest_events(
        self, events: Iterable[Dict[str, Any]], source: str = "<memory>"
    ) -> Dict[str, int]:
        """Ingest already-parsed records (no source offset tracking)."""
        with self._lock, self._conn:
            return self._ingest(
                (r for r in events if isinstance(r, dict)), source
            )

    def _ingest(
        self, records: Iterable[Dict[str, Any]], source: str
    ) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for record in records:
            hit = (self._ingest_log(record, source) if "level" in record
                   else self._ingest_event(record))
            if hit is not None:
                table, n = hit if isinstance(hit, tuple) else (hit, 1)
                counts[table] = counts.get(table, 0) + n
        return counts

    def _ingest_log(self, record: Dict[str, Any], source: str) -> str:
        core = {"ts", "level", "event", "run", "job"}
        payload = {k: v for k, v in record.items() if k not in core}
        self._conn.execute(
            "INSERT INTO logs (ts, level, event, run, job, source, payload)"
            " VALUES (?, ?, ?, ?, ?, ?, ?)",
            (
                _num(record.get("ts")) or 0.0,
                record.get("level"),
                record.get("event"),
                record.get("run"),
                record.get("job"),
                source,
                json.dumps(payload, sort_keys=True, default=str)
                if payload else None,
            ),
        )
        return "logs"

    def _ingest_event(
        self, record: Dict[str, Any]
    ) -> Union[str, Tuple[str, int], None]:
        event = record.get("event")
        batch = record.get("batch")
        if batch is None and event in _BATCH_KEYED:
            return None  # a hand-made file: no batch, no row to key
        ts = _num(record.get("ts")) or 0.0
        conn = self._conn
        if event == "batch_start":
            conn.execute(
                "INSERT INTO batches (batch, name, started_at, jobs, workers)"
                " VALUES (?, ?, ?, ?, ?)"
                " ON CONFLICT(batch) DO UPDATE SET"
                " name = excluded.name, started_at = excluded.started_at,"
                " jobs = excluded.jobs, workers = excluded.workers",
                (batch, record.get("name"), ts, record.get("jobs"),
                 record.get("workers")),
            )
            return "batches"
        if event == "batch_end":
            conn.execute(
                "INSERT INTO batches (batch, name, finished_at, ok, failed,"
                " wall_time, cache_hits, cache_misses, stopped)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)"
                " ON CONFLICT(batch) DO UPDATE SET"
                " finished_at = excluded.finished_at, ok = excluded.ok,"
                " failed = excluded.failed, wall_time = excluded.wall_time,"
                " cache_hits = excluded.cache_hits,"
                " cache_misses = excluded.cache_misses,"
                " stopped = excluded.stopped",
                (batch, record.get("name"), ts, record.get("ok"),
                 record.get("failed"), _num(record.get("wall_time")),
                 record.get("cache_hits"), record.get("cache_misses"),
                 1 if record.get("stopped") else 0),
            )
            return None  # a batch counts once, at its batch_start
        if event == "job_start":
            conn.execute(
                "INSERT INTO jobs (batch, job, kind, started_at)"
                " VALUES (?, ?, ?, ?)"
                " ON CONFLICT(batch, job) DO UPDATE SET"
                " kind = excluded.kind, started_at = excluded.started_at",
                (batch, str(record.get("job")), record.get("kind"), ts),
            )
            return None  # a job counts once, at its job_end
        if event == "job_end":
            conn.execute(
                "INSERT INTO jobs (batch, job, finished_at, ok, attempts,"
                " wall_time, cache_hits, cache_misses, error)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)"
                " ON CONFLICT(batch, job) DO UPDATE SET"
                " finished_at = excluded.finished_at, ok = excluded.ok,"
                " attempts = excluded.attempts,"
                " wall_time = excluded.wall_time,"
                " cache_hits = excluded.cache_hits,"
                " cache_misses = excluded.cache_misses,"
                " error = excluded.error",
                (batch, str(record.get("job")),
                 ts, 1 if record.get("ok") else 0, record.get("attempts"),
                 _num(record.get("wall_time")), record.get("cache_hits"),
                 record.get("cache_misses"), record.get("error")),
            )
            return "jobs"
        if event in ("job_retry", "job_timeout"):
            column = "retries" if event == "job_retry" else "timeouts"
            conn.execute(
                f"INSERT INTO jobs (batch, job, {column}) VALUES (?, ?, 1)"
                f" ON CONFLICT(batch, job) DO UPDATE SET"
                f" {column} = {column} + 1",
                (batch, str(record.get("job"))),
            )
            return None
        if event == "span":
            conn.execute(
                "INSERT INTO spans (batch, uid, parent, name, pid, ts, dur,"
                " attrs) VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                (batch, record.get("uid"), record.get("parent"),
                 record.get("name", "?"), record.get("pid"), ts,
                 _num(record.get("dur")),
                 json.dumps(record.get("attrs"), sort_keys=True, default=str)
                 if record.get("attrs") else None),
            )
            return "spans"
        if event == "metrics_snapshot":
            metrics = record.get("metrics")
            if not isinstance(metrics, dict):
                return None
            worker = record.get("worker_pid")
            rows = []
            for name, data in sorted(metrics.items()):
                if not isinstance(data, dict):
                    continue
                mkind = data.get("kind")
                value = _num(
                    data.get("sum") if mkind == "histogram"
                    else data.get("value")
                )
                rows.append((
                    batch, worker, ts, name, mkind, value, data.get("count"),
                    json.dumps(data, sort_keys=True, default=str),
                ))
            conn.executemany(
                "INSERT INTO metric_deltas (batch, worker, ts, metric, kind,"
                " value, count, payload) VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                rows,
            )
            return ("metric_deltas", len(rows)) if rows else None
        if event == "bnb_event":
            core = {"ts", "batch", "event", "solve", "kind", "node", "depth",
                    "objective", "reason"}
            payload = {k: v for k, v in record.items() if k not in core}
            conn.execute(
                "INSERT INTO bnb_events (batch, ts, solve, kind, node, depth,"
                " objective, reason, payload)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (batch, ts, str(record.get("solve")), record.get("kind"),
                 record.get("node"), record.get("depth"),
                 _num(record.get("objective")), record.get("reason"),
                 json.dumps(payload, sort_keys=True, default=str)
                 if payload else None),
            )
            return "bnb_events"
        # job_dedup, pool_restart, ... carry no warehouse row.
        return None

    # ------------------------------------------------------------------
    # query

    def query(
        self, sql: str, params: Sequence[Any] = ()
    ) -> List[Dict[str, Any]]:
        """Run a read-only SQL statement, rows as plain dicts."""
        head = sql.lstrip().split(None, 1)
        if not head or head[0].lower() not in _READ_ONLY_PREFIXES:
            raise ValueError(
                "warehouse.query accepts read-only statements"
                f" ({', '.join(_READ_ONLY_PREFIXES)}); got {sql!r}"
            )
        with self._lock:
            cur = self._conn.execute(sql, tuple(params))
            return [dict(row) for row in cur.fetchall()]

    def counts(self, batch: Optional[str] = None) -> Dict[str, int]:
        """Row counts per table (optionally scoped to one batch id)."""
        out: Dict[str, int] = {}
        scoped = ("batches", "jobs", "spans", "metric_deltas", "bnb_events")
        with self._lock:
            for table in scoped:
                if batch is not None:
                    cur = self._conn.execute(
                        f"SELECT COUNT(*) FROM {table} WHERE batch = ?",
                        (batch,),
                    )
                else:
                    cur = self._conn.execute(f"SELECT COUNT(*) FROM {table}")
                out[table] = int(cur.fetchone()[0])
            if batch is None:
                cur = self._conn.execute("SELECT COUNT(*) FROM logs")
                out["logs"] = int(cur.fetchone()[0])
        return out

    def batches(self, limit: int = 50) -> List[Dict[str, Any]]:
        """Most recent batches, newest first."""
        return self.query(
            "SELECT * FROM batches"
            " ORDER BY COALESCE(started_at, finished_at, 0) DESC, batch DESC"
            " LIMIT ?",
            (limit,),
        )

    # ------------------------------------------------------------------
    # retention

    def vacuum(
        self,
        max_age: Optional[float] = None,
        keep_batches: Optional[int] = None,
    ) -> Dict[str, int]:
        """Apply retention and compact the database file.

        ``max_age`` drops batches (and their rows in every child table)
        whose newest timestamp is older than ``now - max_age`` seconds,
        plus the rows without a batch that are older than the cutoff:
        logs, and the spans, metric deltas and B&B events of a raw worker
        spool. ``keep_batches`` keeps only the N most recent batches; it
        never touches rows without a batch. Returns deleted-row counts
        per table.
        """
        deleted: Dict[str, int] = {}
        doomed: List[str] = []
        now = time.time()
        with self._lock:
            if max_age is not None:
                cutoff = now - max_age
                doomed.extend(
                    row["batch"] for row in self._conn.execute(
                        "SELECT batch FROM batches"
                        " WHERE COALESCE(finished_at, started_at, 0) < ?",
                        (cutoff,),
                    )
                )
            if keep_batches is not None:
                keepers = {
                    row["batch"] for row in self._conn.execute(
                        "SELECT batch FROM batches"
                        " ORDER BY COALESCE(started_at, finished_at, 0) DESC,"
                        " batch DESC LIMIT ?",
                        (keep_batches,),
                    )
                }
                doomed.extend(
                    row["batch"] for row in self._conn.execute(
                        "SELECT batch FROM batches"
                    ) if row["batch"] not in keepers
                )
            targets = sorted(set(doomed))
            with self._conn:
                for table in ("jobs", "spans", "metric_deltas", "bnb_events",
                              "batches"):
                    total = 0
                    for i in range(0, len(targets), 500):
                        chunk = targets[i:i + 500]
                        marks = ",".join("?" * len(chunk))
                        cur = self._conn.execute(
                            f"DELETE FROM {table} WHERE batch IN ({marks})",
                            chunk,
                        )
                        total += cur.rowcount
                    if total:
                        deleted[table] = total
                if max_age is not None:
                    # Rows without a batch age out on their own timestamp.
                    orphans = "batch IS NULL AND ts < ?"
                    for table, where in (("spans", orphans),
                                         ("metric_deltas", orphans),
                                         ("bnb_events", orphans),
                                         ("logs", "ts < ?")):
                        cur = self._conn.execute(
                            f"DELETE FROM {table} WHERE {where}", (cutoff,)
                        )
                        if cur.rowcount:
                            deleted[table] = (
                                deleted.get(table, 0) + cur.rowcount
                            )
            self._conn.execute("VACUUM")
        return deleted

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    def __enter__(self) -> "TelemetryWarehouse":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ----------------------------------------------------------------------
# auto-ingest

#: Armed destination; ``None`` disables :func:`maybe_auto_ingest`.
_AUTO_PATH: Optional[Path] = None


def configure_auto_ingest(
    path: Optional[Union[str, Path]],
) -> Optional[Path]:
    """Arm (or with ``None`` disarm) post-batch warehouse auto-ingest."""
    global _AUTO_PATH
    _AUTO_PATH = Path(path) if path is not None else None
    return _AUTO_PATH


def auto_ingest_path() -> Optional[Path]:
    """The armed destination, or ``None`` while disarmed."""
    return _AUTO_PATH


def maybe_auto_ingest(
    source: Optional[Union[str, Path]],
) -> Optional[Dict[str, int]]:
    """Ingest ``source`` into the armed warehouse, if one is configured.

    Opens a fresh connection per call (safe from any thread); failures
    log a warning and return ``None`` — auto-ingest must never take the
    producing run down.
    """
    dest = auto_ingest_path()
    if dest is None or source is None:
        return None
    try:
        with TelemetryWarehouse(dest) as wh:
            counts = wh.ingest_file(source)
        _log("warehouse.ingest", source=str(source), **{
            f"rows_{table}": n for table, n in sorted(counts.items())
        })
        return counts
    except Exception as exc:  # pragma: no cover - defensive
        _log("warehouse.ingest_failed", level="warning",
             source=str(source), error=repr(exc))
        return None
