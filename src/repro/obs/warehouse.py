"""SQLite-backed telemetry warehouse — queryable history of every run.

The engine and service plane emit rich JSONL exhaust (batch telemetry,
span records, worker metric deltas, B&B search-tree events, structured
obslog lines), all written by :class:`repro.obs.TelemetryWriter`, but
answering "which job was slow last Tuesday" has meant hand-grepping
journals. The warehouse ingests any of those files into one SQLite file
so operators get SQL over the full fleet history:

    wh = TelemetryWarehouse(".archex/warehouse.db")
    wh.ingest_file(".relcache/telemetry.jsonl")
    wh.query("SELECT job, wall_time FROM jobs ORDER BY wall_time DESC")

Each ingested record is stored once, as a row of the ``records`` table:
``ts`` (epoch seconds), ``batch``, ``event``, ``level``, the ``source``
file name, and ``body``, the rest of the record as compact JSON, with
non-finite floats stored as ``null`` so that SQLite's JSON functions read
every body (``json_extract(body, '$.field')`` reaches any field without a
schema change). ``sources`` keeps each ingested file's byte offset, so
re-ingesting resumes where the last pass stopped (a rotated or truncated
file restarts from zero). The query tables are views over ``records``:

* ``batches``       — one row per batch id (``batch_start``/``batch_end``
  roll-up: jobs, ok/failed, wall time, cache traffic).
* ``jobs``          — one row per (batch, job): outcome, attempts, wall
  time, cache hits/misses, retry/timeout counts.
* ``spans``         — one row per finished span (a ``span`` record).
* ``metric_deltas`` — one row per instrument per ``metrics_snapshot``.
* ``bnb_events``    — the branch-and-bound search-tree stream.
* ``logs``          — structured obslog records.

A record with a ``level`` is a log line (whatever correlation fields,
such as ``batch``, it carries) and appears only in ``logs``; any other
record appears in the view its ``event`` names, if there is one
(``job_dedup``, ``pool_restart``, ... stay in ``records`` only), and
life-cycle records without a batch id in none. A file in the earlier
layout (a ``jobs`` table rather than a view) is refused at open: move it
aside and re-ingest the JSONL files it was built from.

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
import math
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
    offset      INTEGER NOT NULL DEFAULT 0,
    ingested_at REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS records (
    ts     REAL,
    batch  TEXT,
    event  TEXT,
    level  TEXT,
    source TEXT,
    body   TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_records_event ON records (event);
CREATE INDEX IF NOT EXISTS idx_records_batch ON records (batch);
CREATE VIEW IF NOT EXISTS batches AS SELECT batch,
    COALESCE(json_extract(s, '$.name'), json_extract(e, '$.name')) AS name,
    started_at, finished_at,
    json_extract(s, '$.jobs') AS jobs, json_extract(s, '$.workers') AS workers,
    json_extract(e, '$.ok') AS ok, json_extract(e, '$.failed') AS failed,
    CAST(json_extract(e, '$.wall_time') AS REAL) AS wall_time,
    json_extract(e, '$.cache_hits') AS cache_hits,
    json_extract(e, '$.cache_misses') AS cache_misses,
    CASE WHEN e IS NOT NULL THEN json_extract(e, '$.stopped') IS TRUE END
        AS stopped
FROM (SELECT batch,
    MAX(CASE WHEN event = 'batch_start' THEN body END) AS s,
    MAX(CASE WHEN event = 'batch_start' THEN ts END) AS started_at,
    MAX(CASE WHEN event = 'batch_end' THEN body END) AS e,
    MAX(CASE WHEN event = 'batch_end' THEN ts END) AS finished_at
  FROM records WHERE event IN ('batch_start', 'batch_end')
      AND level IS NULL AND batch IS NOT NULL
  GROUP BY batch);
CREATE VIEW IF NOT EXISTS jobs AS SELECT batch, job,
    json_extract(s, '$.kind') AS kind, started_at, finished_at,
    CASE WHEN e IS NOT NULL THEN json_extract(e, '$.ok') IS TRUE END AS ok,
    json_extract(e, '$.attempts') AS attempts,
    CAST(json_extract(e, '$.wall_time') AS REAL) AS wall_time,
    json_extract(e, '$.cache_hits') AS cache_hits,
    json_extract(e, '$.cache_misses') AS cache_misses,
    json_extract(e, '$.error') AS error, retries, timeouts
FROM (SELECT batch, CAST(json_extract(body, '$.job') AS TEXT) AS job,
    MAX(CASE WHEN event = 'job_start' THEN body END) AS s,
    MAX(CASE WHEN event = 'job_start' THEN ts END) AS started_at,
    MAX(CASE WHEN event = 'job_end' THEN body END) AS e,
    MAX(CASE WHEN event = 'job_end' THEN ts END) AS finished_at,
    SUM(event = 'job_retry') AS retries, SUM(event = 'job_timeout') AS timeouts
  FROM records
  WHERE event IN ('job_start', 'job_end', 'job_retry', 'job_timeout')
      AND level IS NULL AND batch IS NOT NULL
  GROUP BY 1, 2);
CREATE VIEW IF NOT EXISTS spans AS SELECT batch,
    json_extract(body, '$.uid') AS uid,
    json_extract(body, '$.parent') AS parent,
    COALESCE(json_extract(body, '$.name'), '?') AS name,
    json_extract(body, '$.pid') AS pid, ts,
    CAST(json_extract(body, '$.dur') AS REAL) AS dur,
    NULLIF(json_extract(body, '$.attrs'), '{}') AS attrs
FROM records WHERE event = 'span' AND level IS NULL;
CREATE VIEW IF NOT EXISTS metric_deltas AS SELECT r.batch AS batch,
    json_extract(r.body, '$.worker_pid') AS worker, r.ts AS ts,
    m.key AS metric, json_extract(m.value, '$.kind') AS kind,
    CAST(json_extract(m.value, CASE json_extract(m.value, '$.kind')
         WHEN 'histogram' THEN '$.sum' ELSE '$.value' END) AS REAL) AS value,
    json_extract(m.value, '$.count') AS count, m.value AS payload
FROM records AS r, json_each(r.body, '$.metrics') AS m
WHERE r.event = 'metrics_snapshot' AND r.level IS NULL
    AND json_type(r.body, '$.metrics') = 'object' AND m.type = 'object';
CREATE VIEW IF NOT EXISTS bnb_events AS SELECT batch, ts,
    CAST(json_extract(body, '$.solve') AS TEXT) AS solve,
    json_extract(body, '$.kind') AS kind, json_extract(body, '$.node') AS node,
    json_extract(body, '$.depth') AS depth,
    CAST(json_extract(body, '$.objective') AS REAL) AS objective,
    json_extract(body, '$.reason') AS reason, NULLIF(body, '{}') AS payload
FROM records WHERE event = 'bnb_event' AND level IS NULL;
CREATE VIEW IF NOT EXISTS logs AS SELECT ts, level, event,
    json_extract(body, '$.run') AS run, json_extract(body, '$.job') AS job,
    source, NULLIF(CASE WHEN batch IS NULL THEN body
                        ELSE json_set(body, '$.batch', batch) END, '{}')
        AS payload
FROM records WHERE level IS NOT NULL;
"""

#: First SQL keywords allowed through :meth:`TelemetryWarehouse.query`.
_READ_ONLY_PREFIXES = ("select", "with", "explain", "pragma")

#: Compact JSON for ``body`` (one encoder: ``json.dumps`` with options
#: builds a new one per call).
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), default=str)

#: Life-cycle events, which appear in a view only with a batch id.
_LIFECYCLE = ("batch_start", "batch_end", "job_start", "job_end",
              "job_retry", "job_timeout")

#: The view a record of each event adds a row to (the ingest counts): a
#: batch counts once, at its ``batch_start``, and a job at its
#: ``job_end``; a ``metrics_snapshot`` adds one row per instrument.
_ADDS_ROW = {"batch_start": "batches", "job_end": "jobs", "span": "spans",
             "metrics_snapshot": "metric_deltas", "bnb_event": "bnb_events"}

#: Views with a ``batch`` column (retention and per-batch counts).
_BATCH_VIEWS = ("batches", "jobs", "spans", "metric_deltas", "bnb_events")


def _finite(value: Any) -> Any:
    """``value`` with every non-finite float replaced by ``None``."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _finite(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(v) for v in value]
    return value


def _body(rest: Dict[str, Any]) -> str:
    """``rest`` as JSON that SQLite's JSON functions can read."""
    text = _ENCODER.encode(rest)
    if "Infinity" in text or "NaN" in text:  # Python's non-JSON floats
        text = _ENCODER.encode(_finite(rest))
    return text


def _rows_added(record: Dict[str, Any]) -> Tuple[Optional[str], int]:
    """(view, rows) that ``record`` adds to the per-table ingest counts."""
    if record.get("level") is not None:
        return "logs", 1
    event = record.get("event")
    if event in _LIFECYCLE and record.get("batch") is None:
        return None, 0  # a hand-made file: no batch, no row to key
    if event == "metrics_snapshot":
        metrics = record.get("metrics")
        if not isinstance(metrics, dict):
            return None, 0
        return "metric_deltas", sum(isinstance(m, dict)
                                    for m in metrics.values())
    return _ADDS_ROW.get(event), 1


class TelemetryWarehouse:
    """One SQLite file holding the ingested telemetry history."""

    def __init__(self, path: Union[str, Path] = DEFAULT_WAREHOUSE_PATH) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._conn = sqlite3.connect(str(self.path), check_same_thread=False)
        self._conn.row_factory = sqlite3.Row
        layout = self._conn.execute(
            "SELECT type FROM sqlite_master WHERE name = 'jobs'").fetchone()
        if layout is not None and layout[0] == "table":
            self._conn.close()
            raise ValueError(
                f"{self.path} is a telemetry warehouse in an earlier layout"
                " (a jobs table); move it aside and re-ingest its JSONL"
                " sources into a new file"
            )
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
            records, end = read_jsonl(source, offset)
            if end == offset:
                return {}
            with self._conn:
                counts = self._ingest(records, source.name)
                self._conn.execute(
                    "INSERT OR REPLACE INTO sources VALUES (?, ?, ?)",
                    (key, end, time.time()),
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
        rows = []
        for record in records:
            view, n = _rows_added(record)
            if view is not None and n:
                counts[view] = counts.get(view, 0) + n
            rest = dict(record)
            ts = rest.pop("ts", None)
            rows.append((
                float(ts) if isinstance(ts, (int, float)) else 0.0,
                rest.pop("batch", None), rest.pop("event", None),
                rest.pop("level", None), source, _body(rest),
            ))
        self._conn.executemany(
            "INSERT INTO records (ts, batch, event, level, source, body)"
            " VALUES (?, ?, ?, ?, ?, ?)", rows,
        )
        return counts

    # ------------------------------------------------------------------
    # query

    def query(
        self, sql: str, params: Sequence[Any] = ()
    ) -> List[Dict[str, Any]]:
        """Run a read-only SQL statement, rows as plain dicts.

        The statement runs with writes refused (``PRAGMA query_only``), so
        one that writes past the keyword check, such as ``WITH ...
        DELETE``, raises :class:`sqlite3.OperationalError` and changes
        nothing.
        """
        head = sql.lstrip().split(None, 1)
        if not head or head[0].lower() not in _READ_ONLY_PREFIXES:
            raise ValueError(
                "warehouse.query accepts read-only statements"
                f" ({', '.join(_READ_ONLY_PREFIXES)}); got {sql!r}"
            )
        with self._lock:
            self._conn.execute("PRAGMA query_only = ON")
            try:
                cur = self._conn.execute(sql, tuple(params))
                return [dict(row) for row in cur.fetchall()]
            finally:
                self._conn.execute("PRAGMA query_only = OFF")

    def counts(self, batch: Optional[str] = None) -> Dict[str, int]:
        """Row counts per table (optionally scoped to one batch id)."""
        if batch is None:
            tables, where, params = _BATCH_VIEWS + ("logs",), "", ()
        else:
            tables, where, params = _BATCH_VIEWS, " WHERE batch = ?", (batch,)
        with self._lock:
            return {table: self._conn.execute(
                f"SELECT COUNT(*) FROM {table}{where}", params
            ).fetchone()[0] for table in tables}

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

        ``max_age`` drops batches (every record of theirs but log lines)
        whose newest timestamp is older than ``now - max_age`` seconds,
        plus the records without a batch and the log lines that are older
        than the cutoff: logs, and the spans, metric deltas and B&B
        events of a raw worker spool. ``keep_batches`` keeps only the N
        most recent batches; it never touches records without a batch.
        Returns deleted-row counts per table.
        """
        doomed: List[str] = []
        cutoff = time.time() - max_age if max_age is not None else None
        with self._lock:
            if cutoff is not None:
                doomed.extend(row["batch"] for row in self._conn.execute(
                    "SELECT batch FROM batches"
                    " WHERE COALESCE(finished_at, started_at, 0) < ?",
                    (cutoff,),
                ))
            if keep_batches is not None:
                doomed.extend(row["batch"] for row in self._conn.execute(
                    "SELECT batch FROM batches WHERE batch NOT IN ("
                    " SELECT batch FROM batches"
                    " ORDER BY COALESCE(started_at, finished_at, 0) DESC,"
                    " batch DESC LIMIT ?)",
                    (keep_batches,),
                ))
            in_doomed = "batch IN (SELECT value FROM json_each(?))"
            targets = (json.dumps(sorted(set(doomed))),)
            scopes = [(table, in_doomed, targets) for table in _BATCH_VIEWS]
            if cutoff is not None:
                # Records without a batch age out on their own timestamp.
                scopes += [(table, "batch IS NULL AND ts < ?", (cutoff,))
                           for table in _BATCH_VIEWS[2:]]
                scopes.append(("logs", "ts < ?", (cutoff,)))
            deleted: Dict[str, int] = {}
            for table, where, params in scopes:
                n = self._conn.execute(
                    f"SELECT COUNT(*) FROM {table} WHERE {where}", params
                ).fetchone()[0]
                if n:
                    deleted[table] = deleted.get(table, 0) + n
            with self._conn:
                self._conn.execute(
                    f"DELETE FROM records WHERE level IS NULL AND {in_doomed}",
                    targets,
                )
                if cutoff is not None:
                    self._conn.execute(
                        "DELETE FROM records WHERE ts < ?"
                        " AND (batch IS NULL OR level IS NOT NULL)",
                        (cutoff,),
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
