"""Single-file SQLite tier — the original persistent cache store.

One WAL-mode SQLite file holds every entry. WAL plus a generous busy
timeout lets concurrent reader/writer *processes* coexist on the file,
but within the file there is still exactly one writer at a time — the
scaling wall the sharded tier (:mod:`repro.engine.backends.sharded`)
removes. A closed or otherwise broken connection never propagates out:
``get`` degrades to a miss and ``put`` to a no-op, so the chain in front
keeps serving from memory.
"""

from __future__ import annotations

import json
import sqlite3
import threading
import time
from pathlib import Path
from typing import Any, Dict, Optional, Union

__all__ = ["CACHE_FILENAME", "SQLiteBackend"]

#: Name of the SQLite file created inside a cache directory.
CACHE_FILENAME = "relcache.sqlite"

_SCHEMA = """
CREATE TABLE IF NOT EXISTS reliability (
    digest TEXT PRIMARY KEY,
    method TEXT NOT NULL,
    value REAL NOT NULL,
    created_at REAL NOT NULL,
    problem TEXT
)
"""


class SQLiteBackend:
    """Digest store over one SQLite file (WAL mode, busy timeout).

    One connection may be shared by several service worker threads (the
    global cache hook is process-wide); sqlite3 connections are not
    thread-safe on their own, so every statement runs under the
    backend's lock, and ``check_same_thread=False`` permits the sharing.
    """

    name = "sqlite"

    def __init__(self, path: Union[str, Path],
                 busy_timeout_ms: int = 30_000) -> None:
        self.path = Path(path)
        self.busy_timeout_ms = int(busy_timeout_ms)
        self._lock = threading.RLock()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._conn: Optional[sqlite3.Connection] = sqlite3.connect(
            str(self.path), timeout=self.busy_timeout_ms / 1000.0,
            check_same_thread=False,
        )
        # WAL lets concurrent reader/writer processes coexist; the
        # explicit busy timeout makes writers queue (up to the timeout)
        # instead of failing fast with "database is locked" when several
        # workers share one cache file. The WAL switch itself can still
        # be refused while a peer opening the same fresh file makes it;
        # the mode is persistent, so the peer's switch serves us too.
        try:
            self._conn.execute("PRAGMA journal_mode=WAL")
        except sqlite3.OperationalError:
            pass
        self._conn.execute(f"PRAGMA busy_timeout={self.busy_timeout_ms}")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.execute(_SCHEMA)
        self._migrate()
        self._conn.commit()

    @classmethod
    def in_directory(cls, cache_dir: Union[str, Path],
                     busy_timeout_ms: int = 30_000) -> "SQLiteBackend":
        """The conventional single-file layout: ``<dir>/relcache.sqlite``."""
        return cls(Path(cache_dir) / CACHE_FILENAME,
                   busy_timeout_ms=busy_timeout_ms)

    def _migrate(self) -> None:
        """Bring a pre-existing cache file up to the current schema.

        Older caches stored only ``digest -> value``; the ``problem``
        column (the canonical payload audited by :mod:`repro.verify`) is
        added in place. Entries written before the migration keep a NULL
        payload and are simply not auditable. Fresh files are created
        with the column, and a peer process migrating the same file
        first is not an error.
        """
        columns = {
            row[1] for row in self._conn.execute("PRAGMA table_info(reliability)")
        }
        if "problem" not in columns:
            try:
                self._conn.execute(
                    "ALTER TABLE reliability ADD COLUMN problem TEXT"
                )
            except sqlite3.OperationalError as exc:
                if "duplicate column" not in str(exc):
                    raise

    @property
    def closed(self) -> bool:
        return self._conn is None

    def get(self, digest: str) -> Optional[float]:
        if self._conn is None:
            return None
        try:
            with self._lock:
                row = self._conn.execute(
                    "SELECT value FROM reliability WHERE digest = ?",
                    (digest,),
                ).fetchone()
        except sqlite3.Error:
            # Closed or broken connection: degrade to a miss rather
            # than crashing the analysis that asked.
            return None
        return float(row[0]) if row is not None else None

    def put(
        self,
        digest: str,
        method: str,
        value: float,
        payload: Optional[Dict[str, Any]] = None,
    ) -> None:
        if self._conn is None:
            return
        blob = (
            json.dumps(payload, sort_keys=True, separators=(",", ":"))
            if payload is not None
            else None
        )
        try:
            with self._lock:
                self._conn.execute(
                    "INSERT OR IGNORE INTO reliability "
                    "(digest, method, value, created_at, problem) "
                    "VALUES (?, ?, ?, ?, ?)",
                    (digest, method, float(value), time.time(), blob),
                )
                self._conn.commit()
        except sqlite3.Error:
            pass  # persistence degrades; the memory tier keeps the entry

    def put_many(self, entries) -> None:
        """Insert many ``(digest, method, value, payload)`` in one commit.

        The group commit is what makes the sharded tier's write-back
        batching pay: one fsync-eligible transaction per batch instead of
        one per entry.
        """
        if self._conn is None:
            return
        now = time.time()
        rows = [
            (
                digest,
                method,
                float(value),
                now,
                json.dumps(payload, sort_keys=True, separators=(",", ":"))
                if payload is not None else None,
            )
            for digest, method, value, payload in entries
        ]
        if not rows:
            return
        try:
            with self._lock:
                self._conn.executemany(
                    "INSERT OR IGNORE INTO reliability "
                    "(digest, method, value, created_at, problem) "
                    "VALUES (?, ?, ?, ?, ?)",
                    rows,
                )
                self._conn.commit()
        except sqlite3.Error:
            pass  # same degradation contract as put()

    def __len__(self) -> int:
        if self._conn is not None:
            try:
                with self._lock:
                    row = self._conn.execute(
                        "SELECT COUNT(*) FROM reliability"
                    ).fetchone()
                return int(row[0])
            except sqlite3.Error:
                pass
        return 0

    def close(self) -> None:
        if self._conn is not None:
            try:
                with self._lock:
                    self._conn.close()
            except sqlite3.Error:  # pragma: no cover - close is best-effort
                pass
            self._conn = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self.closed else "open"
        return f"SQLiteBackend({str(self.path)!r}, {state})"
