"""Persistent content-addressed reliability cache.

Exact reliability analysis (BDD compilation, factoring, SDP) dominates the
cost of every sweep, yet sweeps keep re-analyzing the same instantiated
graphs: neighbouring requirement levels synthesize identical candidate
architectures, ILP-MR re-visits candidates across runs, and a re-run of a
whole benchmark recomputes everything from scratch.

The cache keys each analysis by a canonical SHA-256 digest of the
*restricted* reliability problem — the relevant subgraph's nodes with their
exact failure probabilities (hex-encoded, so the key is bit-precise), its
edges, the source set, the sink, and the analysis method. Two
architectures that induce the same relevant graph share an entry, and a
cached value is the very float the engine produced, so warm results are
bit-identical to cold ones.

Alongside the digest, each entry stores the canonical problem payload
itself, so a cached value can later be *audited*: :mod:`repro.verify`
reconstructs the problem from the payload and recomputes the value with a
different engine than the one that produced it
(:func:`repro.verify.audit_cache`).

Storage is one store: a bounded in-memory LRU (:class:`MemoryLRU`) in
front of, when ``cache_dir`` is given, one WAL-mode SQLite file
``<cache_dir>/relcache.sqlite`` (:class:`SQLiteStore`) that commits each
put. Reads go through the LRU and promote persisted entries into it.
``cache_dir=None`` gives a memory-only cache, useful for a single serial
sweep or tests. A closed (or otherwise failing) file never propagates
out of the cache: every operation degrades to the bounded in-memory
layer, so a stale handle left installed beneath ``failure_probability``
cannot crash an analysis.
"""

from __future__ import annotations

import hashlib
import json
import sqlite3
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional, Union

import networkx as nx

from .. import obs

__all__ = [
    "CACHE_FILENAME",
    "CacheStats",
    "ReliabilityCache",
    "problem_digest",
    "problem_payload",
    "payload_digest",
    "problem_from_payload",
]

#: Name of the SQLite file created inside a cache directory.
CACHE_FILENAME = "relcache.sqlite"

#: SQLite busy timeout on every connection to the cache file: writers
#: from several processes queue for the lock instead of failing fast.
BUSY_TIMEOUT_MS = 30_000

#: LRU capacity of the in-memory layer. A digest key plus a float is
#: ~150 bytes, so the bound keeps the layer around 10 MB per process.
MAX_MEMORY_ENTRIES = 65_536


def problem_payload(problem, method: str) -> Dict[str, Any]:
    """Canonical JSON-able description of a reliability query.

    Captures the restricted problem (irrelevant nodes cannot change the
    answer) plus the engine name. Failure probabilities are hex-encoded so
    the payload distinguishes values that differ in the last bit — and
    round-trips them exactly through :func:`problem_from_payload`.
    """
    restricted = problem.restricted()
    graph = restricted.graph
    return {
        "nodes": sorted(
            (str(n), float(graph.nodes[n]["p"]).hex()) for n in graph.nodes
        ),
        "edges": sorted((str(u), str(v)) for u, v in graph.edges),
        "sources": sorted(str(s) for s in restricted.sources),
        "sink": str(restricted.sink),
        "method": method,
    }


def payload_digest(payload: Dict[str, Any]) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def problem_digest(problem, method: str) -> str:
    """Canonical content address of a reliability query."""
    return payload_digest(problem_payload(problem, method))


def problem_from_payload(payload: Dict[str, Any]):
    """Reconstruct the :class:`ReliabilityProblem` a payload describes.

    The payload's hex-encoded probabilities restore bit-identically, so
    re-analyzing the reconstructed problem reproduces the cached
    computation exactly — the basis of cache auditing.
    """
    from ..reliability.events import ReliabilityProblem

    graph = nx.DiGraph()
    for name, hex_p in payload["nodes"]:
        graph.add_node(str(name), p=float.fromhex(hex_p))
    graph.add_edges_from((str(u), str(v)) for u, v in payload["edges"])
    return ReliabilityProblem(
        graph, tuple(str(s) for s in payload["sources"]), str(payload["sink"])
    )


@dataclass
class CacheStats:
    """Hit/miss counters for one cache instance (i.e. one process)."""

    hits: int = 0
    misses: int = 0
    stores: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "hit_rate": round(self.hit_rate, 4),
        }



class MemoryLRU:
    """In-process LRU map of ``digest -> value``, bounded at ``max_entries``.

    Reads refresh recency; a put past the bound evicts the least recently
    used entry. Eviction only forgets a cached copy: the file behind it
    still holds the value, so the bound can cost a re-read, never a
    recompute of a persisted entry. Every operation takes the lock: the
    service shares one cache across worker threads.
    """

    def __init__(self, max_entries: int) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be at least 1")
        self.max_entries = max_entries
        self.evictions = 0
        self._entries: "OrderedDict[str, float]" = OrderedDict()
        self._lock = threading.Lock()

    def get(self, digest: str) -> Optional[float]:
        with self._lock:
            value = self._entries.get(digest)
            if value is not None:
                self._entries.move_to_end(digest)
            return value

    def put(self, digest: str, value: float) -> None:
        with self._lock:
            if digest in self._entries:
                self._entries.move_to_end(digest)
                return  # first write wins; refresh recency only
            self._entries[digest] = float(value)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


_SCHEMA = """
CREATE TABLE IF NOT EXISTS reliability (
    digest TEXT PRIMARY KEY,
    method TEXT NOT NULL,
    value REAL NOT NULL,
    created_at REAL NOT NULL,
    problem TEXT
)
"""


class SQLiteStore:
    """Digest store over one SQLite file (WAL mode, busy timeout).

    WAL plus the busy timeout lets concurrent reader/writer processes
    share the file. One connection may be shared by several service
    worker threads (the global cache hook is process-wide); sqlite3
    connections are not thread-safe on their own, so every statement
    runs under the store's lock, and ``check_same_thread=False`` permits
    the sharing. A closed or otherwise broken connection never
    propagates out: ``get`` degrades to a miss and ``put`` to a no-op.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self._lock = threading.RLock()
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        self._conn: Optional[sqlite3.Connection] = sqlite3.connect(
            str(path), timeout=BUSY_TIMEOUT_MS / 1000.0,
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
        self._conn.execute(f"PRAGMA busy_timeout={BUSY_TIMEOUT_MS}")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.execute(_SCHEMA)
        self._migrate()
        self._conn.commit()

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
            pass  # persistence degrades; the memory layer keeps the entry

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


class ReliabilityCache:
    """Content-addressed failure-probability cache.

    Implements the protocol :func:`repro.reliability.failure_probability`
    consults when installed via
    :func:`repro.reliability.set_reliability_cache`: ``lookup(problem,
    method)`` returning ``None`` on miss, and ``store(problem, method,
    value)``.

    ``cache_dir`` is the directory holding the cache file; ``None``
    keeps the cache memory-only. The in-memory layer holds at most
    :data:`MAX_MEMORY_ENTRIES` values.
    """

    def __init__(self, cache_dir: Optional[Union[str, Path]] = None) -> None:
        self.cache_dir = str(cache_dir) if cache_dir is not None else None
        self.stats = CacheStats()
        self._memory = MemoryLRU(MAX_MEMORY_ENTRIES)
        self._file = (
            SQLiteStore(Path(cache_dir) / CACHE_FILENAME)
            if cache_dir is not None else None
        )

    @property
    def _conn(self):
        """The cache file's raw SQLite connection (``None`` when there is
        none): tests close it behind the cache's back to exercise the
        degraded path."""
        return self._file._conn if self._file is not None else None

    @property
    def closed(self) -> bool:
        """True when the cache file is gone (closed); never memory-only."""
        return self._file is not None and self._file.closed

    @property
    def memory_evictions(self) -> int:
        """LRU evictions performed by the bounded in-memory layer."""
        return self._memory.evictions

    # -- digest-level API -------------------------------------------------

    def get(self, digest: str) -> Optional[float]:
        value = self._memory.get(digest)
        if value is None and self._file is not None:
            value = self._file.get(digest)
            if value is not None:
                # Read-through: promote the persisted entry to the
                # memory layer so the next lookup skips the disk.
                self._memory.put(digest, value)
        return value

    def put(
        self,
        digest: str,
        method: str,
        value: float,
        payload: Optional[Dict[str, Any]] = None,
    ) -> None:
        self._memory.put(digest, value)
        if self._file is not None:
            self._file.put(digest, method, value, payload=payload)

    # -- problem-level API (the failure_probability hook) -----------------

    def lookup(self, problem, method: str) -> Optional[float]:
        value = self.get(problem_digest(problem, method))
        if value is None:
            self.stats.misses += 1
        else:
            self.stats.hits += 1
        if obs.enabled():
            self._publish_metrics()
        return value

    def store(self, problem, method: str, value: float) -> None:
        payload = problem_payload(problem, method)
        self.put(payload_digest(payload), method, value, payload=payload)
        self.stats.stores += 1
        if obs.enabled():
            self._publish_metrics()

    def _publish_metrics(self) -> None:
        """Mirror the hit/miss/store counters into the obs gauges.

        Gauges (not counters) because several cache instances can come
        and go within one traced run; the gauge always shows the live
        instance's totals.
        """
        obs.gauge("reliability.cache.hits").set(self.stats.hits)
        obs.gauge("reliability.cache.misses").set(self.stats.misses)
        obs.gauge("reliability.cache.stores").set(self.stats.stores)
        obs.gauge("reliability.cache.hit_rate").set(round(self.stats.hit_rate, 4))
        obs.gauge("reliability.cache.memory_evictions").set(
            self._memory.evictions
        )

    # -- housekeeping -----------------------------------------------------

    def __len__(self) -> int:
        if self._file is not None and not self._file.closed:
            count = len(self._file)
            # A broken-but-not-closed file answers 0; fall back to the
            # memory layer so the degraded cache still reports something.
            if count or not len(self._memory):
                return count
        return len(self._memory)

    def close(self) -> None:
        if self._file is not None:
            self._file.close()

    def __enter__(self) -> "ReliabilityCache":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        where = self.cache_dir or "memory"
        return (
            f"ReliabilityCache({where!r}, entries={len(self)}, "
            f"hits={self.stats.hits}, misses={self.stats.misses})"
        )
