"""Filesystem-sharded SQLite tier: many small writers instead of one.

The single-file store serializes every ``put`` behind one SQLite writer
lock — with 8+ pool workers and concurrent service runs all storing
fresh reliability values, the cache itself becomes the bottleneck. This
tier splits the key space by content-hash prefix across ``shards``
independent SQLite files (``shards/relcache-<k>.sqlite``), each behind
its own in-process lock and its own WAL writer, so writers only contend
when they happen to land on the same shard (~1/shards of the time).

The shard count is persisted in ``shards.json`` when the directory is
first created and **always wins** over the constructor argument on
reopen — a digest must keep routing to the shard that stored it, or a
resized reopen would silently turn the whole cache into misses.

Shard files open lazily: a sweep that touches a fraction of the key
space pays only for the shards it actually hits.

Writes are **batched** (write-back with group commit): each shard
buffers up to ``batch_size`` entries in memory and lands them in one
transaction, turning the dominant per-``put`` cost — a SQLite commit —
into an amortized one. A cache can afford this: entries are
recomputable, ``INSERT OR IGNORE`` keeps first-write-wins across racing
flushes, and reads check the buffer first so a writer always sees its
own entries. A crash loses at most ``batch_size - 1`` buffered values
per shard — misses, never corruption. ``flush()``/``close()``/``len()``
force everything to disk.
"""

from __future__ import annotations

import json
import threading
import uuid
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from .sqlite import SQLiteBackend

__all__ = [
    "DEFAULT_BATCH",
    "DEFAULT_SHARDS",
    "MIN_SHARDS",
    "MAX_SHARDS",
    "ShardedBackend",
]

#: Allowed shard-count range. 16 already cuts writer contention an order
#: of magnitude; past 256 the per-file overhead outweighs the spread.
MIN_SHARDS = 16
MAX_SHARDS = 256

#: Default shard count: enough spread for tens of workers, few enough
#: files to stay friendly to directory listings and open-file limits.
DEFAULT_SHARDS = 64

#: Write-back batch size: entries buffered per shard before one group
#: commit. 32 already amortizes the commit below the Python overhead of
#: the put itself; ``batch_size=1`` restores commit-per-put.
DEFAULT_BATCH = 32

#: Name of the shard-layout descriptor inside the cache directory.
SHARDS_META = "shards.json"

#: Subdirectory holding the per-shard SQLite files.
SHARDS_DIR = "shards"


class ShardedBackend:
    """Digest store sharded by content-hash prefix over SQLite files."""

    name = "sharded"

    def __init__(self, cache_dir: Union[str, Path], shards: int = DEFAULT_SHARDS,
                 busy_timeout_ms: int = 30_000,
                 batch_size: int = DEFAULT_BATCH) -> None:
        if not MIN_SHARDS <= int(shards) <= MAX_SHARDS:
            raise ValueError(
                f"shards must be in [{MIN_SHARDS}, {MAX_SHARDS}], got {shards}"
            )
        if int(batch_size) < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.path = Path(cache_dir) / SHARDS_DIR
        self.path.mkdir(parents=True, exist_ok=True)
        self.busy_timeout_ms = int(busy_timeout_ms)
        self.batch_size = int(batch_size)
        self.shards = self._pin_shard_count(Path(cache_dir), int(shards))
        self._closed = False
        # One slot and one lock per shard; backends open on first touch.
        # The locks are reentrant so the lazy open inside a locked put
        # cannot self-deadlock.
        self._backends: List[Optional[SQLiteBackend]] = [None] * self.shards
        self._locks = [threading.RLock() for _ in range(self.shards)]
        #: Per-shard write-back buffers: digest -> (method, value, payload).
        self._pending: List[Dict[str, tuple]] = [
            {} for _ in range(self.shards)
        ]
        self.shard_hits = [0] * self.shards
        self.shard_misses = [0] * self.shards
        self.shard_stores = [0] * self.shards

    def _pin_shard_count(self, root: Path, requested: int) -> int:
        """Read (or first-write) the directory's immutable shard count."""
        meta_path = root / SHARDS_META
        try:
            meta = json.loads(meta_path.read_text(encoding="utf-8"))
            return int(meta["shards"])
        except (OSError, ValueError, KeyError):
            pass
        # A temp name of its own per writer: with one shared name, a peer
        # opening the same fresh directory could rename this writer's
        # file away before its own rename ran.
        tmp = meta_path.with_name(f"{SHARDS_META}.{uuid.uuid4().hex}.tmp")
        tmp.write_text(
            json.dumps({"version": 1, "shards": requested}) + "\n",
            encoding="utf-8",
        )
        tmp.replace(meta_path)
        # Re-read: if two processes raced the first write, both end up
        # honouring whichever rename landed last — identical content in
        # practice, and a single consistent count either way.
        try:
            meta = json.loads(meta_path.read_text(encoding="utf-8"))
            return int(meta["shards"])
        except (OSError, ValueError, KeyError):  # pragma: no cover
            return requested

    def shard_of(self, digest: str) -> int:
        """Route a digest to its shard by hex prefix (stable, uniform)."""
        return int(digest[:4], 16) % self.shards

    def _shard(self, index: int) -> Optional[SQLiteBackend]:
        backend = self._backends[index]
        if backend is not None or self._closed:
            return backend
        with self._locks[index]:
            if self._backends[index] is None and not self._closed:
                self._backends[index] = SQLiteBackend(
                    self.path / f"relcache-{index:03d}.sqlite",
                    busy_timeout_ms=self.busy_timeout_ms,
                )
            return self._backends[index]

    def get(self, digest: str) -> Optional[float]:
        index = self.shard_of(digest)
        backend = self._shard(index)
        value = None
        if backend is not None:
            with self._locks[index]:
                buffered = self._pending[index].get(digest)
                value = (
                    float(buffered[1]) if buffered is not None
                    else backend.get(digest)
                )
        if value is None:
            self.shard_misses[index] += 1
        else:
            self.shard_hits[index] += 1
        return value

    def put(
        self,
        digest: str,
        method: str,
        value: float,
        payload: Optional[Dict[str, Any]] = None,
    ) -> None:
        index = self.shard_of(digest)
        backend = self._shard(index)
        if backend is None:
            return
        with self._locks[index]:
            pending = self._pending[index]
            # First-write-wins holds inside the buffer just as it does
            # in the table's INSERT OR IGNORE.
            if digest not in pending:
                pending[digest] = (method, value, payload)
            self.shard_stores[index] += 1
            if len(pending) >= self.batch_size:
                self._flush_shard_locked(index, backend)

    def _flush_shard_locked(self, index: int,
                            backend: SQLiteBackend) -> None:
        pending = self._pending[index]
        if not pending:
            return
        backend.put_many(
            (digest, method, value, payload)
            for digest, (method, value, payload) in pending.items()
        )
        pending.clear()

    def flush(self) -> None:
        """Land every buffered entry on disk (one commit per dirty shard)."""
        for index in range(self.shards):
            if not self._pending[index]:
                continue
            with self._locks[index]:
                backend = self._backends[index]
                if backend is not None:
                    self._flush_shard_locked(index, backend)
                else:
                    self._pending[index].clear()  # closed: nothing to land

    def __len__(self) -> int:
        self.flush()  # buffered entries must count
        total = 0
        for index in range(self.shards):
            # Count only shards that already exist on disk — opening all
            # 256 files to answer len() would defeat the lazy layout.
            if self._backends[index] is None and not (
                self.path / f"relcache-{index:03d}.sqlite"
            ).is_file():
                continue
            backend = self._shard(index)
            if backend is not None:
                total += len(backend)
        return total

    def shard_stats(self) -> List[Dict[str, int]]:
        """Per-shard hit/miss/store counters (for the obs gauges)."""
        return [
            {
                "shard": index,
                "hits": self.shard_hits[index],
                "misses": self.shard_misses[index],
                "stores": self.shard_stores[index],
            }
            for index in range(self.shards)
        ]

    def close(self) -> None:
        if not self._closed:
            self.flush()
        self._closed = True
        for index, backend in enumerate(self._backends):
            if backend is not None:
                backend.close()
                self._backends[index] = None

    @property
    def closed(self) -> bool:
        return self._closed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        open_shards = sum(1 for b in self._backends if b is not None)
        return (
            f"ShardedBackend({str(self.path)!r}, shards={self.shards}, "
            f"open={open_shards})"
        )
