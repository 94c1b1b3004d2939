"""The one JSONL writer, structured logging, and the one JSONL reader.

Every telemetry stream in the package — batch journals, worker spools,
``span`` traces and the structured log below — is JSONL written by
:class:`TelemetryWriter` and read back by :func:`read_jsonl`. Log
records look like the rest, plus a ``level``:

    {"ts": 1754..., "level": "info", "event": "ilp_mr.iteration",
     "run": "ilp_mr-1234-1", "iteration": 3, "cost": 34.0, ...}

Correlation fields come from two places and are attached automatically:

* a context-local field stack set with :func:`log_context` — the run and
  job ids the synthesis loops and the executor push around their work
  (``contextvars``, so threads and pool callbacks don't bleed into each
  other);
* the innermost open :class:`repro.obs.Span` of the active tracer, when
  there is one (``span`` id and ``span_name``).

Logging is *off* by default: :func:`log` costs one global lookup and a
``None`` check until :func:`configure_obslog` installs a sink. A writer
that cannot open or write its file degrades to a no-op — telemetry must
never take a run down.
"""

from __future__ import annotations

import itertools
import json
import os
import time
from contextlib import contextmanager
from contextvars import ContextVar
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, TextIO, Tuple, Union

from . import tracer as _tracer

__all__ = [
    "ObsLog",
    "TelemetryWriter",
    "configure_obslog",
    "get_obslog",
    "obslog_enabled",
    "log",
    "log_context",
    "current_log_context",
    "read_jsonl",
    "read_log",
]

#: Severity order for the level filter.
_LEVELS = {"debug": 10, "info": 20, "warning": 30, "error": 40}

#: Context-local correlation fields, stored as a tuple of (key, value)
#: pairs so snapshots are immutable and tokens restore cleanly.
_FIELDS: ContextVar[Tuple[Tuple[str, Any], ...]] = ContextVar(
    "repro_obslog_fields", default=()
)

_BATCH_COUNTER = itertools.count(1)


def _encode(record: Dict[str, Any]) -> str:
    return json.dumps(record, sort_keys=True, default=str) + "\n"


class TelemetryWriter:
    """Append-mode JSONL writer: the one place a telemetry record is written.

    ``path`` is a file, opened for append (parent directories are
    created), or an open text stream, which is never closed. Each record
    is written and flushed as it comes. ``path=None``, a file that cannot
    be opened, and a handle that breaks make every method a no-op, so
    call sites never branch on whether telemetry works. :meth:`emit`
    stamps a journal record with ``ts``, this writer's fresh ``batch``
    id and ``event``.
    """

    def __init__(
        self, path: Optional[Union[str, Path, TextIO]], batch: str = "batch"
    ) -> None:
        self.batch_id = f"{batch}-{os.getpid()}-{next(_BATCH_COUNTER)}"
        self.path: Optional[Path] = None
        self._fh: Optional[TextIO] = None
        self._owns_fh = False
        if isinstance(path, (str, os.PathLike)):
            self.path = Path(path)
            try:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._fh = self.path.open("a", encoding="utf-8")
                self._owns_fh = True
            except OSError:
                pass
        else:
            self._fh = path

    @property
    def enabled(self) -> bool:
        return self._fh is not None

    def emit(self, event: str, **fields: Any) -> None:
        if self._fh is not None:
            self.write({"ts": time.time(), "batch": self.batch_id,
                        "event": event, **fields})

    def write(self, record: Dict[str, Any]) -> None:
        """Append ``record`` as one JSON line and flush it."""
        if self._fh is None:
            return
        try:
            self._fh.write(_encode(record))
            self._fh.flush()
        except (ValueError, OSError):
            # Closed or broken underneath us (emit after close(), an
            # interpreter-shutdown race, a full disk): no-op from here on.
            self._fh = None

    def close(self) -> None:
        fh, self._fh = self._fh, None
        if fh is not None and self._owns_fh:
            try:
                fh.close()
            except OSError:
                pass

    def __enter__(self) -> "TelemetryWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class ObsLog:
    """A JSONL log sink with level filtering.

    ``path`` appends to a file (parent directories are created);
    ``stream`` writes to an open text stream instead. Exactly one of the
    two is used; ``path`` wins when both are given. Records go through a
    :class:`TelemetryWriter`.
    """

    def __init__(
        self,
        path: Optional[Union[str, Path]] = None,
        stream: Optional[TextIO] = None,
        level: str = "info",
    ) -> None:
        if level not in _LEVELS:
            raise ValueError(
                f"unknown log level {level!r}; choose from {sorted(_LEVELS)}"
            )
        self.level = level
        self.path = Path(path) if path is not None else None
        self._writer = TelemetryWriter(
            self.path if self.path is not None else stream
        )

    @property
    def enabled(self) -> bool:
        return self._writer.enabled

    def emit(self, level: str, event: str, fields: Dict[str, Any]) -> None:
        if not self._writer.enabled:
            return
        if _LEVELS.get(level, 20) < _LEVELS[self.level]:
            return
        record: Dict[str, Any] = {"ts": time.time(), "level": level,
                                  "event": event}
        record.update(dict(_FIELDS.get()))
        span = _tracer.current_span()
        if span is not None:
            record.setdefault("span", span.span_id)
            record.setdefault("span_name", span.name)
        record.update(fields)
        self._writer.write(record)

    def close(self) -> None:
        self._writer.close()

    def __enter__(self) -> "ObsLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


#: The installed sink; ``None`` means logging is disabled.
_SINK: Optional[ObsLog] = None


def configure_obslog(
    path: Optional[Union[str, Path]] = None,
    stream: Optional[TextIO] = None,
    level: str = "info",
) -> Optional[ObsLog]:
    """Install a log sink (or uninstall with no arguments).

    Returns the newly installed :class:`ObsLog`, or ``None`` after an
    uninstall. The previous sink, if any, is closed.
    """
    global _SINK
    previous, _SINK = _SINK, None
    if previous is not None:
        previous.close()
    if path is not None or stream is not None:
        _SINK = ObsLog(path=path, stream=stream, level=level)
    return _SINK


def get_obslog() -> Optional[ObsLog]:
    return _SINK


def obslog_enabled() -> bool:
    return _SINK is not None and _SINK.enabled


def log(event: str, level: str = "info", **fields: Any) -> None:
    """Emit one structured log record (no-op while no sink is installed)."""
    sink = _SINK
    if sink is None:
        return
    sink.emit(level, event, fields)


@contextmanager
def log_context(**fields: Any) -> Iterator[None]:
    """Attach correlation fields (``run=..., job=...``) to every record
    logged inside the ``with`` block (context-local, so concurrent
    threads and tasks keep separate stacks)."""
    token = _FIELDS.set(_FIELDS.get() + tuple(fields.items()))
    try:
        yield
    finally:
        _FIELDS.reset(token)


def current_log_context() -> Dict[str, Any]:
    """The correlation fields that would be attached right now."""
    return dict(_FIELDS.get())


def read_jsonl(
    path: Union[str, Path], offset: int = 0
) -> Tuple[List[Dict[str, Any]], int]:
    """Parse the complete lines of a JSONL file from byte ``offset``.

    Returns the JSON objects found (blank and unparsable lines are
    skipped) and the offset just past the last complete line: a writer
    may be mid-append, so a trailing partial line is left for the next
    read to pick up. Every JSONL reader and tailer in the package goes
    through here. Raises ``OSError`` when the file cannot be read.
    """
    with open(path, "rb") as fh:
        fh.seek(offset)
        chunk = fh.read()
    cut = chunk.rfind(b"\n") + 1
    records = []
    for line in chunk[:cut].splitlines():
        try:
            record = json.loads(line)
        except ValueError:  # also UnicodeDecodeError
            continue
        if isinstance(record, dict):
            records.append(record)
    return records, offset + cut


def read_log(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """Parse a JSONL log file (skipping any truncated trailing line)."""
    return read_jsonl(path)[0]
