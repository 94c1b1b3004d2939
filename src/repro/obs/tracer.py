"""Context-local tracer with nested spans.

A :class:`Span` is one timed region of the program — an ILP-MR iteration,
a reliability analysis, a batch job — with a name, monotonic start/end
times, typed attributes, and a parent link. Spans nest through a
context-local stack (``contextvars``, so concurrent threads and asyncio
tasks each see their own stack) and every finished span is collected on
the :class:`Tracer` for export (:mod:`repro.obs.export`) and profiling
(:mod:`repro.obs.profile`).

Tracing is *off* by default. The module-level :func:`span` helper costs a
single attribute lookup plus a ``None`` check when no tracer is installed
— it returns a stateless no-op span — so hot paths stay instrumented
permanently without measurable overhead:

    with span("ilp_mr.iteration", index=i) as s:
        ...
        s.set_attr("cost", candidate.cost())

Enable tracing for a region with :func:`tracing`::

    with tracing() as tracer:
        synthesize_ilp_mr(spec)
    print(render_profile(tracer.spans))

A finished span has one serialized form, :func:`span_record`: worker
spools, the batch journal and ``--trace-out x.jsonl`` write it as a
``span`` event, and :mod:`repro.obs.export` builds Chrome traces from it.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Dict, Iterator, List, Optional

from .context import current_trace_context, span_uid

__all__ = [
    "Span",
    "Tracer",
    "NOOP_SPAN",
    "span",
    "current_span",
    "set_attr",
    "enabled",
    "add_observer",
    "remove_observer",
    "observed",
    "get_tracer",
    "set_tracer",
    "tracing",
    "span_record",
    "absorb_record",
    "reset_span_stack",
]


class Span:
    """One timed, attributed region; also its own context manager."""

    __slots__ = (
        "name",
        "span_id",
        "parent_id",
        "start",
        "end",
        "ts_epoch",
        "tid",
        "attrs",
        "trace_id",
        "remote_parent",
        "_tracer",
        "_token",
    )

    def __init__(
        self,
        name: str,
        span_id: int,
        parent_id: Optional[int],
        attrs: Dict[str, Any],
    ) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = time.perf_counter()
        self.end: Optional[float] = None
        self.ts_epoch = time.time()
        self.tid = threading.get_ident()
        self.attrs = attrs
        #: Trace id adopted from the parent span or the active
        #: :class:`repro.obs.TraceContext`; ``None`` outside any trace.
        self.trace_id: Optional[str] = None
        #: For root spans opened under a remote context: the uid of the
        #: coordinator-side span this one parents to.
        self.remote_parent: Optional[str] = None
        self._tracer: Optional["Tracer"] = None
        self._token = None

    @property
    def duration(self) -> float:
        """Seconds from start to finish (0.0 while still open)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    @property
    def finished(self) -> bool:
        return self.end is not None

    def set_attr(self, key: str, value: Any) -> "Span":
        self.attrs[key] = value
        return self

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        if self._tracer is not None:
            self._tracer._finish(self)
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = f"{self.duration:.6f}s" if self.finished else "open"
        return f"Span({self.name!r}, {state}, attrs={self.attrs!r})"


class _NoopSpan:
    """Stateless stand-in returned when tracing is disabled.

    Reentrant and shared: it records nothing, so one singleton serves
    every call site concurrently.
    """

    __slots__ = ()

    def set_attr(self, key: str, value: Any) -> "_NoopSpan":
        return self

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False


NOOP_SPAN = _NoopSpan()

#: Context-local stack of open spans (shared across tracers; only one
#: tracer is active at a time).
_STACK: ContextVar[tuple] = ContextVar("repro_obs_stack", default=())


class Tracer:
    """Collects spans for one traced region of the program."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: Span *records* absorbed from other processes (worker
        #: spools) — already-serialized dicts in the
        #: :func:`span_record` format, merged in by collectors so one
        #: tracer holds the whole distributed trace for stitching.
        self.records: List[Dict[str, Any]] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    def span(self, name: str, /, **attrs: Any) -> Span:
        parent = self.current()
        s = Span(
            name=name,
            span_id=next(self._ids),
            parent_id=parent.span_id if parent is not None else None,
            attrs=attrs,
        )
        if parent is not None:
            s.trace_id = parent.trace_id
        else:
            ctx = current_trace_context()
            if ctx is not None:
                s.trace_id = ctx.trace_id
                s.remote_parent = ctx.parent_uid
        s._tracer = self
        s._token = _STACK.set(_STACK.get() + (s,))
        return s

    def add_record(self, record: Dict[str, Any]) -> None:
        """Absorb one remote :func:`span_record` for stitching."""
        with self._lock:
            self.records.append(record)

    def current(self) -> Optional[Span]:
        stack = _STACK.get()
        return stack[-1] if stack else None

    def _finish(self, s: Span) -> None:
        if s.end is not None:  # already finished (double __exit__)
            return
        s.end = time.perf_counter()
        if s._token is not None:
            try:
                _STACK.reset(s._token)
            except ValueError:  # finished from a different context
                stack = _STACK.get()
                if s in stack:
                    _STACK.set(tuple(x for x in stack if x is not s))
            s._token = None
        with self._lock:
            self.spans.append(s)

    def __len__(self) -> int:
        return len(self.spans)


def _jsonable(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


#: The installed tracer; ``None`` means tracing is disabled and every
#: :func:`span` call returns :data:`NOOP_SPAN`.
_ACTIVE: Optional[Tracer] = None

#: Nesting depth of forced-observation regions. Metrics call sites gate on
#: :func:`enabled`; historically that meant "a tracer is installed", but the
#: live observability plane (exposition server, pool workers shipping their
#: snapshots home, ``run_batch``) needs counters to tick without paying for
#: span collection. Observers raise this count so ``enabled()`` is true while
#: spans still degrade to the shared no-op.
_OBSERVERS = 0


def enabled() -> bool:
    """True when instrumentation should record.

    Either a tracer is installed (spans + metrics) or at least one
    metrics observer — an :class:`repro.obs.ObsServer`, a pool worker, a
    running batch — is active (metrics only; spans stay no-ops).
    """
    return _ACTIVE is not None or _OBSERVERS > 0


def add_observer() -> None:
    """Enable metrics recording without a tracer (nestable)."""
    global _OBSERVERS
    _OBSERVERS += 1


def remove_observer() -> None:
    """Undo one :func:`add_observer`; never drops below zero."""
    global _OBSERVERS
    if _OBSERVERS > 0:
        _OBSERVERS -= 1


def reset_span_stack() -> None:
    """Drop any inherited open-span stack.

    Post-fork hygiene for worker processes: a worker forked while the
    coordinator's batch span was open inherits that span on the
    context-local stack, and every span it opens would silently parent
    to a phantom local copy instead of adopting the cross-process
    :class:`repro.obs.TraceContext`. Workers call this once at startup.
    """
    _STACK.set(())


@contextmanager
def observed() -> Iterator[None]:
    """Scoped metrics observation: counters tick inside, spans stay off."""
    add_observer()
    try:
        yield
    finally:
        remove_observer()


def get_tracer() -> Optional[Tracer]:
    return _ACTIVE


def set_tracer(tracer: Optional[Tracer]) -> Optional[Tracer]:
    """Install ``tracer`` (or ``None`` to disable); returns the previous."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = tracer
    return previous


@contextmanager
def tracing(tracer: Optional[Tracer] = None) -> Iterator[Tracer]:
    """Scoped tracing: install a (new) tracer, restore the previous one.

    The span stack is snapshotted on entry and restored on exit, so a
    span left open inside the region (a bug, but survivable) cannot leak
    into later traces as a phantom parent.
    """
    t = tracer if tracer is not None else Tracer()
    previous = set_tracer(t)
    saved_stack = _STACK.get()
    try:
        yield t
    finally:
        _STACK.set(saved_stack)
        set_tracer(previous)


def span(name: str, /, **attrs: Any):
    """Open a span on the active tracer, or a shared no-op when disabled."""
    t = _ACTIVE
    if t is None:
        return NOOP_SPAN
    return t.span(name, **attrs)


def current_span() -> Optional[Span]:
    """The innermost open span, or ``None`` (also when disabled)."""
    t = _ACTIVE
    if t is None:
        return None
    return t.current()


def set_attr(key: str, value: Any) -> None:
    """Attach ``key=value`` to the innermost open span, if any.

    The one-liner engines use to report size attributes (BDD node count,
    path-set count) without knowing whether anything is listening.
    """
    t = _ACTIVE
    if t is None:
        return
    s = t.current()
    if s is not None:
        s.attrs[key] = value


def span_record(s: Span, pid: Optional[int] = None) -> Dict[str, Any]:
    """Serialize a finished span: the one span record.

    The record is what pool and queue workers spool home, what the
    journal and ``--trace-out x.jsonl`` hold as ``span`` events, and
    what Chrome traces are built from: epoch
    timestamps (``ts`` + ``dur`` seconds, so spans from different
    processes align on the wall clock), the span's cross-process
    ``uid``, and the ``parent`` uid — the local parent when the span was
    nested, else the remote coordinator span adopted from the active
    :class:`repro.obs.TraceContext`.
    """
    if pid is None:
        pid = os.getpid()
    if s.parent_id is not None:
        parent: Optional[str] = f"{pid}.{s.parent_id}"
    else:
        parent = s.remote_parent
    return {
        "name": s.name,
        "uid": span_uid(s, pid=pid),
        "parent": parent,
        "trace": s.trace_id,
        "pid": pid,
        "tid": s.tid,
        "ts": s.ts_epoch,
        "dur": round(s.duration, 9),
        "attrs": {k: _jsonable(v) for k, v in s.attrs.items()},
    }


def absorb_record(record: Dict[str, Any]) -> None:
    """Merge one remote span record into the active tracer (if any)."""
    t = _ACTIVE
    if t is not None:
        t.add_record(record)
