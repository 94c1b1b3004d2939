"""Serializable trace context for cross-process span parenting.

A :class:`TraceContext` is the wire form of "where in the trace am I":
a trace id shared by every span of one logical run, the uid of the span
the remote side should parent to, and free-form correlation fields (run
id, batch name, job digest) that ride along into structured logs.

The coordinators (``iter_queue``, the process pool) and the service
runner mint one, hand it to the workers (the queue's ``trace.json``,
each pool job's submit arguments), and workers :func:`activate
<trace_context>` it before opening spans.
Root spans opened under an active context adopt its trace id and record
the remote parent uid, so a stitched trace (:func:`repro.obs.export.
stitch_chrome_trace`) connects every worker span back to the
coordinator without sharing a process or a tracer.

Span *uids* are ``"<pid>.<span_id>"`` strings: span ids are
per-tracer counters, so the pid prefix keeps them unique across the
worker fleet of one run. (Runs are single-host today; a host component
can join the uid when the queue grows a network transport.)

Determinism note: the context is correlation metadata only. It must
never enter job payloads (it would change ``job_digest`` and break
dedup) or job meta (it would leak into canonical service results).
"""

from __future__ import annotations

import hashlib
import os
import uuid
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Dict, Iterator, Optional

__all__ = [
    "TraceContext",
    "current_trace_context",
    "set_trace_context",
    "trace_context",
    "span_uid",
]


def span_uid(span: Any, pid: Optional[int] = None) -> str:
    """The cross-process uid of ``span``: ``"<pid>.<span_id>"``."""
    return f"{os.getpid() if pid is None else pid}.{span.span_id}"


class TraceContext:
    """One trace's identity plus the parent link for remote spans."""

    __slots__ = ("trace_id", "parent_uid", "fields")

    def __init__(
        self,
        trace_id: str,
        parent_uid: Optional[str] = None,
        fields: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.trace_id = str(trace_id)
        self.parent_uid = parent_uid
        self.fields: Dict[str, Any] = dict(fields or {})

    @classmethod
    def mint(cls, **fields: Any) -> "TraceContext":
        """A fresh context with a random 16-hex-digit trace id."""
        return cls(trace_id=uuid.uuid4().hex[:16], fields=fields)

    @classmethod
    def derive(cls, seed: str, **fields: Any) -> "TraceContext":
        """A context whose trace id is a pure function of ``seed``.

        The service runner derives from the run id, so a resumed run
        (same run id, new process) keeps the same trace id and its
        replayed + fresh spans land in one trace.
        """
        digest = hashlib.sha256(seed.encode("utf-8")).hexdigest()[:16]
        return cls(trace_id=digest, fields=fields)

    @classmethod
    def from_span(cls, span: Any, **fields: Any) -> "TraceContext":
        """A context parenting remote spans under a live local span."""
        trace_id = getattr(span, "trace_id", None) or uuid.uuid4().hex[:16]
        return cls(
            trace_id=trace_id, parent_uid=span_uid(span), fields=fields
        )

    def with_fields(self, **fields: Any) -> "TraceContext":
        """A copy with extra correlation fields merged in."""
        merged = dict(self.fields)
        merged.update(fields)
        return TraceContext(self.trace_id, self.parent_uid, merged)

    def reparent(self, span: Any) -> "TraceContext":
        """Same trace id and fields, parented under a live local span."""
        return TraceContext(self.trace_id, span_uid(span), dict(self.fields))

    def to_dict(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {"trace_id": self.trace_id}
        if self.parent_uid is not None:
            doc["parent_uid"] = self.parent_uid
        if self.fields:
            doc["fields"] = dict(self.fields)
        return doc

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "TraceContext":
        return cls(
            trace_id=doc["trace_id"],
            parent_uid=doc.get("parent_uid"),
            fields=doc.get("fields") or {},
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceContext):
            return NotImplemented
        return (
            self.trace_id == other.trace_id
            and self.parent_uid == other.parent_uid
            and self.fields == other.fields
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TraceContext({self.trace_id!r}, parent={self.parent_uid!r}, "
            f"fields={self.fields!r})"
        )


#: The context adopted by root spans opened in this thread/task.
_CONTEXT: ContextVar[Optional[TraceContext]] = ContextVar(
    "repro_obs_trace_context", default=None
)


def current_trace_context() -> Optional[TraceContext]:
    """The active :class:`TraceContext`, or ``None``."""
    return _CONTEXT.get()


def set_trace_context(
    ctx: Optional[TraceContext],
) -> Optional[TraceContext]:
    """Install ``ctx`` (or ``None`` to clear); returns the previous one."""
    previous = _CONTEXT.get()
    _CONTEXT.set(ctx)
    return previous


@contextmanager
def trace_context(ctx: Optional[TraceContext]) -> Iterator[None]:
    """Scoped activation: root spans inside adopt ``ctx``."""
    token = _CONTEXT.set(ctx)
    try:
        yield
    finally:
        _CONTEXT.reset(token)
