"""B&B search-tree event stream: where the solver's effort goes.

The branch-and-bound loop in :mod:`repro.ilp.branch_and_bound` already
aggregates totals (``BnBStats``, the ``ilp.bnb.*`` counters); this
module streams the *tree* — node opens, branches, prunes, incumbents,
each with bound/depth attributes — to whoever installed a sink:

* the serial batch executor writes ``bnb_event`` records into the batch
  telemetry journal,
* pool and queue workers spool them home to the coordinator,
* the service runner journals them per run, which is what the
  ``/api/runs/<run-id>/events`` tail and ``repro tree`` render.

Sinks are rate-limited per solve by :class:`SearchEventEmitter`: the
first ``keep`` node-level events pass verbatim, then only every
``sample``-th — big trees emit kilobytes, not gigabytes — while
incumbent events always pass (they are rare and are the story), and a
final ``summary`` event carries the true totals including how many
events sampling suppressed.

The sink is a plain callable taking one dict; install it with
:func:`capture_search_events`. With no sink installed the hot loop pays
one module-attribute ``None`` check per solve, nothing per node.
"""

from __future__ import annotations

import itertools
import threading
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, Optional

__all__ = [
    "SearchEventEmitter",
    "capture_search_events",
    "search_sink",
    "set_search_sink",
    "DEFAULT_KEEP",
    "DEFAULT_SAMPLE",
]

#: Node-level events that pass verbatim before sampling starts.
DEFAULT_KEEP = 128

#: After ``keep``, one node-level event in every ``sample`` passes.
DEFAULT_SAMPLE = 16

#: Event kinds subject to rate limiting (incumbents/summaries never are).
_LIMITED_KINDS = frozenset({"open", "branch", "prune"})

#: The installed sink; ``None`` means the solver emits nothing.
_SINK: Optional[Callable[[Dict[str, Any]], None]] = None

_SOLVE_IDS = itertools.count(1)
_SOLVE_LOCK = threading.Lock()


def search_sink() -> Optional[Callable[[Dict[str, Any]], None]]:
    """The installed search-event sink, or ``None``."""
    return _SINK


def set_search_sink(
    sink: Optional[Callable[[Dict[str, Any]], None]],
) -> Optional[Callable[[Dict[str, Any]], None]]:
    """Install ``sink`` (or ``None`` to disable); returns the previous."""
    global _SINK
    previous = _SINK
    _SINK = sink
    return previous


@contextmanager
def capture_search_events(
    sink: Callable[[Dict[str, Any]], None],
) -> Iterator[None]:
    """Scoped sink installation: solves inside stream their trees."""
    previous = set_search_sink(sink)
    try:
        yield
    finally:
        set_search_sink(previous)


class SearchEventEmitter:
    """Per-solve rate-limited event emitter over the installed sink.

    Constructed by the B&B loop when a sink is installed; each solve
    gets a process-unique ``solve`` id so a run mixing many MILPs (the
    LEARNCONS loop solves one per iteration) stays attributable. A sink
    that raises is dropped for the remainder of the solve — telemetry
    must never abort the search.
    """

    __slots__ = (
        "solve",
        "emitted",
        "suppressed",
        "_sink",
        "_keep",
        "_sample",
        "_node_events",
        "_seq",
    )

    def __init__(
        self,
        sink: Callable[[Dict[str, Any]], None],
        keep: int = DEFAULT_KEEP,
        sample: int = DEFAULT_SAMPLE,
    ) -> None:
        with _SOLVE_LOCK:
            self.solve = next(_SOLVE_IDS)
        self._sink: Optional[Callable[[Dict[str, Any]], None]] = sink
        self._keep = max(0, int(keep))
        self._sample = max(1, int(sample))
        self._node_events = 0
        self._seq = 0
        self.emitted = 0
        self.suppressed = 0

    @classmethod
    def for_active_sink(cls) -> Optional["SearchEventEmitter"]:
        """An emitter over the installed sink, or ``None`` without one."""
        sink = _SINK
        return cls(sink) if sink is not None else None

    def emit(self, kind: str, **attrs: Any) -> None:
        if self._sink is None:
            return
        if kind in _LIMITED_KINDS:
            self._node_events += 1
            past = self._node_events - self._keep
            if past > 0 and past % self._sample != 0:
                self.suppressed += 1
                return
        self._seq += 1
        event = {"kind": kind, "solve": self.solve, "seq": self._seq}
        event.update(attrs)
        try:
            self._sink(event)
            self.emitted += 1
        except Exception:
            self._sink = None

    def close(self, **summary: Any) -> None:
        """Emit the terminal ``summary`` event with true totals."""
        self.emit("summary", suppressed=self.suppressed, **summary)
