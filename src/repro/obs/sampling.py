"""Thread-based wall-clock sampling profiler with collapsed-stack export.

The tracer (:mod:`repro.obs.tracer`) answers "how long did each
*instrumented* region take"; the sampling profiler answers "where is the
wall time actually going", including inside numpy, the simplex pricing
loop, or anything else nobody wrapped in a span. A daemon thread wakes
every ``interval`` seconds, grabs ``sys._current_frames()``, and counts
the profiled thread's stack (root first). No tracing hooks, no
interpreter slowdown beyond the sampling thread itself — safe to leave
on around an hours-long sweep.

Output is the *collapsed stack* format flamegraph tooling eats directly
(one ``frame;frame;frame count`` line per distinct stack), so::

    archex profile --sample-profile mr.collapsed -- synthesize --algorithm mr
    flamegraph.pl mr.collapsed > mr.svg     # Brendan Gregg's script
    # or paste into https://www.speedscope.app/

Sampling bias caveats apply: short-lived frames under the sampling
interval may be missed entirely, and counts are proportional to wall
time, not CPU time (a thread blocked in ``wait()`` still accrues).
"""

from __future__ import annotations

import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

__all__ = ["SamplingProfiler"]


def _frame_label(frame) -> str:
    code = frame.f_code
    qualname = getattr(code, "co_qualname", code.co_name)
    module = frame.f_globals.get("__name__", "?")
    return f"{module}.{qualname}"


class SamplingProfiler:
    """Sample one thread's wall-clock stacks into collapsed-stack counts.

    Parameters
    ----------
    interval:
        Seconds between samples (default 5 ms — ~200 Hz, cheap enough to
        leave on and fine-grained enough for second-scale phases).
    target_thread:
        ``ident`` of the thread to sample; defaults to the thread that
        calls :meth:`start` (not the profiler's own daemon thread).
    all_threads:
        Sample every live thread instead (stacks are then prefixed with
        ``thread-N;`` so flamegraphs keep them apart).
    max_depth:
        Stack frames kept per sample, deepest dropped first.
    """

    def __init__(
        self,
        interval: float = 0.005,
        target_thread: Optional[int] = None,
        all_threads: bool = False,
        max_depth: int = 128,
    ) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.interval = interval
        self.all_threads = all_threads
        self.max_depth = max_depth
        self.counts: Dict[Tuple[str, ...], int] = {}
        self.samples = 0
        self._target_thread = target_thread
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self.started_at: Optional[float] = None
        self.stopped_at: Optional[float] = None

    # -- lifecycle --------------------------------------------------------

    def start(self) -> "SamplingProfiler":
        if self._thread is not None:
            return self
        if self._target_thread is None:
            self._target_thread = threading.get_ident()
        self._stop.clear()
        self.started_at = time.time()
        self._thread = threading.Thread(
            target=self._run, name="repro-obs-sampler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> "SamplingProfiler":
        thread, self._thread = self._thread, None
        if thread is None:
            return self
        self._stop.set()
        thread.join(timeout=5.0)
        self.stopped_at = time.time()
        return self

    @property
    def running(self) -> bool:
        return self._thread is not None

    def __enter__(self) -> "SamplingProfiler":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- sampling loop ----------------------------------------------------

    def _run(self) -> None:
        own = threading.get_ident()
        while not self._stop.wait(self.interval):
            frames = sys._current_frames()
            self.samples += 1
            if self.all_threads:
                for tid, frame in frames.items():
                    if tid == own:
                        continue
                    stack = (f"thread-{tid}",) + self._stack(frame)
                    self.counts[stack] = self.counts.get(stack, 0) + 1
            else:
                frame = frames.get(self._target_thread)
                if frame is None:
                    continue
                stack = self._stack(frame)
                self.counts[stack] = self.counts.get(stack, 0) + 1

    def _stack(self, frame) -> Tuple[str, ...]:
        labels: List[str] = []
        while frame is not None and len(labels) < self.max_depth:
            labels.append(_frame_label(frame))
            frame = frame.f_back
        labels.reverse()  # collapsed format wants root first
        return tuple(labels)

    # -- export -----------------------------------------------------------

    def collapsed(self) -> str:
        """Collapsed-stack text: ``root;child;leaf count`` per line."""
        lines = [
            ";".join(stack) + f" {count}"
            for stack, count in sorted(self.counts.items())
        ]
        return "\n".join(lines) + ("\n" if lines else "")

    def write_collapsed(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.collapsed(), encoding="utf-8")
        return path

    def top(self, n: int = 10) -> List[Tuple[str, int]]:
        """Hottest *leaf* frames by inclusive sample count."""
        by_leaf: Dict[str, int] = {}
        for stack, count in self.counts.items():
            if not stack:
                continue
            leaf = stack[-1]
            by_leaf[leaf] = by_leaf.get(leaf, 0) + count
        return sorted(by_leaf.items(), key=lambda kv: -kv[1])[:n]

    def __len__(self) -> int:
        return len(self.counts)
