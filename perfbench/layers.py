"""Per-layer attribution for the traced run.

The hooks live here, in the benchmark, and wrap the public entry points
of each ``src/repro`` layer from outside: nothing in the program is
edited. A hooked call records its wall time; its *self* time is that
duration minus the time spent in hooked calls nested inside it, so self
times of nested layers add up to the outermost call's duration. Work
outside every hook stays unattributed.

A target that no longer exists (moved, renamed, removed) is recorded as
unmeasured instead of failing the run, so a later change to the program
can be measured by this same benchmark code.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (layer, module, qualified name) per workload. Several targets may
#: feed one layer; a layer is unmeasured only if all of them are gone.
SYNTH_HOOKS: List[Tuple[str, str, str]] = [
    ("ilp.simplex", "repro.ilp.simplex", "solve_lp"),
    ("ilp.bnb", "repro.ilp.branch_and_bound", "solve_milp"),
    ("ilp.export", "repro.ilp.model", "Model.to_matrix_form"),
    ("ilp.export", "repro.ilp.incremental", "WarmStartContext.refresh"),
    ("synthesis.build_encoder", "repro.synthesis.spec",
     "SynthesisSpec.build_encoder"),
    ("synthesis.learncons", "repro.synthesis.learncons", "learn_constraints"),
    ("reliability.analysis", "repro.reliability.exact", "worst_case_failure"),
]

_STORE_WRITES = ("create", "transition", "update", "set_progress",
                 "append_journal", "heartbeat", "clear_heartbeat")

SERVICE_HOOKS: List[Tuple[str, str, str]] = [
    ("service.submit", "repro.service.queue", "JobQueue.submit"),
    ("service.env_capture", "repro.service.store", "capture_environment"),
    ("service.run", "repro.service.runner", "execute_run"),
    ("engine.batch", "repro.engine.executor", "run_batch"),
    ("service.evidence", "repro.service.evidence", "pack_evidence"),
    ("obs.trace_stitch", "repro.obs.export", "stitch_chrome_trace"),
    *[("service.store_write", "repro.service.store", f"RunStore.{name}")
      for name in _STORE_WRITES],
    ("synthesis.build_encoder", "repro.synthesis.spec",
     "SynthesisSpec.build_encoder"),
    ("ilp.highs", "repro.ilp.scipy_backend", "solve_with_scipy"),
    ("reliability.analysis", "repro.reliability.exact", "worst_case_failure"),
]


class LayerClock:
    """Self time and calls per layer, for every thread."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self.unmeasured: List[str] = []
        self.reset()
        # A fork while another thread holds the lock would leave the
        # child's copy locked forever.
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()

    def reset(self) -> None:
        with self._lock:
            self.self_s: Dict[str, float] = {}
            self.calls: Dict[str, int] = {}
            self.top_s = 0.0

    def _stack(self) -> List[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer: str, fn: Callable) -> Callable:
        clock = self

        def hooked(*args, **kwargs):
            stack = clock._stack()
            start = time.perf_counter()
            stack.append(0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                nested = stack.pop()
                if stack:
                    stack[-1] += elapsed
                with clock._lock:
                    clock.self_s[layer] = (clock.self_s.get(layer, 0.0)
                                           + elapsed - nested)
                    clock.calls[layer] = clock.calls.get(layer, 0) + 1
                    if not stack:
                        clock.top_s += elapsed

        hooked.__wrapped__ = fn
        hooked.__name__ = getattr(fn, "__name__", "hooked")
        hooked.__qualname__ = getattr(fn, "__qualname__", hooked.__name__)
        hooked.__doc__ = getattr(fn, "__doc__", None)
        return hooked

    def install(self, hooks: List[Tuple[str, str, str]]) -> None:
        """Wrap every target; record layers none of whose targets exist."""
        # Import everything first, so the by-name rebinding in
        # install_wrapper sees every module that imported a target.
        for _, module, _ in hooks:
            try:
                importlib.import_module(module)
            except ImportError:
                pass
        installed = set()
        for layer, module, qualname in hooks:
            if install_wrapper(module, qualname,
                               lambda fn, layer=layer: self.wrap(layer, fn)):
                installed.add(layer)
        self.unmeasured = sorted({h[0] for h in hooks} - installed)

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "self_s": dict(self.self_s),
                "calls": dict(self.calls),
                "top_s": self.top_s,
                "unmeasured": list(self.unmeasured),
            }

    def write(self, path: Path) -> None:
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.snapshot()), encoding="utf-8")
        os.replace(tmp, path)


def _resolve(module: str, qualname: str) -> Optional[Tuple[Any, str, Any]]:
    """``(owner, attribute, original)`` for a target, or None if gone."""
    try:
        owner: Any = importlib.import_module(module)
    except ImportError:
        return None
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = owner.__dict__.get(parts[-1]) if isinstance(owner, type) \
        else getattr(owner, parts[-1], None)
    if not callable(original):
        return None
    return owner, parts[-1], original


def install_wrapper(module: str, qualname: str,
                    make: Callable[[Callable], Callable]) -> bool:
    """Replace a function or method by ``make(original)``.

    A module-level function is also replaced wherever another loaded
    ``repro`` module imported it by name (``from .x import f``), since
    those bindings would otherwise bypass the hook.
    """
    target = _resolve(module, qualname)
    if target is None:
        return False
    owner, name, original = target
    wrapper = make(original)
    if isinstance(owner, type):
        setattr(owner, name, wrapper)
        return True
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "repro"
                               or mod_name.startswith("repro.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)
    return True
