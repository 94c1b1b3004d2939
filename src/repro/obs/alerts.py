"""Declarative alert rules evaluated against the live observability plane.

Operators describe what "trouble" looks like in ``.archex/alerts.toml``;
the :class:`AlertEngine` evaluates the rules against the process-global
metrics registry, the run registry, and the registered ``/healthz``
sources, and the ObsServer background loop re-evaluates periodically.
Firing alerts surface in three places at once: ``GET /api/alerts`` (for
dashboards, including ``repro top``), the ``/healthz`` document (the
``alerts`` source reports ``degraded: true``, flipping the probe's
top-level status), and the structured obslog (``alert.fired`` /
``alert.resolved`` edge events).

Rule types (``type =`` in each ``[[rule]]`` table):

``threshold``
    Compare a metric (``metric = "engine.jobs.completed"``; histogram
    names take a statistic suffix — ``engine.job.seconds.p95``) or a
    ``/healthz`` field (``source = "health"``, ``key =
    "queue.queue_depth"``) against ``value`` with ``op``. A queue lease
    older than its ttl — a worker died holding it — is ``key =
    "queue.oldest_lease_age"``, ``op = ">"``, ``value = <ttl>``.
``rate_of_change``
    Per-second growth of a counter/gauge over a trailing ``window``
    seconds exceeds ``threshold``.
``slo_burn``
    Error-budget burn rate: the failure ratio ``bad / total`` (two
    counters) over the trailing window, divided by the budget
    ``1 - objective``, exceeds ``burn``. A burn rate of 1.0 spends the
    budget exactly at the objective's pace; 10x eats a month's budget in
    three days.
``heartbeat_silence``
    An active registered run has not updated its progress for ``window``
    seconds — a hung loop that still holds its registration.
``bench_sentinel``
    The newest entry of a ``BENCH_history.jsonl`` series regresses
    against the median/MAD baseline (:func:`repro.bench.compare_history`).

Each rule fires at most one alert per evaluation — the acceptance
contract dashboards rely on to count incidents, not spam.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple, Union

from . import obslog as _obslog
from .metrics import (
    counter as _counter,
    quantile_from_snapshot,
    registry as _metrics_registry,
)

__all__ = [
    "DEFAULT_RULES_PATH",
    "AlertRule",
    "AlertEngine",
    "load_alert_rules",
    "parse_alert_rules",
]

#: Default rules file, next to the run store and warehouse.
DEFAULT_RULES_PATH = Path(".archex") / "alerts.toml"

RULE_TYPES = (
    "threshold",
    "rate_of_change",
    "slo_burn",
    "heartbeat_silence",
    "bench_sentinel",
)

SEVERITIES = ("info", "warning", "critical")

_OPS: Dict[str, Callable[[float, float], bool]] = {
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
}

#: Histogram statistic suffixes accepted on ``metric`` specs.
_STATS = ("p50", "p90", "p95", "p99", "mean", "count", "sum", "min", "max",
          "value")


@dataclass
class AlertRule:
    """One declarative rule; ``params`` holds the type-specific knobs."""

    name: str
    type: str
    severity: str = "warning"
    description: str = ""
    params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.type not in RULE_TYPES:
            raise ValueError(
                f"unknown alert rule type {self.type!r} for {self.name!r};"
                f" choose from {RULE_TYPES}"
            )
        if self.severity not in SEVERITIES:
            raise ValueError(
                f"unknown severity {self.severity!r} for {self.name!r};"
                f" choose from {SEVERITIES}"
            )

    def as_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "type": self.type,
            "severity": self.severity,
            "description": self.description,
            "params": dict(self.params),
        }


def _resolve_metric(
    snapshot: Dict[str, Dict[str, Any]], spec: str
) -> Optional[float]:
    """Value of a ``metric`` spec against a registry snapshot.

    ``"a.b.c"`` reads instrument ``a.b.c`` (counter/gauge value,
    histogram mean); ``"a.b.c.p95"`` strips a trailing statistic suffix
    and reads that statistic of histogram ``a.b.c``.
    """
    stat = None
    name = spec
    if name not in snapshot and "." in name:
        base, _, tail = name.rpartition(".")
        if tail in _STATS:
            name, stat = base, tail
    data = snapshot.get(name)
    if data is None:
        return None
    kind = data.get("kind")
    if kind in ("counter", "gauge"):
        value = data.get("value")
        return float(value) if isinstance(value, (int, float)) else None
    if kind == "histogram":
        if stat in (None, "mean"):
            return data.get("mean")
        if stat in ("count", "sum", "min", "max"):
            return data.get(stat)
        if stat and stat.startswith("p"):
            return quantile_from_snapshot(data, int(stat[1:]) / 100.0)
    return None


def _resolve_health(doc: Dict[str, Any], key: str) -> Any:
    """Dotted-path lookup into the ``/healthz`` document."""
    node: Any = doc
    for part in key.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node


class _RuleState:
    """Per-rule evaluation state: trailing samples and the firing edge."""

    __slots__ = ("samples", "firing", "since", "message", "value",
                 "bench_mtime", "bench_verdict")

    def __init__(self) -> None:
        self.samples: Deque[Tuple[float, float]] = deque()
        self.firing = False
        self.since: Optional[float] = None
        self.message = ""
        self.value: Optional[float] = None
        self.bench_mtime: Optional[float] = None
        self.bench_verdict: Optional[Tuple[bool, str, Optional[float]]] = None


class AlertEngine:
    """Evaluates a rule set against live registries; tracks firing edges."""

    def __init__(
        self,
        rules: List[AlertRule],
        metrics=None,
        runs=None,
        health: Optional[Callable[[], Dict[str, Any]]] = None,
    ) -> None:
        self.rules = list(rules)
        self._metrics = metrics
        self._runs = runs
        self._health = health
        self._states = {rule.name: _RuleState() for rule in self.rules}
        self._lock = threading.Lock()
        self._evaluated_at: Optional[float] = None

    # ------------------------------------------------------------------
    # evaluation

    def evaluate(self, now: Optional[float] = None) -> List[Dict[str, Any]]:
        """Evaluate every rule once; returns the currently firing alerts.

        Rising edges emit ``alert.fired`` obslog events and tick the
        ``obs.alerts.fired`` counter; falling edges emit
        ``alert.resolved``. A rule whose inputs are missing (metric not
        yet registered, health source gone) simply does not fire.
        """
        if now is None:
            now = time.time()
        from .server import health_snapshot as _health_snapshot

        snapshot = (
            self._metrics if self._metrics is not None else _metrics_registry()
        ).snapshot()
        health = (
            self._health() if self._health is not None else _health_snapshot()
        )
        with self._lock:
            for rule in self.rules:
                state = self._states[rule.name]
                try:
                    firing, message, value = self._evaluate_rule(
                        rule, state, snapshot, health, now
                    )
                except Exception as exc:
                    firing, message, value = False, "", None
                    _obslog.log(
                        "alert.rule_error", level="warning",
                        rule=rule.name, error=repr(exc),
                    )
                self._apply_edge(rule, state, firing, message, value, now)
            self._evaluated_at = now
            return self._firing_locked()

    def _apply_edge(
        self,
        rule: AlertRule,
        state: _RuleState,
        firing: bool,
        message: str,
        value: Optional[float],
        now: float,
    ) -> None:
        if firing and not state.firing:
            state.since = now
            _counter("obs.alerts.fired").inc()
            _obslog.log(
                "alert.fired", level="warning", rule=rule.name,
                severity=rule.severity, message=message, value=value,
            )
        elif not firing and state.firing:
            _counter("obs.alerts.resolved").inc()
            _obslog.log(
                "alert.resolved", rule=rule.name,
                duration=round(now - (state.since or now), 3),
            )
            state.since = None
        state.firing = firing
        state.message = message
        state.value = value

    def _evaluate_rule(
        self,
        rule: AlertRule,
        state: _RuleState,
        snapshot: Dict[str, Dict[str, Any]],
        health: Dict[str, Any],
        now: float,
    ) -> Tuple[bool, str, Optional[float]]:
        p = rule.params
        if rule.type == "threshold":
            return self._eval_threshold(rule, snapshot, health)
        if rule.type == "rate_of_change":
            metric = str(p["metric"])
            window = float(p.get("window", 60.0))
            threshold = float(p["threshold"])
            value = _resolve_metric(snapshot, metric)
            if value is None:
                state.samples.clear()
                return False, "", None
            state.samples.append((now, value))
            while state.samples and state.samples[0][0] < now - window:
                state.samples.popleft()
            if len(state.samples) < 2:
                return False, "", None
            t0, v0 = state.samples[0]
            span = now - t0
            rate = (value - v0) / span if span > 0 else 0.0
            if abs(rate) > threshold:
                return (
                    True,
                    f"{metric} changing {rate:+.4g}/s over {span:.0f}s"
                    f" (threshold {threshold:g}/s)",
                    rate,
                )
            return False, "", rate
        if rule.type == "slo_burn":
            bad = _resolve_metric(snapshot, str(p["bad"]))
            total = _resolve_metric(snapshot, str(p["total"]))
            window = float(p.get("window", 300.0))
            objective = float(p.get("objective", 0.99))
            burn_limit = float(p.get("burn", 1.0))
            if bad is None or total is None:
                state.samples.clear()
                return False, "", None
            state.samples.append((now, bad, total))  # type: ignore[arg-type]
            while state.samples and state.samples[0][0] < now - window:
                state.samples.popleft()
            first = state.samples[0]
            d_bad = bad - first[1]
            d_total = total - first[2]  # type: ignore[misc]
            if d_total <= 0:
                return False, "", 0.0
            budget = max(1.0 - objective, 1e-12)
            burn = (d_bad / d_total) / budget
            if burn > burn_limit:
                return (
                    True,
                    f"error budget burning {burn:.2f}x (objective"
                    f" {objective:g}, {d_bad:.0f}/{d_total:.0f} bad over"
                    f" {now - first[0]:.0f}s)",
                    burn,
                )
            return False, "", burn
        if rule.type == "heartbeat_silence":
            window = float(p.get("window", 120.0))
            from .server import run_registry as _run_registry

            runs = self._runs if self._runs is not None else _run_registry()
            silent = []
            for run in runs.active():
                updated = run.get("updated_at") or run.get("started_at")
                if isinstance(updated, (int, float)) and \
                        now - updated > window:
                    silent.append((run.get("run_id", "?"), now - updated))
            if silent:
                run_id, age = max(silent, key=lambda item: item[1])
                return (
                    True,
                    f"{len(silent)} run(s) silent > {window:g}s"
                    f" (worst: {run_id} at {age:.0f}s)",
                    age,
                )
            return False, "", None
        if rule.type == "bench_sentinel":
            return self._eval_bench(rule, state)
        raise ValueError(f"unhandled rule type {rule.type!r}")

    def _eval_threshold(
        self,
        rule: AlertRule,
        snapshot: Dict[str, Dict[str, Any]],
        health: Dict[str, Any],
    ) -> Tuple[bool, str, Optional[float]]:
        p = rule.params
        op = str(p.get("op", ">"))
        if op not in _OPS:
            raise ValueError(f"unknown op {op!r}; choose from {sorted(_OPS)}")
        limit = float(p["value"])
        if p.get("source") == "health":
            spec = str(p["key"])
            raw = _resolve_health(health, spec)
            value = float(raw) if isinstance(raw, (int, float)) else None
        else:
            spec = str(p["metric"])
            value = _resolve_metric(snapshot, spec)
        if value is None:
            return False, "", None
        if _OPS[op](value, limit):
            return True, f"{spec} = {value:g} (breach: {op} {limit:g})", value
        return False, "", value

    def _eval_bench(
        self, rule: AlertRule, state: _RuleState
    ) -> Tuple[bool, str, Optional[float]]:
        p = rule.params
        path = Path(p.get("history", "BENCH_history.jsonl"))
        try:
            mtime = path.stat().st_mtime
        except OSError:
            return False, "", None
        if state.bench_mtime == mtime and state.bench_verdict is not None:
            return state.bench_verdict
        from ..bench import compare_history, read_history

        entries = read_history(path, profile=p.get("profile"))
        verdict: Tuple[bool, str, Optional[float]] = (False, "", None)
        if len(entries) >= 2:
            verdicts = compare_history(
                entries[-1], entries[:-1],
                threshold=float(p.get("threshold", 0.5)),
            )
            regressions = [
                v for v in verdicts if v["status"] == "regression"
            ]
            if regressions:
                worst = max(
                    regressions,
                    key=lambda v: v.get("ratio") or 0.0,
                )
                verdict = (
                    True,
                    f"{len(regressions)} bench regression(s); worst"
                    f" {worst['metric']} at {worst['ratio']:.2f}x median",
                    worst.get("ratio"),
                )
        state.bench_mtime = mtime
        state.bench_verdict = verdict
        return verdict

    # ------------------------------------------------------------------
    # views

    def _firing_locked(self) -> List[Dict[str, Any]]:
        out = []
        for rule in self.rules:
            state = self._states[rule.name]
            if not state.firing:
                continue
            out.append({
                "rule": rule.name,
                "severity": rule.severity,
                "type": rule.type,
                "message": state.message,
                "value": state.value,
                "since": state.since,
                "description": rule.description,
            })
        return out

    def firing(self) -> List[Dict[str, Any]]:
        with self._lock:
            return self._firing_locked()

    def snapshot(self) -> Dict[str, Any]:
        """The ``GET /api/alerts`` document."""
        with self._lock:
            return {
                "evaluated_at": self._evaluated_at,
                "rules": [r.as_dict() for r in self.rules],
                "firing": self._firing_locked(),
            }

    def health(self) -> Dict[str, Any]:
        """The ``alerts`` health source: degraded while anything fires."""
        with self._lock:
            firing = self._firing_locked()
        doc: Dict[str, Any] = {
            "rules": len(self.rules),
            "firing": len(firing),
            "degraded": bool(firing),
        }
        if firing:
            doc["alerts"] = [f["rule"] for f in firing]
        return doc


# ----------------------------------------------------------------------
# rule loading


def parse_alert_rules(text: str) -> List[AlertRule]:
    """Parse ``[[rule]]`` tables out of a TOML document.

    Uses :mod:`tomllib` when available (Python >= 3.11); otherwise a
    minimal line-oriented fallback that understands exactly the subset
    alert files use — ``[[rule]]`` headers and ``key = value`` pairs with
    string/number/boolean values.
    """
    try:
        import tomllib
    except ImportError:  # Python 3.10
        doc = _parse_toml_minimal(text)
    else:
        doc = tomllib.loads(text)
    rules = []
    for entry in doc.get("rule", []):
        if not isinstance(entry, dict):
            continue
        entry = dict(entry)
        name = str(entry.pop("name", f"rule-{len(rules) + 1}"))
        rtype = str(entry.pop("type", "threshold"))
        severity = str(entry.pop("severity", "warning"))
        description = str(entry.pop("description", ""))
        rules.append(AlertRule(
            name=name, type=rtype, severity=severity,
            description=description, params=entry,
        ))
    return rules


def load_alert_rules(
    path: Union[str, Path] = DEFAULT_RULES_PATH,
) -> List[AlertRule]:
    """Load rules from a TOML file; a missing file is an empty rule set."""
    path = Path(path)
    if not path.exists():
        return []
    return parse_alert_rules(path.read_text(encoding="utf-8"))


def _parse_toml_minimal(text: str) -> Dict[str, Any]:
    """The tiny TOML subset fallback (``[[rule]]`` + scalar pairs)."""
    doc: Dict[str, Any] = {}
    current: Optional[Dict[str, Any]] = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[[") and line.endswith("]]"):
            table = line[2:-2].strip()
            current = {}
            doc.setdefault(table, []).append(current)
            continue
        if line.startswith("[") and line.endswith("]"):
            current = None  # plain tables unsupported; skip their keys
            continue
        if "=" not in line or current is None:
            continue
        key, _, value = line.partition("=")
        current[key.strip()] = _parse_toml_scalar(value.strip())
    return doc


def _parse_toml_scalar(token: str) -> Any:
    if token.startswith('"') and token.endswith('"') and len(token) >= 2:
        return token[1:-1]
    if token.startswith("'") and token.endswith("'") and len(token) >= 2:
        return token[1:-1]
    if token in ("true", "false"):
        return token == "true"
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        return token
