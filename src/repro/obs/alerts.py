"""Declarative alert rules evaluated against the live observability plane.

Operators describe what "trouble" looks like in ``.archex/alerts.toml``;
the :class:`AlertEngine` evaluates the rules against the process-global
metrics registry and the registered ``/healthz`` sources, and the
ObsServer background loop re-evaluates periodically. Firing alerts
surface in three places at once: ``GET /api/alerts``, the ``/healthz``
document (the ``alerts`` source reports ``degraded: true``, flipping the
probe's top-level status), and the structured obslog (``alert.fired`` /
``alert.resolved`` edge events).

There is one rule type, ``threshold`` (``type =`` may be left out). It
compares a metric (``metric = "engine.jobs.completed"``; histogram names
take a statistic suffix — ``engine.job.seconds.p95``) or a ``/healthz``
field (``source = "health"``, ``key = "queue.queue_depth"``) against
``value`` with ``op``. Two health fields catch hung work:

* ``queue.oldest_lease_age`` — seconds since the stalest queue lease's
  heartbeat; above the lease ttl, a worker died holding it;
* ``runs.oldest_update_age`` — seconds since the oldest active run last
  reported progress (absent while no run is active); a hung loop that
  still holds its registration.

Questions over a trailing window (job rate, retry or failure ratio) are
warehouse SQL over the ``jobs`` table (``repro obs query``), and bench
regressions are ``repro bench --compare``. A rule is checked when it is
built: an unknown type, key or op, or a missing ``value``, fails the
load with the rule's name.

Each rule fires at most one alert per breach, so ``obs.alerts.fired``
counts incidents, not evaluations.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any, Callable, Dict, List, NoReturn, Optional, Tuple, Union,
)

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

RULE_TYPE = "threshold"

#: What each retired rule type is written as now.
_REPLACED = {
    "heartbeat_silence": 'a threshold rule with source = "health" and'
                         ' key = "runs.oldest_update_age"',
    "rate_of_change": "warehouse SQL over the jobs table (repro obs query)",
    "slo_burn": "warehouse SQL over the jobs table (repro obs query)",
    "bench_sentinel": "repro bench --compare",
}

SEVERITIES = ("info", "warning", "critical")

_OPS: Dict[str, Callable[[float, float], bool]] = {
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
}

#: The keys a rule's ``params`` may hold.
_PARAMS = ("metric", "source", "key", "op", "value")

#: Histogram statistic suffixes accepted on ``metric`` specs.
_STATS = ("p50", "p90", "p95", "p99", "mean", "count", "sum", "min", "max",
          "value")


@dataclass
class AlertRule:
    """One threshold rule: ``params`` holds ``metric`` (or ``source =
    "health"`` with ``key``), ``op`` (default ``>``) and ``value``."""

    name: str
    type: str
    severity: str = "warning"
    description: str = ""
    params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.type != RULE_TYPE:
            use = _REPLACED.get(self.type, f"type = {RULE_TYPE!r}")
            self._reject(f"unknown type {self.type!r}; use {use}")
        if self.severity not in SEVERITIES:
            self._reject(f"unknown severity {self.severity!r};"
                         f" choose from {SEVERITIES}")
        p = self.params
        for key in p:
            if key not in _PARAMS:
                self._reject(f"unknown key {key!r}; choose from {_PARAMS}")
        if p.get("op", ">") not in _OPS:
            self._reject(f"key 'op' is {p['op']!r};"
                         f" choose from {sorted(_OPS)}")
        if "value" not in p:
            self._reject("missing key 'value', the limit")
        if isinstance(p["value"], bool) or \
                not isinstance(p["value"], (int, float)):
            self._reject(f"key 'value' must be a number, got {p['value']!r}")
        if ("metric" in p) == ("source" in p or "key" in p):
            self._reject("set exactly one of key 'metric' or"
                         " source = \"health\" with key 'key'")
        if "metric" not in p and p.get("source") != "health":
            self._reject(f"key 'source' must be \"health\","
                         f" got {p.get('source')!r}")
        spec = p.get("metric", p.get("key"))
        if not isinstance(spec, str) or not spec:
            which = "metric" if "metric" in p else "key"
            self._reject(f"key {which!r} must be a non-empty string,"
                         f" got {spec!r}")

    def _reject(self, problem: str) -> NoReturn:
        raise ValueError(f"alert rule {self.name!r}: {problem}")

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
    """Per-rule firing edge."""

    __slots__ = ("firing", "since", "message", "value")

    def __init__(self) -> None:
        self.firing = False
        self.since: Optional[float] = None
        self.message = ""
        self.value: Optional[float] = None


class AlertEngine:
    """Evaluates a rule set against live registries; tracks firing edges."""

    def __init__(
        self,
        rules: List[AlertRule],
        metrics=None,
        health: Optional[Callable[[], Dict[str, Any]]] = None,
    ) -> None:
        self.rules = list(rules)
        self._metrics = metrics
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
                        rule, snapshot, health
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

    @staticmethod
    def _evaluate_rule(
        rule: AlertRule,
        snapshot: Dict[str, Dict[str, Any]],
        health: Dict[str, Any],
    ) -> Tuple[bool, str, Optional[float]]:
        p = rule.params
        op = p.get("op", ">")
        limit = p["value"]
        if "metric" in p:
            spec = p["metric"]
            value = _resolve_metric(snapshot, spec)
        else:
            spec = p["key"]
            raw = _resolve_health(health, spec)
            value = float(raw) if isinstance(raw, (int, float)) else None
        if value is None:
            return False, "", None
        if _OPS[op](value, limit):
            return True, f"{spec} = {value:g} (breach: {op} {limit:g})", value
        return False, "", value

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
    alert files use — ``[[rule]]`` headers, ``key = value`` pairs with
    string/number/boolean values, and ``#`` comments. A malformed rule
    raises :class:`ValueError` naming it.
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
        rtype = str(entry.pop("type", RULE_TYPE))
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
        line = _strip_comment(raw).strip()
        if not line:
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


def _strip_comment(line: str) -> str:
    """``line`` without a ``#`` comment that lies outside a quoted string."""
    quote = None
    for i, ch in enumerate(line):
        if quote is not None:
            if ch == quote:
                quote = None
        elif ch in "\"'":
            quote = ch
        elif ch == "#":
            return line[:i]
    return line


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
