"""Live observability endpoint: ``/metrics``, ``/healthz``, ``/runs``.

A stdlib-only background HTTP thread (:class:`ObsServer`) that makes a
long-running sweep watchable while it runs:

``/metrics``
    The process-global :class:`repro.obs.MetricsRegistry` rendered in
    Prometheus text exposition format (version 0.0.4): ``# HELP`` /
    ``# TYPE`` per metric, counters with the ``_total`` suffix,
    histograms as cumulative ``_bucket{le="..."}`` series plus ``_sum``
    and ``_count``, and a labeled ``repro_runs_active`` gauge per run
    kind. ``curl localhost:PORT/metrics`` or point a Prometheus scrape
    job at it.
``/healthz``
    A JSON liveness document while the server thread is alive. Beyond
    ``{"status": "ok"}``, subsystems register *health sources*
    (:func:`add_health_source`) that contribute named sub-documents —
    the queue coordinator reports queue depth, active lease count, and
    spool backlog, so a stalled worker fleet is visible from a probe,
    and the server reports its run registry's active run count and the
    oldest active run's seconds since its last progress update.
``/runs``
    A JSON snapshot of the :class:`RunRegistry`: every in-flight ILP-MR /
    ILP-AR synthesis (current iteration, cost, reliability) and batch
    (jobs done/failed/total), plus a ring of recently finished runs.

The server is read-only and binds to ``127.0.0.1`` by default; ``port=0``
picks an ephemeral port (read it back from :attr:`ObsServer.port`).
Starting the server registers a metrics observer
(:func:`repro.obs.add_observer`) so instrumented code records even when
no tracer is installed.
"""

from __future__ import annotations

import itertools
import json
import os
import re
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional

from . import obslog as _obslog
from . import tracer as _tracer
from .metrics import registry as _metrics_registry

__all__ = [
    "RunHandle",
    "RunRegistry",
    "ObsServer",
    "run_registry",
    "reset_run_registry",
    "render_prometheus",
    "escape_label_value",
    "prometheus_name",
    "add_health_source",
    "remove_health_source",
    "health_snapshot",
]


# ---------------------------------------------------------------------------
# Health sources: subsystems contributing to /healthz

#: Registered ``name -> callable`` health sources; each returns a JSON-
#: serializable dict merged into the /healthz document under its name.
_HEALTH_SOURCES: Dict[str, Any] = {}
_HEALTH_LOCK = threading.Lock()


def add_health_source(name: str, source) -> None:
    """Register ``source()`` to contribute ``/healthz`` data as ``name``.

    The queue coordinator registers one reporting queue depth / leases /
    spool backlog for the lifetime of the drain; re-registering a name
    replaces the previous source.
    """
    with _HEALTH_LOCK:
        _HEALTH_SOURCES[name] = source


def remove_health_source(name: str) -> None:
    with _HEALTH_LOCK:
        _HEALTH_SOURCES.pop(name, None)


def health_snapshot() -> Dict[str, Any]:
    """The ``/healthz`` document: liveness plus every source's report.

    A failing source degrades to an ``{"error": ...}`` sub-document
    rather than failing the probe — health reporting must never make a
    healthy server look dead. A source reporting ``degraded: true``
    (e.g. the alert engine while rules fire) flips the top-level
    ``status`` to ``"degraded"`` so load balancers and probes see it
    without parsing sub-documents.
    """
    with _HEALTH_LOCK:
        sources = dict(_HEALTH_SOURCES)
    doc: Dict[str, Any] = {"status": "ok"}
    for name, source in sorted(sources.items()):
        try:
            doc[name] = source()
        except Exception as exc:  # pragma: no cover - defensive
            doc[name] = {"error": f"{type(exc).__name__}: {exc}"}
    if any(
        isinstance(sub, dict) and sub.get("degraded")
        for sub in doc.values()
    ):
        doc["status"] = "degraded"
    return doc


# ---------------------------------------------------------------------------
# Run registry: live snapshots of in-flight work


class RunHandle:
    """One registered run; loops call :meth:`update` as they progress."""

    __slots__ = ("_registry", "run_id", "kind", "started_at", "finished_at",
                 "updated_at", "status", "attrs")

    def __init__(self, registry: "RunRegistry", run_id: str, kind: str,
                 attrs: Dict[str, Any]) -> None:
        self._registry = registry
        self.run_id = run_id
        self.kind = kind
        self.started_at = time.time()
        self.updated_at = self.started_at
        self.finished_at: Optional[float] = None
        self.status = "running"
        self.attrs = attrs

    def update(self, **attrs: Any) -> "RunHandle":
        """Merge progress attributes (iteration, cost, done/total, ...).

        Also stamps :attr:`updated_at` — the heartbeat behind the
        ``runs.oldest_update_age`` health field that a threshold alert
        rule watches for hung loops.
        """
        with self._registry._lock:
            self.attrs.update(attrs)
            self.updated_at = time.time()
        return self

    def finish(self, status: str = "done", **attrs: Any) -> None:
        """Mark the run finished; it moves to the recently-finished ring."""
        self._registry._finish(self, status, attrs)

    def as_dict(self) -> Dict[str, Any]:
        d: Dict[str, Any] = {
            "run_id": self.run_id,
            "kind": self.kind,
            "status": self.status,
            "started_at": self.started_at,
            "updated_at": self.updated_at,
            "elapsed": round(
                (self.finished_at or time.time()) - self.started_at, 6
            ),
        }
        d.update(self.attrs)
        return d


class RunRegistry:
    """Thread-safe registry of in-flight and recently finished runs.

    ``start()`` is cheap (a dict insert) and always on — unlike spans,
    run registration has no enable gate, so a scrape arriving at any
    moment sees the truth. Finished runs are kept in a bounded ring so
    ``/runs`` can show what just happened without growing forever.
    """

    def __init__(self, keep_finished: int = 32) -> None:
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._active: Dict[str, RunHandle] = {}
        self._finished: List[RunHandle] = []
        self._keep_finished = keep_finished

    def start(self, kind: str, **attrs: Any) -> RunHandle:
        run_id = f"{kind}-{os.getpid()}-{next(self._ids)}"
        handle = RunHandle(self, run_id, kind, attrs)
        with self._lock:
            self._active[run_id] = handle
        return handle

    def _finish(self, handle: RunHandle, status: str,
                attrs: Dict[str, Any]) -> None:
        with self._lock:
            if handle.finished_at is not None:  # double finish
                return
            handle.status = status
            handle.finished_at = time.time()
            handle.updated_at = handle.finished_at
            handle.attrs.update(attrs)
            self._active.pop(handle.run_id, None)
            self._finished.append(handle)
            del self._finished[: -self._keep_finished]

    def active(self) -> List[Dict[str, Any]]:
        with self._lock:
            return [h.as_dict() for h in self._active.values()]

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "active": [h.as_dict() for h in self._active.values()],
                "finished": [h.as_dict() for h in self._finished],
            }

    def active_by_kind(self) -> Dict[str, int]:
        with self._lock:
            counts: Dict[str, int] = {}
            for h in self._active.values():
                counts[h.kind] = counts.get(h.kind, 0) + 1
            return counts

    def health(self) -> Dict[str, Any]:
        """The ``runs`` health source: active runs and the oldest one's
        seconds since its last update (absent while no run is active)."""
        now = time.time()
        with self._lock:
            ages = [now - h.updated_at for h in self._active.values()]
        doc: Dict[str, Any] = {"active": len(ages)}
        if ages:
            doc["oldest_update_age"] = round(max(ages), 3)
        return doc

    def reset(self) -> None:
        with self._lock:
            self._active.clear()
            self._finished.clear()

    def __len__(self) -> int:
        return len(self._active)


#: The process-global run registry the synthesis loops and the batch
#: executor report into.
_RUN_REGISTRY = RunRegistry()


def run_registry() -> RunRegistry:
    return _RUN_REGISTRY


def reset_run_registry() -> None:
    _RUN_REGISTRY.reset()


# ---------------------------------------------------------------------------
# Prometheus text exposition (format version 0.0.4)

_NAME_OK = re.compile(r"[^a-zA-Z0-9_:]")


def prometheus_name(name: str) -> str:
    """Dotted registry name -> valid Prometheus metric name."""
    return "repro_" + _NAME_OK.sub("_", name)


def escape_label_value(value: Any) -> str:
    """Escape a label value per the exposition format: ``\\``, ``"``, LF."""
    return (
        str(value)
        .replace("\\", r"\\")
        .replace('"', r"\"")
        .replace("\n", r"\n")
    )


def _format_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _format_le(bound: float) -> str:
    return "+Inf" if bound == float("inf") else _format_value(bound)


def render_prometheus(
    metrics: Optional[Dict[str, Dict[str, Any]]] = None,
    runs: Optional[RunRegistry] = None,
) -> str:
    """Render a metrics snapshot as Prometheus text exposition.

    ``metrics`` defaults to the live global registry's snapshot and
    ``runs`` to the global run registry; pass explicit values for
    deterministic golden-file tests.
    """
    if metrics is None:
        metrics = _metrics_registry().snapshot()
    if runs is None:
        runs = _RUN_REGISTRY

    lines: List[str] = []

    def header(pname: str, ptype: str, original: str) -> None:
        lines.append(f"# HELP {pname} repro.obs metric {original}")
        lines.append(f"# TYPE {pname} {ptype}")

    for name, data in sorted(metrics.items()):
        kind = data.get("kind")
        pname = prometheus_name(name)
        if kind == "counter":
            pname += "_total"
            header(pname, "counter", name)
            lines.append(f"{pname} {_format_value(data.get('value', 0))}")
        elif kind == "gauge":
            value = data.get("value")
            if value is None:
                continue
            header(pname, "gauge", name)
            lines.append(f"{pname} {_format_value(value)}")
        elif kind == "histogram":
            header(pname, "histogram", name)
            bounds = list(data.get("bounds", ())) + [float("inf")]
            counts = data.get("bucket_counts")
            if counts is None or len(counts) != len(bounds):
                # Pre-bucket snapshot (e.g. merged from an older worker):
                # everything lands in +Inf, which is still conformant.
                counts = [0] * (len(bounds) - 1) + [data.get("count", 0)]
            cumulative = 0
            for bound, count in zip(bounds, counts):
                cumulative += count
                lines.append(
                    f'{pname}_bucket{{le="{_format_le(bound)}"}} {cumulative}'
                )
            lines.append(f"{pname}_sum {_format_value(data.get('sum', 0.0))}")
            lines.append(f"{pname}_count {data.get('count', 0)}")

    active = runs.active_by_kind()
    header("repro_runs_active", "gauge", "runs.active")
    if active:
        for kind in sorted(active):
            lines.append(
                f'repro_runs_active{{kind="{escape_label_value(kind)}"}} '
                f"{active[kind]}"
            )
    else:
        lines.append("repro_runs_active 0")

    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# The HTTP server


class _ObsHandler(BaseHTTPRequestHandler):
    server_version = "repro-obs/1.0"
    # Set by ObsServer.start() on the handler subclass it builds.
    obs_server: "ObsServer"

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        path = self.path.split("?", 1)[0]
        if path == "/healthz":
            body = json.dumps(
                health_snapshot(), sort_keys=True, default=str
            ) + "\n"
            self._send(200, "application/json", body)
        elif path == "/metrics":
            body = render_prometheus(
                metrics=self.obs_server.metrics.snapshot(),
                runs=self.obs_server.runs,
            )
            self._send(
                200, "text/plain; version=0.0.4; charset=utf-8", body
            )
        elif path == "/runs":
            body = json.dumps(
                self.obs_server.runs.snapshot(), sort_keys=True, default=str
            ) + "\n"
            self._send(200, "application/json", body)
        elif path == "/api/alerts":
            alerts = self.obs_server.alerts
            if alerts is None:
                doc: Dict[str, Any] = {
                    "evaluated_at": None, "rules": [], "firing": [],
                }
            else:
                # Evaluate on demand so a probe right after a breach sees
                # it without waiting out the background interval.
                alerts.evaluate()
                doc = alerts.snapshot()
            body = json.dumps(doc, sort_keys=True, default=str) + "\n"
            self._send(200, "application/json", body)
        elif path == "/":
            self._send(
                200, "text/plain; charset=utf-8",
                "repro.obs endpoints: /metrics /runs /healthz /api/alerts\n",
            )
        else:
            self._send(404, "text/plain; charset=utf-8", "not found\n")

    def _send(self, code: int, content_type: str, body: str) -> None:
        payload = body.encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args: Any) -> None:  # pragma: no cover - quiet
        pass


class ObsServer:
    """Background HTTP thread exposing ``/metrics``, ``/runs``, ``/healthz``.

    Usage (the CLI's ``--serve PORT`` does exactly this)::

        server = ObsServer(port=9200).start()
        ...  # long sweep; scrape http://127.0.0.1:9200/metrics meanwhile
        server.stop()

    Also a context manager. While running, a metrics observer is
    registered so instrumented code keeps its counters ticking without a
    tracer.

    ``port=0`` binds an ephemeral port; :attr:`port` (and :attr:`url`)
    reflect the *actual* bound port the moment :meth:`start` returns, and
    the startup obslog line (``obs.server_started``) carries it too — so
    callers can always print a connectable URL. Subclasses override
    :attr:`handler_class` to extend the route table
    (:class:`repro.service.ServiceServer` adds the ``/api`` job routes).
    """

    #: Request handler the server builds its bound subclass from;
    #: subclasses swap in an extended handler to add routes.
    handler_class = _ObsHandler

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        metrics=None,
        runs: Optional[RunRegistry] = None,
        alerts=None,
        alert_interval: float = 5.0,
    ) -> None:
        self.host = host
        self._requested_port = port
        self.metrics = metrics if metrics is not None else _metrics_registry()
        self.runs = runs if runs is not None else _RUN_REGISTRY
        #: Optional :class:`repro.obs.AlertEngine`; while the server runs
        #: it is re-evaluated every ``alert_interval`` seconds and serves
        #: ``GET /api/alerts``.
        self.alerts = alerts
        self.alert_interval = alert_interval
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None
        self._alert_thread: Optional[threading.Thread] = None
        self._alert_stop = threading.Event()

    @property
    def running(self) -> bool:
        return self._httpd is not None

    @property
    def port(self) -> int:
        if self._httpd is None:
            return self._requested_port
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ObsServer":
        if self._httpd is not None:
            return self
        handler = type(
            "_BoundObsHandler", (self.handler_class,), {"obs_server": self}
        )
        self._httpd = ThreadingHTTPServer(
            (self.host, self._requested_port), handler
        )
        self._httpd.daemon_threads = True
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name=f"repro-obs-server-{self.port}",
            daemon=True,
        )
        self._thread.start()
        add_health_source("runs", self.runs.health)
        if self.alerts is not None:
            add_health_source("alerts", self.alerts.health)
            self._alert_stop.clear()
            self._alert_thread = threading.Thread(
                target=self._alert_loop,
                name=f"repro-obs-alerts-{self.port}",
                daemon=True,
            )
            self._alert_thread.start()
        _tracer.add_observer()
        # The bound (not the requested) port: with port=0 this is the
        # ephemeral port the OS picked, so the line is always connectable.
        _obslog.log(
            "obs.server_started", host=self.host, port=self.port,
            url=self.url, requested_port=self._requested_port,
        )
        return self

    def _alert_loop(self) -> None:
        while not self._alert_stop.wait(self.alert_interval):
            try:
                self.alerts.evaluate()
            except Exception as exc:  # pragma: no cover - defensive
                _obslog.log(
                    "alert.loop_error", level="warning", error=repr(exc)
                )

    def stop(self) -> None:
        httpd, self._httpd = self._httpd, None
        thread, self._thread = self._thread, None
        alert_thread, self._alert_thread = self._alert_thread, None
        if httpd is None:
            return
        if alert_thread is not None:
            self._alert_stop.set()
            alert_thread.join(timeout=5.0)
            remove_health_source("alerts")
        remove_health_source("runs")
        httpd.shutdown()
        httpd.server_close()
        if thread is not None:
            thread.join(timeout=5.0)
        _tracer.remove_observer()

    def __enter__(self) -> "ObsServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
