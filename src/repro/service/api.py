"""HTTP job API: ``ObsServer`` promoted to a service plane.

:class:`ServiceServer` extends :class:`repro.obs.ObsServer` — the
read-only ``/metrics`` / ``/runs`` / ``/healthz`` endpoints keep working
unchanged — with a JSON job API over the run store and queue:

``POST /api/jobs``
    Submit a job spec (see :mod:`repro.service.specs`); responds ``202``
    with the run id and its ``/api/jobs/<id>`` location. Bodies are
    bounded (:data:`MAX_BODY_BYTES`); invalid specs get ``400`` with
    every validation error listed.
``GET /api/jobs/<id>``
    Manifest + progress + artifact listing (poll this until terminal).
``GET /api/jobs/<id>/result``
    The deterministic result document; ``409`` while not terminal.
``GET /api/jobs/<id>/artifacts/<name>``
    Raw artifact bytes (telemetry, report, spec, hash manifest, ...).
``DELETE /api/jobs/<id>``
    Cancel: immediate for PENDING runs, cooperative for RUNNING ones.
``GET /api/runs``
    The whole store, newest first, plus live queue depth.
``GET /api/runs/<id>/events``
    SSE-style tail of the run's telemetry journal: replays what is
    journaled, then follows a live run (``?timeout=`` seconds, clamped)
    until it goes terminal — job life-cycle, span, worker, and B&B
    search-tree events as ``event:``/``data:`` frames.

Everything is stdlib-only and bound to ``127.0.0.1`` by default — the
service plane is a local (or reverse-proxied) API, not an internet-facing
one.
"""

from __future__ import annotations

import json
import re
import time
import urllib.parse
from typing import Any, Dict, Optional, Tuple

from ..obs.obslog import read_jsonl
from ..obs.server import ObsServer, _ObsHandler
from .queue import JobQueue
from .specs import SpecError
from .store import TELEMETRY_NAME, TERMINAL_STATES, RESULT_NAME, RunRecord

__all__ = ["ServiceServer", "MAX_BODY_BYTES", "MAX_TAIL_SECONDS"]

#: Largest request body ``POST /api/jobs`` accepts.
MAX_BODY_BYTES = 1 << 20

#: Longest a ``/events`` tail may follow a live run (``?timeout=`` clamp).
MAX_TAIL_SECONDS = 300.0

#: How often the tail re-polls the telemetry journal of a live run.
_TAIL_POLL_SECONDS = 0.2

_JOB_PATH = re.compile(
    r"^/api/jobs/(?P<run_id>[A-Za-z0-9._\-]+)"
    r"(?:/(?P<sub>result|artifacts/(?P<artifact>[A-Za-z0-9._\-]+)))?$"
)

_EVENTS_PATH = re.compile(
    r"^/api/runs/(?P<run_id>[A-Za-z0-9._\-]+)/events$"
)

_CONTENT_TYPES = {
    ".json": "application/json",
    ".jsonl": "application/x-ndjson",
    ".txt": "text/plain; charset=utf-8",
    ".sha256": "text/plain; charset=utf-8",
}


def status_document(record: RunRecord, queue: JobQueue) -> Dict[str, Any]:
    doc = record.as_dict()
    doc["terminal"] = record.terminal
    doc["artifacts"] = sorted(
        p.name for p in record.path.iterdir()
        if p.is_file() and not p.name.endswith(".tmp")
    )
    doc["queue"] = {
        "active": record.run_id in queue.active(),
        "workers": queue.workers,
    }
    return doc


class _ServiceHandler(_ObsHandler):
    server_version = "repro-service/1.0"

    # -- helpers ----------------------------------------------------------

    @property
    def _service(self) -> JobQueue:
        return self.obs_server.service  # type: ignore[attr-defined]

    def _send_json(self, code: int, document: Dict[str, Any]) -> None:
        self._send(code, "application/json",
                   json.dumps(document, sort_keys=True, default=str) + "\n")

    def _send_error_json(self, code: int, message: str, **extra: Any) -> None:
        self._send_json(code, {"error": message, **extra})

    def _load_run(self, run_id: str) -> Optional[RunRecord]:
        try:
            return self._service.store.load(run_id)
        except KeyError:
            self._send_error_json(404, f"unknown run {run_id!r}")
            return None

    def _read_body(self) -> Optional[bytes]:
        length = self.headers.get("Content-Length")
        if length is None:
            self._send_error_json(411, "Content-Length required")
            return None
        try:
            length = int(length)
        except ValueError:
            self._send_error_json(400, "bad Content-Length")
            return None
        if length > MAX_BODY_BYTES:
            # Drain modest overshoots so the client can finish writing
            # before we answer (otherwise it may see a broken pipe instead
            # of the 413); absurd bodies just get the connection dropped.
            if length <= MAX_BODY_BYTES * 8:
                remaining = length
                while remaining > 0:
                    chunk = self.rfile.read(min(remaining, 65536))
                    if not chunk:
                        break
                    remaining -= len(chunk)
            else:
                self.close_connection = True
            self._send_error_json(
                413, f"body exceeds {MAX_BODY_BYTES} bytes", limit=MAX_BODY_BYTES
            )
            return None
        return self.rfile.read(length)

    # -- routes -----------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        path = self.path.split("?", 1)[0]
        if path == "/":
            self._send(
                200, "text/plain; charset=utf-8",
                "repro.service endpoints: "
                + " ".join(self.obs_server.endpoints()) + "\n",
            )
            return
        if path == "/api/runs":
            store = self._service.store
            self._send_json(200, {
                "runs": [r.as_dict() for r in store.list()],
                "queue": {"pending": self._service.pending(),
                          "active": sorted(self._service.active())},
            })
            return
        events = _EVENTS_PATH.match(path)
        if events is not None:
            record = self._load_run(events.group("run_id"))
            if record is not None:
                self._stream_events(record, self._tail_timeout())
            return
        match = _JOB_PATH.match(path)
        if match is None:
            super().do_GET()
            return
        record = self._load_run(match.group("run_id"))
        if record is None:
            return
        sub = match.group("sub")
        if sub is None:
            self._send_json(200, status_document(record, self._service))
        elif sub == "result":
            self._send_result(record)
        else:
            self._send_artifact(record, match.group("artifact"))

    def _send_result(self, record: RunRecord) -> None:
        if record.state not in TERMINAL_STATES:
            self._send_error_json(
                409, f"run {record.run_id!r} is {record.state}; "
                "poll /api/jobs/<id> until terminal", state=record.state,
            )
            return
        path = record.artifact(RESULT_NAME)
        if not path.is_file():
            self._send_error_json(
                404, f"run {record.run_id!r} produced no result document",
                state=record.state, error=record.manifest.get("error"),
            )
            return
        self._send_bytes(200, "application/json", path.read_bytes())

    def _send_artifact(self, record: RunRecord, name: str) -> None:
        # The path regex already rejects separators; resolve() is a
        # belt-and-braces guard against traversal all the same.
        path = record.artifact(name)
        if not path.is_file() or path.resolve().parent != record.path.resolve():
            self._send_error_json(404, f"no artifact {name!r}")
            return
        content_type = _CONTENT_TYPES.get(path.suffix,
                                          "application/octet-stream")
        self._send_bytes(200, content_type, path.read_bytes())

    def _tail_timeout(self) -> float:
        """The ``?timeout=`` follow budget, clamped to the server limit."""
        query = urllib.parse.urlparse(self.path).query
        raw = urllib.parse.parse_qs(query).get("timeout", ["30"])[-1]
        try:
            timeout = float(raw)
        except ValueError:
            timeout = 30.0
        return max(0.0, min(timeout, MAX_TAIL_SECONDS))

    def _stream_events(self, record: RunRecord, timeout: float) -> None:
        """SSE-style tail of a run's telemetry journal.

        Replays every journaled event as an ``event:``/``data:`` frame,
        then — while the run is live and the ``timeout`` budget lasts —
        keeps polling the journal for fresh appends, so ``curl -N`` (or
        the tests) can watch queue workers, span boundaries, and B&B
        search events arrive in real time. A final ``end`` frame carries
        the run's state at disconnect. No ``Content-Length``: the
        stream's length is unknowable up front.
        """
        telemetry = record.artifact(TELEMETRY_NAME)
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-cache")
        self.end_headers()
        deadline = time.monotonic() + timeout
        offset = 0
        try:
            while True:
                offset = self._emit_frames(telemetry, offset)
                try:
                    record = self._service.store.load(record.run_id)
                except KeyError:  # deleted mid-tail
                    break
                if record.terminal or time.monotonic() >= deadline:
                    break
                time.sleep(_TAIL_POLL_SECONDS)
            self.wfile.write(
                b"event: end\ndata: "
                + json.dumps({"run_id": record.run_id,
                              "state": record.state}).encode("utf-8")
                + b"\n\n"
            )
            self.wfile.flush()
        except (BrokenPipeError, ConnectionResetError):
            self.close_connection = True

    def _emit_frames(self, telemetry, offset: int) -> int:
        """Write frames for journal lines past ``offset``; new offset.

        Only complete lines are consumed — the runner may be mid-append —
        so a partial trailing line is retried on the next poll.
        """
        try:
            docs, end = read_jsonl(telemetry, offset)
        except OSError:  # not journaled yet
            return offset
        for doc in docs:
            name = str(doc.get("event") or "event")
            self.wfile.write(
                f"event: {name}\n".encode("utf-8")
                + b"data: "
                + json.dumps(doc, sort_keys=True, default=str).encode("utf-8")
                + b"\n\n"
            )
        self.wfile.flush()
        return end

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        path = self.path.split("?", 1)[0]
        if path != "/api/jobs":
            self._send_error_json(404, "POST /api/jobs is the only POST route")
            return
        body = self._read_body()
        if body is None:
            return
        try:
            spec = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            self._send_error_json(400, f"invalid JSON body: {exc}")
            return
        try:
            record = self._service.submit(spec)
        except SpecError as exc:
            self._send_error_json(400, "invalid job spec",
                                  problems=exc.errors)
            return
        except RuntimeError as exc:  # queue shutting down
            self._send_error_json(503, str(exc))
            return
        self._send_json(202, {
            "run_id": record.run_id,
            "state": record.state,
            "location": f"/api/jobs/{record.run_id}",
        })

    def do_DELETE(self) -> None:  # noqa: N802 - http.server API
        match = _JOB_PATH.match(self.path.split("?", 1)[0])
        if match is None or match.group("sub") is not None:
            self._send_error_json(404, "DELETE /api/jobs/<id> cancels a run")
            return
        record = self._load_run(match.group("run_id"))
        if record is None:
            return
        try:
            record = self._service.cancel(record.run_id)
        except ValueError as exc:
            self._send_error_json(409, str(exc), state=record.state)
            return
        self._send_json(200, {"run_id": record.run_id,
                              "state": record.state})

    # -- low-level --------------------------------------------------------

    def _send_bytes(self, code: int, content_type: str,
                    payload: bytes) -> None:
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)


class ServiceServer(ObsServer):
    """The observability server plus the ``/api`` job routes.

    Usage (the CLI's ``repro serve`` does exactly this)::

        store = RunStore(".archex/runs")
        queue = JobQueue(store, cache_dir=".archex/cache").start()
        server = ServiceServer(queue, port=8181).start()
        ...
        server.stop(); queue.shutdown()
    """

    handler_class = _ServiceHandler

    def __init__(self, service: JobQueue, host: str = "127.0.0.1",
                 port: int = 0, **kwargs: Any) -> None:
        super().__init__(host=host, port=port, **kwargs)
        self.service = service

    def endpoints(self) -> Tuple[str, ...]:
        return ("/api/jobs", "/api/runs", "/api/runs/<id>/events",
                "/metrics", "/runs", "/healthz")
