"""HTTP job API end-to-end: submit, poll, results, artifacts, errors.

The centerpiece is the acceptance test: a sweep POSTed to the service
must produce a ``results`` array byte-identical to a direct
``repro.engine.run_batch`` of the same spec, and the sealed run directory
must pass (and, after tampering, fail) evidence verification.
"""

import http.client
import json
import time
import urllib.error
import urllib.request

import pytest

from repro.engine import run_batch
from repro.service import (
    CANCELLED,
    DONE,
    PENDING,
    JobQueue,
    MANIFEST_FILENAME,
    RunStore,
    ServiceServer,
    build_batch,
    canonical_results,
    normalize_job_spec,
    verify_evidence,
)

SWEEP_SPEC = {
    "kind": "sweep",
    "params": {"domain": "eps", "size": 2, "levels": [2e-3, 2e-6],
               "backend": "scipy", "algorithm": "mr"},
}


def request(url, method="GET", body=None, timeout=30):
    """(status, parsed-or-raw body, headers) without raising on 4xx."""
    req = urllib.request.Request(url, data=body, method=method)
    if body is not None:
        req.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            raw = resp.read()
            code, headers = resp.status, dict(resp.headers)
    except urllib.error.HTTPError as err:
        raw = err.read()
        code, headers = err.code, dict(err.headers)
    try:
        return code, json.loads(raw), headers
    except (json.JSONDecodeError, UnicodeDecodeError):
        return code, raw, headers


def poll_terminal(base, run_id, timeout=120.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        code, doc, _ = request(f"{base}/api/jobs/{run_id}")
        assert code == 200
        if doc["terminal"]:
            return doc
        time.sleep(0.2)
    raise AssertionError(f"run {run_id} never reached a terminal state")


@pytest.fixture()
def service(tmp_path):
    """A live service with started workers; yields (base_url, store)."""
    store = RunStore(tmp_path / "runs")
    queue = JobQueue(store, cache_dir=str(tmp_path / "cache")).start()
    server = ServiceServer(queue, port=0).start()
    yield server.url, store
    server.stop()
    queue.shutdown()


@pytest.fixture()
def idle_service(tmp_path):
    """A service whose queue never starts: runs stay PENDING forever."""
    store = RunStore(tmp_path / "runs")
    queue = JobQueue(store)
    server = ServiceServer(queue, port=0).start()
    yield server.url, store
    server.stop()


class TestEndToEnd:
    def test_posted_sweep_matches_direct_run_batch_bit_for_bit(
        self, service, tmp_path
    ):
        base, store = service
        code, sub, _ = request(
            f"{base}/api/jobs", method="POST",
            body=json.dumps(SWEEP_SPEC).encode(),
        )
        assert code == 202
        assert sub["location"] == f"/api/jobs/{sub['run_id']}"

        doc = poll_terminal(base, sub["run_id"])
        assert doc["state"] == DONE
        assert doc["progress"]["done"] == 2

        code, result, _ = request(f"{base}/api/jobs/{sub['run_id']}/result")
        assert code == 200
        assert result["run_id"] == sub["run_id"]

        # The same spec through the engine directly, no service anywhere.
        direct = run_batch(build_batch(normalize_job_spec(SWEEP_SPEC)))
        expected = canonical_results(direct.results)
        assert json.dumps(result["results"], sort_keys=True) == \
            json.dumps(expected, sort_keys=True)

        # Sealed evidence verifies clean...
        record = store.load(sub["run_id"])
        assert verify_evidence(record.path).ok
        # ...and a single flipped byte is caught.
        result_path = record.artifact("result.json")
        with result_path.open("a", encoding="utf-8") as fh:
            fh.write(" ")
        report = verify_evidence(record.path)
        assert not report.ok
        assert any(name == "result.json" for name, _, _ in report.modified)

    def test_artifacts_and_listing(self, service):
        base, store = service
        _, sub, _ = request(
            f"{base}/api/jobs", method="POST",
            body=json.dumps(SWEEP_SPEC).encode(),
        )
        poll_terminal(base, sub["run_id"])

        code, status, _ = request(f"{base}/api/jobs/{sub['run_id']}")
        assert MANIFEST_FILENAME in status["artifacts"]
        assert "result.json" in status["artifacts"]

        code, report, headers = request(
            f"{base}/api/jobs/{sub['run_id']}/artifacts/report.txt"
        )
        assert code == 200
        assert headers["Content-Type"].startswith("text/plain")
        assert sub["run_id"] in report.decode("utf-8")

        code, telemetry, headers = request(
            f"{base}/api/jobs/{sub['run_id']}/artifacts/telemetry.jsonl"
        )
        assert code == 200
        assert headers["Content-Type"] == "application/x-ndjson"
        assert b'"batch_end"' in telemetry

        code, runs, _ = request(f"{base}/api/runs")
        assert code == 200
        assert sub["run_id"] in [r["run_id"] for r in runs["runs"]]

    def test_obs_endpoints_still_served(self, service):
        base, _ = service
        code, body, _ = request(f"{base}/healthz")
        assert code == 200
        code, body, _ = request(f"{base}/metrics")
        assert code == 200
        code, body, _ = request(f"{base}/runs")
        assert code == 200
        code, body, _ = request(f"{base}/")
        assert b"/api/jobs" in body


class TestErrorPaths:
    def test_invalid_json_body(self, idle_service):
        base, _ = idle_service
        code, doc, _ = request(f"{base}/api/jobs", method="POST",
                               body=b"{not json")
        assert code == 400
        assert "invalid JSON" in doc["error"]

    def test_invalid_spec_lists_every_problem(self, idle_service):
        base, store = idle_service
        code, doc, _ = request(
            f"{base}/api/jobs", method="POST",
            body=json.dumps({"kind": "sweep",
                             "params": {"domain": "nope",
                                        "levels": [-1.0]}}).encode(),
        )
        assert code == 400
        assert len(doc["problems"]) >= 2
        assert store.list() == []  # nothing persisted for a bad spec

    def test_oversized_body_rejected(self, idle_service):
        base, _ = idle_service
        blob = b'{"kind": "sweep", "pad": "' + b"x" * (1 << 20) + b'"}'
        code, doc, _ = request(f"{base}/api/jobs", method="POST", body=blob)
        assert code == 413

    def test_missing_content_length(self, idle_service):
        base, _ = idle_service
        host = base.split("//", 1)[1]
        conn = http.client.HTTPConnection(host, timeout=10)
        conn.putrequest("POST", "/api/jobs", skip_accept_encoding=True)
        conn.endheaders()
        resp = conn.getresponse()
        assert resp.status == 411
        conn.close()

    def test_unknown_run_404(self, idle_service):
        base, _ = idle_service
        for suffix in ("", "/result", "/artifacts/result.json"):
            code, doc, _ = request(f"{base}/api/jobs/ghost{suffix}")
            assert code == 404

    def test_result_before_terminal_409(self, idle_service):
        base, _ = idle_service
        _, sub, _ = request(
            f"{base}/api/jobs", method="POST",
            body=json.dumps(SWEEP_SPEC).encode(),
        )
        code, doc, _ = request(f"{base}/api/jobs/{sub['run_id']}/result")
        assert code == 409
        assert doc["state"] == PENDING

    def test_unknown_artifact_404(self, idle_service):
        base, _ = idle_service
        _, sub, _ = request(
            f"{base}/api/jobs", method="POST",
            body=json.dumps(SWEEP_SPEC).encode(),
        )
        for name in ("nope.json", ".."):
            code, _, _ = request(
                f"{base}/api/jobs/{sub['run_id']}/artifacts/{name}"
            )
            assert code == 404

    def test_post_elsewhere_404(self, idle_service):
        base, _ = idle_service
        code, _, _ = request(f"{base}/api/runs", method="POST", body=b"{}")
        assert code == 404


class TestCancelOverHttp:
    def test_delete_pending_cancels_then_conflicts(self, idle_service):
        base, store = idle_service
        _, sub, _ = request(
            f"{base}/api/jobs", method="POST",
            body=json.dumps(SWEEP_SPEC).encode(),
        )
        code, doc, _ = request(f"{base}/api/jobs/{sub['run_id']}",
                               method="DELETE")
        assert code == 200
        assert doc["state"] == CANCELLED
        assert store.load(sub["run_id"]).state == CANCELLED
        # Cancelling a terminal run is a conflict, not a crash.
        code, doc, _ = request(f"{base}/api/jobs/{sub['run_id']}",
                               method="DELETE")
        assert code == 409


class TestRetiredKinds:
    def test_bench_spec_gets_400_listing_the_kinds(self, idle_service):
        base, store = idle_service
        code, doc, _ = request(f"{base}/api/jobs", method="POST",
                               body=json.dumps({"kind": "bench"}).encode())
        assert code == 400
        (problem,) = [p for p in doc["problems"] if "'bench'" in p]
        for kind in ("synthesize", "sweep", "verify"):
            assert repr(kind) in problem
        assert store.list() == []


class TestOneAlgorithmPerName:
    @pytest.mark.parametrize("algorithm, name", [
        ("mr-lazy", "ILP-MR[lazy]"), ("tse", "ILP-TSE[order=2]"),
    ])
    def test_cli_sweep_matches_the_posted_sweep(
        self, service, monkeypatch, capsys, algorithm, name
    ):
        from repro import cli

        base, _ = service
        params = {"domain": "eps", "size": 2, "levels": [2e-3, 6.5e-4],
                  "backend": "scipy", "algorithm": algorithm}
        _, sub, _ = request(
            f"{base}/api/jobs", method="POST",
            body=json.dumps({"kind": "sweep", "params": params}).encode(),
        )
        assert poll_terminal(base, sub["run_id"])["state"] == DONE
        _, result, _ = request(f"{base}/api/jobs/{sub['run_id']}/result")
        posted = [entry["value"]["algorithm"] for entry in result["results"]]
        assert posted == [name, name]

        outcomes = []
        real_run_batch = cli.run_batch

        def spy(batch, **kwargs):
            outcomes.append(real_run_batch(batch, **kwargs))
            return outcomes[-1]

        monkeypatch.setattr(cli, "run_batch", spy)
        assert cli.main(["sweep", "--domain", "eps", "--size", "2",
                         "--levels", "2e-3,6.5e-4", "--backend", "scipy",
                         "--algorithm", algorithm]) == 0
        (outcome,) = outcomes
        assert [r.value.algorithm for r in outcome.results] == posted
        assert json.loads(json.dumps(
            canonical_results(outcome.results))) == result["results"]
