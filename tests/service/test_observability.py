"""Service-run observability: stitched traces, worker metrics, the
``/events`` tail, and the ``repro tree`` report.

The runner derives the run's trace id from its run id, stitches every
process's spans into ``trace.json``, reconstructs per-worker metric
totals into ``worker_metrics.json``, and seals both into the evidence
pack; the API exposes the run's telemetry journal as an SSE-style tail.
"""

import json
import threading
import urllib.request

import pytest

from repro import obs
from repro.engine.telemetry import read_events
from repro.service import (
    DONE,
    JobQueue,
    RunStore,
    ServiceServer,
    verify_evidence,
)
from repro.service.runner import execute_run
from repro.service.store import (
    RESULT_NAME,
    TELEMETRY_NAME,
    TRACE_NAME,
    WORKER_METRICS_NAME,
)
from tests.engine.test_executor import live_children

SWEEP_SPEC = {
    "kind": "sweep",
    "params": {"domain": "eps", "size": 2, "levels": [2e-3, 2e-6],
               "backend": "scipy", "algorithm": "mr"},
}

# The same sweep through the from-scratch B&B backend, so the solver
# streams real search-tree events into the run journal.
BNB_SWEEP_SPEC = {
    "kind": "sweep",
    "params": {"domain": "eps", "size": 2, "levels": [2e-3],
               "backend": "bnb", "algorithm": "mr"},
}


# Two quick levels through the B&B backend in a two-worker pool, so the
# workers stream search events into each run's journal.
BNB_POOL_SWEEP_SPEC = {
    "kind": "sweep",
    "jobs": 2,
    "params": {"domain": "eps", "size": 2, "levels": [2e-3, 1e-3],
               "backend": "bnb", "algorithm": "mr"},
}


def run_spec(tmp_path, spec, jobs=1):
    store = RunStore(tmp_path / "runs")
    record = store.create(spec)
    record = execute_run(store, record, jobs=jobs)
    return store, store.load(record.run_id)


class TestRunObservabilityArtifacts:
    def test_run_seals_trace_and_worker_metrics(self, tmp_path):
        store, record = run_spec(tmp_path, SWEEP_SPEC)
        assert record.state == DONE
        artifacts = record.manifest["artifacts"]
        assert TRACE_NAME in artifacts
        assert WORKER_METRICS_NAME in artifacts

        trace = json.loads((record.path / TRACE_NAME).read_text())
        derived = obs.TraceContext.derive(record.run_id)
        assert trace["otherData"]["trace_id"] == derived.trace_id
        job_events = [e for e in trace["traceEvents"]
                      if e.get("ph") == "X" and e["name"] == "engine.job"]
        assert len(job_events) == 2
        assert all(e["args"]["trace_id"] == derived.trace_id
                   for e in job_events)

        metrics = json.loads((record.path / WORKER_METRICS_NAME).read_text())
        assert metrics["run_id"] == record.run_id
        assert metrics["trace_id"] == derived.trace_id

        report = verify_evidence(record.path)
        assert report.ok, report.summary()

    def test_pool_run_attributes_metrics_to_workers(self, tmp_path):
        store, record = run_spec(tmp_path, SWEEP_SPEC, jobs=2)
        assert record.state == DONE
        metrics = json.loads((record.path / WORKER_METRICS_NAME).read_text())
        workers = metrics["workers"]
        assert workers, "pool workers must ship per-pid metric deltas"
        total = sum(
            snap.get("engine.jobs.completed", {}).get("value", 0)
            for snap in workers.values()
        )
        assert total == 2

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_run_journal_carries_bnb_search_events(self, tmp_path, jobs):
        store, record = run_spec(tmp_path, BNB_SWEEP_SPEC, jobs=jobs)
        assert record.state == DONE
        events = [e for e in read_events(record.path / TELEMETRY_NAME)
                  if e["event"] == "bnb_event"]
        assert events, "B&B solves must stream their search tree"
        kinds = {e["kind"] for e in events}
        assert "open" in kinds and "summary" in kinds

    def test_repro_tree_renders_a_real_run(self, tmp_path, capsys):
        from repro.cli import main

        store, record = run_spec(tmp_path, BNB_SWEEP_SPEC)
        code = main(["tree", "--run", record.run_id,
                     "--runs-dir", str(tmp_path / "runs")])
        out = capsys.readouterr().out
        assert code == 0
        assert "solve" in out and "nodes" in out
        assert "(no search events)" not in out

    def test_runs_show_prints_worker_metrics(self, tmp_path, capsys):
        from repro.cli import main

        store, record = run_spec(tmp_path, SWEEP_SPEC, jobs=2)
        code = main(["runs", "show", record.run_id,
                     "--runs-dir", str(tmp_path / "runs")])
        out = capsys.readouterr().out
        assert code == 0
        assert "worker metrics" in out


class TestPoolReuseAcrossRuns:
    def test_pool_sweeps_share_workers_and_keep_their_telemetry(
            self, tmp_path):
        """Two pool sweeps through one queue run on one set of workers,
        and each run's artifacts hold that run's work and nothing else:
        the same results, journal and search events as a serial run."""
        from repro.engine import run_batch
        from repro.service.runner import canonical_results
        from repro.service.specs import build_batch, normalize_job_spec

        batch = build_batch(normalize_job_spec(BNB_POOL_SWEEP_SPEC))
        serial_journal = tmp_path / "serial.jsonl"
        serial = run_batch(batch, jobs=1, telemetry=str(serial_journal))
        expected = json.dumps(canonical_results(serial.results),
                              sort_keys=True)
        search = sorted(e["kind"] for e in read_events(serial_journal)
                        if e["event"] == "bnb_event")
        assert search

        store = RunStore(tmp_path / "runs")
        queue = JobQueue(store).start()
        try:
            first = queue.submit(BNB_POOL_SWEEP_SPEC)
            assert queue.join(timeout=120)
            between = live_children()
            second = queue.submit(BNB_POOL_SWEEP_SPEC)
            assert queue.join(timeout=120)
        finally:
            queue.shutdown()

        pids = []
        for record in (store.load(first.run_id), store.load(second.run_id)):
            assert record.state == DONE
            result = json.loads((record.path / RESULT_NAME).read_text())
            assert json.dumps(result["results"], sort_keys=True) == expected
            workers = json.loads(
                (record.path / WORKER_METRICS_NAME).read_text())["workers"]
            assert sum(
                snap.get("engine.jobs.completed", {}).get("value", 0)
                for snap in workers.values()
            ) == len(batch.jobs)
            pids.append({int(pid) for pid in workers})
            events = read_events(record.path / TELEMETRY_NAME)
            for kind in ("job_start", "job_end"):
                assert sorted(e["job"] for e in events
                              if e["event"] == kind) == sorted(batch.job_ids())
            bnb = [e for e in events if e["event"] == "bnb_event"]
            assert sorted(e["kind"] for e in bnb) == search
            assert {e["worker_pid"] for e in bnb} <= pids[-1]
        assert pids[0] | pids[1] <= between
        assert len(pids[0] | pids[1]) <= 2


def sse_frames(raw):
    """Parse ``event:``/``data:`` frames out of an SSE byte stream."""
    frames = []
    for block in raw.decode("utf-8").split("\n\n"):
        name, data = None, None
        for line in block.splitlines():
            if line.startswith("event: "):
                name = line[len("event: "):]
            elif line.startswith("data: "):
                data = json.loads(line[len("data: "):])
        if name is not None:
            frames.append((name, data))
    return frames


@pytest.fixture()
def service(tmp_path):
    store = RunStore(tmp_path / "runs")
    queue = JobQueue(store, cache_dir=str(tmp_path / "cache")).start()
    server = ServiceServer(queue, port=0).start()
    yield server.url, store
    server.stop()
    queue.shutdown()


class TestEventsTail:
    def test_tail_follows_a_live_run_to_completion(self, service):
        base, store = service
        body = json.dumps(SWEEP_SPEC).encode()
        req = urllib.request.Request(f"{base}/api/jobs", data=body,
                                     method="POST")
        req.add_header("Content-Type", "application/json")
        with urllib.request.urlopen(req, timeout=30) as resp:
            run_id = json.loads(resp.read())["run_id"]

        # Connect immediately: the tail must replay what exists and then
        # stream the rest of the run live, ending only when it seals.
        with urllib.request.urlopen(
            f"{base}/api/runs/{run_id}/events?timeout=120", timeout=180
        ) as resp:
            assert resp.headers["Content-Type"] == "text/event-stream"
            assert resp.headers.get("Content-Length") is None
            frames = sse_frames(resp.read())

        names = [name for name, _ in frames]
        assert "batch_start" in names
        assert "job_end" in names
        assert "batch_end" in names
        end_name, end_data = frames[-1]
        assert end_name == "end"
        assert end_data["run_id"] == run_id
        assert end_data["state"] == DONE
        job_ends = [data for name, data in frames if name == "job_end"]
        assert len(job_ends) == 2

    def test_tail_of_finished_run_replays_and_ends(self, service):
        base, store = service
        record = store.create(SWEEP_SPEC)
        execute_run(store, record)
        with urllib.request.urlopen(
            f"{base}/api/runs/{record.run_id}/events?timeout=0", timeout=30
        ) as resp:
            frames = sse_frames(resp.read())
        assert frames[-1][0] == "end"
        assert any(name == "batch_end" for name, _ in frames)

    def test_tail_of_unknown_run_is_404(self, service):
        base, _ = service
        try:
            urllib.request.urlopen(f"{base}/api/runs/ghost/events", timeout=10)
        except urllib.error.HTTPError as err:
            assert err.code == 404
        else:  # pragma: no cover - the request must fail
            raise AssertionError("expected 404")


class TestConcurrentRunsShareOneTracer:
    def test_parallel_executes_keep_traces_separate(self, tmp_path):
        """Two runs executing concurrently in one process must each seal a
        trace containing only their own spans (filtered by trace id)."""
        store = RunStore(tmp_path / "runs")
        records = [store.create(SWEEP_SPEC) for _ in range(2)]
        threads = [threading.Thread(target=execute_run, args=(store, r))
                   for r in records]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
        for record in (store.load(r.run_id) for r in records):
            assert record.state == DONE
            trace = json.loads((record.path / TRACE_NAME).read_text())
            derived = obs.TraceContext.derive(record.run_id)
            events = [e for e in trace["traceEvents"] if e.get("ph") == "X"]
            assert events
            assert {e["args"]["trace_id"] for e in events} == {
                derived.trace_id
            }
