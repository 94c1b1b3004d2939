"""Job queue: workers, cancellation, timeouts, and drain semantics.

These tests register a throwaway ``sleepy`` job kind (a spec builder plus
an engine runner whose jobs just nap) so queue mechanics are exercised
without paying for real synthesis.
"""

import json
import os
import signal
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

import pytest

from repro.engine import register_runner
from repro.engine.executor import _RUNNERS
from repro.service import (
    CANCELLED,
    DONE,
    FAILED,
    PENDING,
    RUNNING,
    JobQueue,
    RunStore,
    register_batch_builder,
    verify_evidence,
)
from repro.service.specs import _BATCH_BUILDERS, PARAM_SCHEMAS, SPEC_SCHEMA
from tests.engine.test_executor import live_children, wait_until


@pytest.fixture()
def sleepy_kind(monkeypatch):
    """Teach the whole stack a fast fake job kind for queue tests."""
    from repro.engine import BatchSpec, Job

    monkeypatch.setitem(
        SPEC_SCHEMA["properties"]["kind"], "enum",
        list(SPEC_SCHEMA["properties"]["kind"]["enum"]) + ["sleepy"],
    )
    monkeypatch.setitem(PARAM_SCHEMAS, "sleepy", {
        "type": "object",
        "additionalProperties": False,
        "properties": {
            "naps": {"type": "integer", "minimum": 1, "default": 2},
            "nap_s": {"type": "number", "minimum": 0, "default": 0.0},
        },
    })

    def build(params):
        jobs = [
            Job(job_id=f"nap-{i}", kind="sleepy-job",
                payload={"nap_s": params["nap_s"], "i": i})
            for i in range(params["naps"])
        ]
        return BatchSpec(name="sleepy-batch", jobs=jobs)

    def run(job):
        time.sleep(job.payload["nap_s"])
        return {"napped": job.payload["i"]}

    register_batch_builder("sleepy", build)
    register_runner("sleepy-job", run)
    yield
    _BATCH_BUILDERS.pop("sleepy", None)
    _RUNNERS.pop("sleepy-job", None)


@pytest.fixture()
def store(tmp_path):
    return RunStore(tmp_path / "runs")


def wait_for_state(store, run_id, states, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        record = store.load(run_id)
        if record.state in states:
            return record
        time.sleep(0.01)
    raise AssertionError(
        f"run {run_id} never reached {states} (is {record.state})"
    )


class TestExecution:
    def test_submit_runs_to_done(self, store, sleepy_kind):
        queue = JobQueue(store).start()
        try:
            record = queue.submit({"kind": "sleepy", "params": {"naps": 3}})
            assert record.state == PENDING
            assert queue.join(timeout=30.0)
            record = store.load(record.run_id)
            assert record.state == DONE
            assert record.manifest["progress"] == {
                "done": 3, "failed": 0, "skipped": 0, "total": 3,
            }
            assert verify_evidence(record.path).ok
        finally:
            queue.shutdown()

    def test_fifo_order_single_worker(self, store, sleepy_kind):
        queue = JobQueue(store, workers=1).start()
        try:
            first = queue.submit({"kind": "sleepy"})
            second = queue.submit({"kind": "sleepy"})
            assert queue.join(timeout=30.0)
            a = store.load(first.run_id).manifest["finished_at"]
            b = store.load(second.run_id).manifest["finished_at"]
            assert a <= b
        finally:
            queue.shutdown()

    def test_invalid_spec_rejected_before_storage(self, store):
        queue = JobQueue(store)
        from repro.service import SpecError

        with pytest.raises(SpecError):
            queue.submit({"kind": "nope"})
        assert store.list() == []

    def test_failed_job_seals_failed(self, store, sleepy_kind):
        def explode(job):
            raise RuntimeError("boom")

        register_runner("sleepy-job", explode)
        queue = JobQueue(store).start()
        try:
            record = queue.submit({"kind": "sleepy", "params": {"naps": 1}})
            assert queue.join(timeout=30.0)
            record = store.load(record.run_id)
            assert record.state == FAILED
            assert "1 job(s) failed" in record.manifest["error"]
            assert verify_evidence(record.path).ok  # failures seal too
        finally:
            queue.shutdown()


class TestCancellation:
    def test_cancel_pending_before_any_worker_starts(self, store, sleepy_kind):
        queue = JobQueue(store)  # never started: the run stays queued
        record = queue.submit({"kind": "sleepy"})
        cancelled = queue.cancel(record.run_id)
        assert cancelled.state == CANCELLED
        assert verify_evidence(cancelled.path).ok

    def test_cancel_running_stops_at_job_boundary(self, store, sleepy_kind):
        queue = JobQueue(store).start()
        try:
            record = queue.submit({
                "kind": "sleepy",
                "params": {"naps": 100, "nap_s": 0.05},
            })
            wait_for_state(store, record.run_id, {RUNNING})
            queue.cancel(record.run_id)
            final = wait_for_state(
                store, record.run_id, {CANCELLED, FAILED, DONE}
            )
            assert final.state == CANCELLED
            # Stopped early: nowhere near all 100 jobs ran.
            assert final.manifest["progress"]["done"] < 100
        finally:
            queue.shutdown()

    def test_cancel_terminal_raises(self, store, sleepy_kind):
        queue = JobQueue(store).start()
        try:
            record = queue.submit({"kind": "sleepy", "params": {"naps": 1}})
            assert queue.join(timeout=30.0)
            with pytest.raises(ValueError):
                queue.cancel(record.run_id)
        finally:
            queue.shutdown()


class TestTimeouts:
    def test_spec_timeout_fails_the_run(self, store, sleepy_kind):
        queue = JobQueue(store).start()
        try:
            record = queue.submit({
                "kind": "sleepy",
                "timeout": 0.08,
                "params": {"naps": 100, "nap_s": 0.05},
            })
            final = wait_for_state(
                store, record.run_id, {DONE, FAILED, CANCELLED}
            )
            assert final.state == FAILED
            assert "timed out" in final.manifest["error"]
        finally:
            queue.shutdown()

    def test_queue_default_timeout_applies(self, store, sleepy_kind):
        queue = JobQueue(store, default_timeout=0.08).start()
        try:
            record = queue.submit({
                "kind": "sleepy",
                "params": {"naps": 100, "nap_s": 0.05},
            })
            final = wait_for_state(
                store, record.run_id, {DONE, FAILED, CANCELLED}
            )
            assert final.state == FAILED
        finally:
            queue.shutdown()


class TestDrain:
    def test_stopping_queue_leaves_queued_runs_pending(
        self, store, sleepy_kind
    ):
        queue = JobQueue(store)
        record = queue.submit({"kind": "sleepy"})
        queue._stopping = True  # what shutdown() sets before draining
        queue._execute(record.run_id)
        assert store.load(record.run_id).state == PENDING

    def test_enqueue_existing_rejects_non_pending(self, store, sleepy_kind):
        queue = JobQueue(store)
        record = queue.submit({"kind": "sleepy"})
        store.transition(record, RUNNING)
        with pytest.raises(ValueError):
            queue.enqueue_existing(store.load(record.run_id))

    def test_submit_after_shutdown_rejected(self, store, sleepy_kind):
        queue = JobQueue(store).start()
        queue.shutdown()
        with pytest.raises(RuntimeError):
            queue.submit({"kind": "sleepy"})


class _ClaimProbeStore(RunStore):
    """Records worker-thread claim calls made without the queue lock.

    The PENDING -> RUNNING claim must happen entirely under
    ``JobQueue._lock`` — otherwise a draining shutdown can observe
    "everything PENDING-or-finished" in between the worker's stop-flag
    check and its transition, and return while the run silently flips to
    RUNNING with no worker left alive to seal it.
    """

    def __init__(self, root):
        super().__init__(root)
        self.queue = None
        self.violations = []

    def _probe(self, op):
        import threading

        if not threading.current_thread().name.startswith(
            "repro-service-worker"
        ):
            return
        lock = self.queue._lock
        if lock.acquire(blocking=False):  # free => caller didn't hold it
            lock.release()
            self.violations.append(op)

    def load(self, run_id):
        self._probe("load")
        return super().load(run_id)

    def transition(self, record, state, **kwargs):
        if state == RUNNING:
            self._probe("transition")
        return super().transition(record, state, **kwargs)


class TestDrainRace:
    def test_claim_happens_under_the_queue_lock(self, tmp_path, sleepy_kind):
        store = _ClaimProbeStore(tmp_path / "runs")
        queue = JobQueue(store)
        store.queue = queue
        queue.start()
        try:
            record = queue.submit({"kind": "sleepy"})
            assert queue.join(timeout=30.0)
        finally:
            queue.shutdown()
        assert store.load(record.run_id).state == DONE
        assert store.violations == []

    def test_drained_shutdown_never_strands_a_running_run(
        self, store, sleepy_kind
    ):
        queue = JobQueue(store, workers=1).start()
        busy = queue.submit({
            "kind": "sleepy", "params": {"naps": 3, "nap_s": 0.2},
        })
        wait_for_state(store, busy.run_id, {RUNNING})
        queued = queue.submit({"kind": "sleepy"})
        # drain=True must override wait=False and block until the worker
        # reaches a boundary; the queued run stays PENDING for --resume.
        queue.shutdown(wait=False, drain=True)
        assert store.load(busy.run_id).state == DONE
        assert store.load(queued.run_id).state == PENDING


class TestHeartbeatLifecycle:
    def test_executor_heartbeats_while_running_and_clears_on_seal(
        self, store, sleepy_kind
    ):
        from repro.service.store import HEARTBEAT_NAME

        queue = JobQueue(store, workers=1).start()
        try:
            record = queue.submit({
                "kind": "sleepy", "params": {"naps": 3, "nap_s": 0.2},
            })
            wait_for_state(store, record.run_id, {RUNNING})
            hb = store.load(record.run_id).path / HEARTBEAT_NAME
            deadline = time.monotonic() + 5.0
            while not hb.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            assert hb.exists(), "no heartbeat while RUNNING"
            assert store.has_live_lease(store.load(record.run_id))
            wait_for_state(store, record.run_id, {DONE})
        finally:
            queue.shutdown()
        assert not hb.exists(), "heartbeat survived the seal"


def run_worker_pids(record):
    """The pool worker pids a run's ``worker_metrics.json`` names."""
    from repro.service.store import WORKER_METRICS_NAME

    doc = json.loads((record.path / WORKER_METRICS_NAME).read_text())
    return {int(pid) for pid in doc["workers"] if pid.isdigit()}


def session_members(sid):
    """Live (non-zombie) processes of session ``sid``, from ``/proc``."""
    members = set()
    for entry in os.scandir("/proc"):
        if not entry.name.isdigit():
            continue
        try:
            stat = Path(entry.path, "stat").read_text()
        except OSError:
            continue
        state, _ppid, _pgrp, session = stat.rsplit(")", 1)[1].split()[:4]
        if session == str(sid) and state != "Z":
            members.add(int(entry.name))
    return members


POOL_SLEEPY = {"kind": "sleepy", "jobs": 2,
               "params": {"naps": 2, "nap_s": 0.1}}


class TestPoolLifecycle:
    """The queue's worker pool outlives a clean pool run, is replaced
    after a cancelled one and exits with the queue."""

    def test_cancelled_run_retires_the_pool(self, store, sleepy_kind):
        queue = JobQueue(store).start()
        try:
            first = queue.submit(POOL_SLEEPY)
            assert queue.join(timeout=60.0)
            between = live_children()
            cancelled = queue.submit({
                "kind": "sleepy", "jobs": 2,
                "params": {"naps": 100, "nap_s": 0.05},
            })
            assert wait_until(lambda: store.load(cancelled.run_id)
                              .manifest["progress"]["done"] >= 1)
            queue.cancel(cancelled.run_id)
            assert queue.join(timeout=60.0)
            last = queue.submit(POOL_SLEEPY)
            assert queue.join(timeout=60.0)
        finally:
            queue.shutdown()
        assert store.load(cancelled.run_id).state == CANCELLED
        assert run_worker_pids(store.load(first.run_id)) <= between
        assert run_worker_pids(store.load(cancelled.run_id)) <= between
        assert store.load(last.run_id).state == DONE
        assert run_worker_pids(store.load(last.run_id)).isdisjoint(between)

    def test_shutdown_reaps_the_pool(self, store, sleepy_kind):
        before = live_children()
        queue = JobQueue(store).start()
        try:
            record = queue.submit(POOL_SLEEPY)
            assert queue.join(timeout=60.0)
            workers = run_worker_pids(store.load(record.run_id))
            assert workers and workers <= live_children()  # kept idle
        finally:
            queue.shutdown()
        assert wait_until(lambda: not live_children() - before)

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="reads session membership from /proc")
    @pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM],
                             ids=["SIGINT", "SIGTERM"])
    def test_serve_leaves_no_process_of_its_session(self, tmp_path, signum):
        src = str(Path(__file__).resolve().parents[2] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        port_file = tmp_path / "port"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--port-file", str(port_file), "--runs-dir",
             str(tmp_path / "runs"), "--max-runtime", "120"],
            cwd=tmp_path, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL, start_new_session=True,
        )
        try:
            assert wait_until(lambda: port_file.exists()
                              and port_file.read_text().strip(), 60.0)
            base = f"http://127.0.0.1:{int(port_file.read_text())}"
            spec = {"kind": "sweep", "jobs": 2,
                    "params": {"domain": "eps", "size": 2,
                               "levels": [2e-3, 2e-6],
                               "backend": "scipy", "algorithm": "mr"}}
            req = urllib.request.Request(
                f"{base}/api/jobs", data=json.dumps(spec).encode(),
                headers={"Content-Type": "application/json"},
                method="POST")
            with urllib.request.urlopen(req, timeout=30) as resp:
                run_id = json.loads(resp.read())["run_id"]
            assert wait_until(lambda: json.loads(urllib.request.urlopen(
                f"{base}/api/jobs/{run_id}", timeout=30).read())["terminal"],
                120.0)
            record = RunStore(tmp_path / "runs").load(run_id)
            assert record.state == DONE
            workers = run_worker_pids(record)
            # The pool outlives the run, inside the server's session.
            assert workers and workers <= session_members(proc.pid)
            proc.send_signal(signum)
            assert proc.wait(timeout=60) == 0
            assert wait_until(lambda: not session_members(proc.pid))
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            for pid in session_members(proc.pid):
                os.kill(pid, signal.SIGKILL)
