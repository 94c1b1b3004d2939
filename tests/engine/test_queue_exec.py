"""File-backed work queue: digests, leases, expiry, workers, dedup.

Most tests drive :class:`FileWorkQueue` and :func:`run_worker` in-process
for determinism; the end-to-end equivalence tests spawn real worker
processes through ``executor="queue"``.
"""

import json
import os
import threading

import pytest

from repro.engine import BatchSpec, Job, iter_batch, run_batch
from repro.engine.executor import _RUNNERS, register_runner
from repro.engine.queue_exec import (
    FileWorkQueue,
    Lease,
    iter_queue,
    job_digest,
    run_worker,
)


def _noop_job(i, value=None):
    return Job(job_id=f"n{i}", kind="noop",
               payload={"value": value if value is not None else i})


def _backdate_lease(queue, digest, seconds=3600.0):
    path = queue.leased_dir / f"{digest}.json"
    old = path.stat().st_mtime - seconds
    os.utime(path, (old, old))


class TestJobDigest:
    def test_same_computation_same_digest(self):
        a = Job(job_id="a", kind="noop", payload={"value": 1})
        b = Job(job_id="b", kind="noop", payload={"value": 1},
                meta={"label": "other"})
        assert job_digest(a) == job_digest(b)

    def test_payload_and_kind_change_the_digest(self):
        base = Job(job_id="a", kind="noop", payload={"value": 1})
        other_payload = Job(job_id="a", kind="noop", payload={"value": 2})
        other_kind = Job(job_id="a", kind="reliability",
                         payload={"value": 1})
        digests = {job_digest(base), job_digest(other_payload),
                   job_digest(other_kind)}
        assert len(digests) == 3

    def test_digest_is_hex_sha256(self):
        digest = job_digest(_noop_job(0))
        assert len(digest) == 64
        int(digest, 16)  # raises if not hex


class TestFileWorkQueue:
    def test_enqueue_statuses(self, tmp_path):
        queue = FileWorkQueue(tmp_path)
        job = _noop_job(0)
        digest, status = queue.enqueue(job)
        assert status == "enqueued"
        assert queue.enqueue(job) == (digest, "duplicate")
        queue.write_result(digest, {"ok": True, "attempts": 1,
                                    "wrapped": {}})
        assert queue.enqueue(job) == (digest, "cached")

    def test_claim_is_exclusive(self, tmp_path):
        queue = FileWorkQueue(tmp_path)
        digest, _ = queue.enqueue(_noop_job(0))
        lease = queue.claim()
        assert lease == Lease(digest=digest, attempts=1)
        assert queue.claim() is None
        counts = queue.counts()
        assert counts["pending"] == 0 and counts["leased"] == 1

    def test_release_bumps_attempts(self, tmp_path):
        queue = FileWorkQueue(tmp_path)
        queue.enqueue(_noop_job(0))
        lease = queue.claim()
        queue.release(lease)
        again = queue.claim()
        assert again.attempts == 2
        assert queue.counts()["leased"] == 1

    def test_heartbeat_self_heals_a_deleted_lease(self, tmp_path):
        queue = FileWorkQueue(tmp_path)
        queue.enqueue(_noop_job(0))
        lease = queue.claim()
        (queue.leased_dir / f"{lease.digest}.json").unlink()
        queue.heartbeat(lease)
        token = json.loads(
            (queue.leased_dir / f"{lease.digest}.json").read_text()
        )
        assert token["attempts"] == lease.attempts

    def test_requeue_expired_skips_fresh_leases(self, tmp_path):
        queue = FileWorkQueue(tmp_path)
        queue.enqueue(_noop_job(0))
        queue.claim()
        assert queue.requeue_expired(lease_ttl=60.0) == (0, 0)

    def test_requeue_expired_requeues_with_bumped_attempts(self, tmp_path):
        queue = FileWorkQueue(tmp_path)
        digest, _ = queue.enqueue(_noop_job(0))
        queue.claim()
        _backdate_lease(queue, digest)
        assert queue.requeue_expired(lease_ttl=60.0) == (1, 0)
        lease = queue.claim()
        assert lease.attempts == 2

    def test_requeue_expired_fails_at_max_attempts(self, tmp_path):
        queue = FileWorkQueue(tmp_path)
        digest, _ = queue.enqueue(_noop_job(0))
        queue.claim()
        _backdate_lease(queue, digest)
        queue.requeue_expired(lease_ttl=60.0, max_attempts=2)
        lease = queue.claim()
        assert lease.attempts == 2
        _backdate_lease(queue, digest)
        assert queue.requeue_expired(lease_ttl=60.0, max_attempts=2) == (0, 1)
        record = queue.load_result(digest)
        assert record["ok"] is False
        assert record["error_type"] == "TimeoutError"
        assert record["attempts"] == 2

    def test_requeue_discards_lease_that_already_has_a_result(self, tmp_path):
        queue = FileWorkQueue(tmp_path)
        digest, _ = queue.enqueue(_noop_job(0))
        queue.claim()
        queue.write_result(digest, {"ok": True, "attempts": 1,
                                    "wrapped": {}})
        _backdate_lease_ok = queue.counts()["leased"] == 0
        assert _backdate_lease_ok  # write_result dropped the lease
        assert queue.requeue_expired(lease_ttl=60.0) == (0, 0)


class TestRunWorker:
    def test_drains_jobs_and_returns_count(self, tmp_path):
        queue = FileWorkQueue(tmp_path)
        digests = [queue.enqueue(_noop_job(i))[0] for i in range(4)]
        executed = run_worker(tmp_path, max_jobs=10, idle_timeout=0.2,
                              poll_interval=0.01)
        assert executed == 4
        for i, digest in enumerate(digests):
            record = queue.load_result(digest)
            assert record["ok"] is True
            assert record["wrapped"]["value"] == i

    def test_stop_file_halts_the_worker(self, tmp_path):
        queue = FileWorkQueue(tmp_path)
        queue.enqueue(_noop_job(0))
        (queue.path / "stop").touch()
        assert run_worker(tmp_path, idle_timeout=5.0) == 0
        assert queue.counts()["pending"] == 1  # untouched

    def test_transient_failure_released_then_retried(self, tmp_path):
        calls = {"n": 0}

        def flaky(job):
            calls["n"] += 1
            if calls["n"] == 1:
                raise OSError("transient")
            return "recovered"

        register_runner("flaky", flaky)
        try:
            queue = FileWorkQueue(tmp_path)
            digest, _ = queue.enqueue(
                Job(job_id="f", kind="flaky", payload={})
            )
            executed = run_worker(tmp_path, retries=1, max_jobs=2,
                                  idle_timeout=0.5, poll_interval=0.01)
        finally:
            _RUNNERS.pop("flaky", None)
        assert executed == 2
        record = queue.load_result(digest)
        assert record["ok"] is True
        assert record["attempts"] == 2
        assert record["wrapped"]["value"] == "recovered"

    def test_semantic_failure_is_terminal_not_retried(self, tmp_path):
        def broken(job):
            raise ValueError("bad spec")

        register_runner("broken", broken)
        try:
            queue = FileWorkQueue(tmp_path)
            digest, _ = queue.enqueue(
                Job(job_id="b", kind="broken", payload={})
            )
            executed = run_worker(tmp_path, retries=3, max_jobs=5,
                                  idle_timeout=0.2, poll_interval=0.01)
        finally:
            _RUNNERS.pop("broken", None)
        assert executed == 1
        record = queue.load_result(digest)
        assert record["ok"] is False
        assert record["error_type"] == "ValueError"
        assert record["attempts"] == 1


class TestIterQueue:
    def test_dedup_fans_one_execution_out_to_all_job_ids(self, tmp_path):
        # Two batch entries describe the same computation under
        # different job_ids: one execution, two results.
        batch = BatchSpec("dedup", [
            Job(job_id="first", kind="noop", payload={"value": 7}),
            Job(job_id="second", kind="noop", payload={"value": 7}),
            Job(job_id="third", kind="noop", payload={"value": 8}),
        ])
        worker = threading.Thread(
            target=run_worker,
            kwargs={"queue_dir": tmp_path, "idle_timeout": 30.0,
                    "poll_interval": 0.01},
            daemon=True,
        )
        worker.start()
        results = list(iter_queue(batch, queue_dir=tmp_path,
                                  spawn_workers=False, poll_interval=0.01))
        worker.join(timeout=30.0)
        assert not worker.is_alive()

        assert sorted(r.job_id for r in results) == ["first", "second",
                                                     "third"]
        by_id = {r.job_id: r for r in results}
        assert by_id["first"].value == 7
        assert by_id["second"].value == 7
        assert by_id["third"].value == 8
        # One execution for the shared digest...
        queue = FileWorkQueue(tmp_path)
        assert queue.counts()["results"] == 2
        assert queue.counts()["jobs"] == 2
        # ...and only the primary copy carries its cache traffic, so
        # sweep totals aren't double-counted.
        secondary = by_id["second"]
        assert secondary.cache_hits == 0 and secondary.cache_misses == 0

    def test_published_failure_is_final_for_the_coordinator(self, tmp_path):
        """A standalone worker with a smaller retry budget than the
        coordinator publishes a transient failure; the coordinator must
        pass it on as terminal, not resubmit it (the queue would answer
        "cached" and the job would vanish from the results)."""
        def always_oserror(job):
            raise OSError("disk unavailable")

        register_runner("always-oserror", always_oserror)
        batch = BatchSpec("final", [
            Job(job_id="bad", kind="always-oserror", payload={}),
            _noop_job(0),
        ])
        worker = threading.Thread(
            target=run_worker,
            kwargs={"queue_dir": tmp_path, "retries": 0,
                    "idle_timeout": 30.0, "poll_interval": 0.01},
            daemon=True,
        )
        worker.start()
        try:
            results = list(iter_queue(batch, queue_dir=tmp_path, retries=2,
                                      spawn_workers=False,
                                      poll_interval=0.01))
        finally:
            worker.join(timeout=30.0)
            _RUNNERS.pop("always-oserror", None)
        assert not worker.is_alive()
        by_id = {r.job_id: r for r in results}
        assert sorted(by_id) == ["bad", "n0"]
        assert not by_id["bad"].ok
        assert by_id["bad"].error_type == "OSError"
        assert by_id["bad"].attempts == 1
        assert by_id["n0"].ok and by_id["n0"].value == 0

    def test_queue_mode_matches_serial(self):
        batch = BatchSpec("equiv", [_noop_job(i) for i in range(6)])
        serial = run_batch(batch, jobs=1)
        queued = run_batch(batch, jobs=2, executor="queue")
        assert [r.job_id for r in queued.results] == [
            r.job_id for r in serial.results
        ]
        assert [r.value for r in queued.results] == [
            r.value for r in serial.results
        ]
        assert all(r.ok for r in queued.results)

    def test_unknown_executor_rejected(self):
        batch = BatchSpec("bad", [_noop_job(0)])
        with pytest.raises(ValueError, match="unknown executor"):
            list(iter_batch(batch, executor="threads"))


class TestQueueObservability:
    """Distributed trace propagation and telemetry spools (queue mode)."""

    def run_with_metrics(self, **kwargs):
        from repro import obs
        from repro.engine import reliability_map
        from tests.engine.test_executor import multi_sink_arch

        obs.reset_metrics()
        outcome = run_batch(reliability_map(multi_sink_arch(), method="bdd"),
                            **kwargs)
        assert outcome.num_failed == 0
        snap = obs.snapshot()
        obs.reset_metrics()
        return outcome, {
            name: data["value"]
            for name, data in snap.items()
            if data["kind"] == "counter"
        }

    def test_queue_counters_match_serial(self):
        """The --executor queue metrics-loss fix: after a 2-worker queue
        drain the coordinator registry reports the same per-engine totals
        as a serial run, plus the queue's own transport counters."""
        _, serial = self.run_with_metrics(jobs=1)
        _, queued = self.run_with_metrics(jobs=2, executor="queue")
        assert serial["engine.jobs.completed"] == 4
        transport = {k: v for k, v in queued.items()
                     if k.startswith("engine.queue.")}
        engine = {k: v for k, v in queued.items()
                  if not k.startswith("engine.queue.")}
        assert engine == serial
        # Worker-lifetime deltas (claims happen outside any job window)
        # must survive the trip home through the spool.
        assert transport["engine.queue.leases.claimed"] >= 4
        assert transport["engine.queue.jobs.enqueued"] == 4
        assert transport["engine.queue.results"] == 4

    @pytest.mark.parametrize("executor", ["pool", "queue"])
    def test_two_worker_batch_yields_one_connected_trace(self, tmp_path,
                                                         executor):
        """Every worker span must parent back (transitively) to the
        coordinator's batch span under a single trace id — no orphans.
        Pool workers take the same spool route home as queue workers."""
        from repro import obs

        batch = BatchSpec("trace", [_noop_job(i) for i in range(6)])
        with obs.tracing() as tracer:
            outcome = run_batch(batch, jobs=2, executor=executor,
                                queue_dir=tmp_path)
        assert outcome.num_failed == 0

        records = tracer.records
        assert records, "worker span records must be absorbed for stitching"
        trace_ids = {r["trace"] for r in records}
        assert len(trace_ids) == 1
        # The coordinator's own uids (pid.span_id) are the stitch points.
        local_uids = {f"{os.getpid()}.{s.span_id}" for s in tracer.spans}
        remote_uids = {r["uid"] for r in records}
        for record in records:
            assert record["parent"] is not None, f"orphan span {record}"
            assert record["parent"] in local_uids | remote_uids
        worker_pids = {r["pid"] for r in records}
        assert os.getpid() not in worker_pids
        assert len([r for r in records if r["name"] == "engine.job"]) == 6

        # The stitched export spans coordinator + workers in one document.
        doc = obs.stitch_chrome_trace(records, spans=tracer.spans)
        names = {e["args"]["name"] for e in doc["traceEvents"]
                 if e.get("ph") == "M" and e.get("name") == "process_name"}
        assert "coordinator" in names
        assert any(n.startswith("worker-") for n in names)
        assert doc["otherData"]["trace_id"] == trace_ids.pop()

    def test_reattached_coordinator_keeps_the_trace_id(self, tmp_path):
        """Kill-and-resume: a queue that already carries a trace keeps its
        id; only the parent uid and correlation fields are refreshed."""
        from repro import obs

        queue = FileWorkQueue(tmp_path)
        first = queue.write_trace_context(
            obs.TraceContext.mint(batch="attempt-1")
        )
        second = queue.write_trace_context(obs.TraceContext(
            obs.TraceContext.mint().trace_id, "9.9", {"batch": "attempt-2"}
        ))
        assert second.trace_id == first.trace_id
        assert second.parent_uid == "9.9"
        assert second.fields == {"batch": "attempt-2"}
        stored = queue.load_trace_context()
        assert stored.trace_id == first.trace_id

        # End to end: two coordinator passes over one queue dir, one trace.
        batch1 = BatchSpec("first", [_noop_job(0)])
        batch2 = BatchSpec("second", [_noop_job(1)])
        run_batch(batch1, jobs=1, executor="queue", queue_dir=tmp_path)
        after_first = queue.load_trace_context()
        assert after_first.trace_id == first.trace_id
        run_batch(batch2, jobs=1, executor="queue", queue_dir=tmp_path)
        assert queue.load_trace_context().trace_id == first.trace_id

    def test_worker_logs_carry_correlation_fields(self, tmp_path):
        """Every worker log record names the worker pid; per-lease records
        add the run's correlation fields, job digest, and attempt."""
        from repro import obs

        queue = FileWorkQueue(tmp_path / "q")
        queue.write_trace_context(obs.TraceContext.mint(run="run-77"))
        digest, _ = queue.enqueue(_noop_job(0))
        log_path = tmp_path / "worker.jsonl"
        obs.configure_obslog(path=log_path)
        try:
            run_worker(queue.path, max_jobs=1, idle_timeout=1.0,
                       poll_interval=0.01)
        finally:
            obs.configure_obslog()
        records = obs.read_log(log_path)
        events = {r["event"] for r in records}
        assert {"worker.started", "worker.lease_claimed",
                "worker.lease_done", "worker.stopped"} <= events
        assert all(r["worker_pid"] == os.getpid() for r in records)
        assert all(r["run"] == "run-77" for r in records)
        claimed = [r for r in records if r["event"] == "worker.lease_claimed"]
        assert claimed[0]["job_digest"] == digest[:12]
        assert claimed[0]["lease_attempt"] == 1

    def test_queue_health_reports_depth_leases_and_backlog(self, tmp_path):
        from repro import obs

        queue = FileWorkQueue(tmp_path)
        for i in range(3):
            queue.enqueue(_noop_job(i))
        health = queue.health()
        assert health["queue_depth"] == 3
        assert health["active_leases"] == 0
        assert health["spool_backlog"] == 0
        lease = queue.claim()
        assert queue.health()["active_leases"] == 1
        spool = obs.TelemetrySpool(queue.spool_path())
        spool.emit("worker_log", record={})
        assert queue.health()["spool_backlog"] > 0
        collector = obs.SpoolCollector(queue.spool_dir)
        collector.poll()
        assert queue.health(collector=collector)["spool_backlog"] == 0
        queue.release(lease)
