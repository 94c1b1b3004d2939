"""Tests for the batch executor: serial/parallel equivalence, retries,
timeouts, and the job builders."""

import multiprocessing
import os
import signal
import threading
import time

import pytest

from repro.engine import (
    BatchSpec,
    Job,
    WorkerPool,
    budget_bisection,
    contingency_sweep,
    execute_job,
    iter_batch,
    read_events,
    register_runner,
    reliability_map,
    requirement_sweep,
    run_batch,
    scaling_sweep,
    tradeoff_points,
)
from repro.reliability import failure_probability
from repro.synthesis import pareto_front
from tests.synthesis.test_ilp_mr import make_spec, make_template

LEVELS = [0.5, 1e-3]


def sweep_spec():
    return make_spec(make_template(2, p=1e-2), r_star=None)


def result_key(res):
    return (res.status, res.cost, res.reliability)


class TestBuilders:
    def test_requirement_sweep_orders_loose_to_tight(self):
        batch = requirement_sweep(sweep_spec(), [1e-6, 0.5, 1e-3])
        assert [j.meta["r_star"] for j in batch.jobs] == [0.5, 1e-3, 1e-6]
        assert all(j.kind == "synthesize" for j in batch.jobs)

    def test_requirement_sweep_rejects_unknown_algorithm(self):
        with pytest.raises(ValueError):
            requirement_sweep(sweep_spec(), LEVELS, algorithm="annealing")

    def test_options_forwarded_to_payload(self):
        batch = requirement_sweep(
            sweep_spec(), [1e-3], backend="scipy", mip_rel_gap=1e-2
        )
        options = batch.jobs[0].payload["options"]
        assert options == {"backend": "scipy", "mip_rel_gap": 1e-2}

    def test_contingency_sweep_jobs(self):
        # Loose enough that a single surviving bus chain still meets it.
        spec = make_spec(make_template(2, p=1e-2), r_star=0.1)
        batch = contingency_sweep(spec, ["B0"], backend="scipy")
        assert [j.meta["outage"] for j in batch.jobs] == [None, "B0"]
        outcome = run_batch(batch)
        by_id = outcome.by_id()
        assert by_id["outage=none"].unwrap().feasible
        # With B0 knocked out the other bus still carries the load.
        res = by_id["outage=B0"].unwrap()
        assert res.feasible
        assert not any(
            "B0" in (res.architecture.template.name_of(i),
                     res.architecture.template.name_of(j))
            for (i, j) in res.architecture.edges
        )

    def test_budget_bisection_job(self):
        spec = make_spec(make_template(2, p=1e-2), r_star=None)
        batch = budget_bisection(spec, [1000.0], backend="scipy")
        outcome = run_batch(batch)
        point = outcome.results[0].unwrap()
        assert point is not None
        assert point.cost <= 1000.0


class TestSerialExecution:
    def test_requirement_sweep_matches_direct_synthesis(self):
        batch = requirement_sweep(sweep_spec(), LEVELS, algorithm="mr",
                                  backend="scipy")
        outcome = run_batch(batch)
        assert outcome.num_failed == 0
        assert outcome.jobs_used == 1
        points = tradeoff_points(outcome.results)
        assert [p.r_star for p in points] == sorted(LEVELS, reverse=True)
        for p in points:
            assert p.feasible
            assert p.reliability <= p.r_star

    def test_reliability_map_matches_failure_probability(self):
        from tests.engine.test_cache import small_arch

        arch = small_arch()
        outcome = run_batch(reliability_map(arch, method="bdd"))
        for res in outcome.results:
            direct = failure_probability(arch, sink=res.meta["sink"],
                                         method="bdd")
            assert res.unwrap() == direct

    def test_unknown_job_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown job kind"):
            execute_job(Job(job_id="x", kind="teleport", payload={}))

    def test_semantic_failure_contained(self):
        register_runner("boom", _boom)
        outcome = run_batch(BatchSpec("boom", [
            Job(job_id="a", kind="boom", payload={}),
            Job(job_id="b", kind="boom", payload={"ok": True}),
        ]))
        by_id = outcome.by_id()
        assert not by_id["a"].ok
        assert by_id["a"].error_type == "RuntimeError"
        assert by_id["a"].attempts == 1  # semantic errors are not retried
        assert by_id["b"].ok and by_id["b"].value == 42
        with pytest.raises(RuntimeError, match="job 'a' failed"):
            outcome.values()

    def test_transient_failure_retried(self, tmp_path):
        register_runner("flaky", _flaky)
        marker = tmp_path / "attempts"
        outcome = run_batch(
            BatchSpec("flaky", [Job(
                job_id="f", kind="flaky",
                payload={"marker": str(marker), "fail_times": 2},
            )]),
            retries=2,
        )
        res = outcome.results[0]
        assert res.ok
        assert res.attempts == 3

    def test_transient_retries_exhausted(self, tmp_path):
        register_runner("flaky", _flaky)
        marker = tmp_path / "attempts"
        outcome = run_batch(
            BatchSpec("flaky", [Job(
                job_id="f", kind="flaky",
                payload={"marker": str(marker), "fail_times": 5},
            )]),
            retries=1,
        )
        res = outcome.results[0]
        assert not res.ok
        assert res.error_type == "OSError"
        assert res.attempts == 2


class TestParallelExecution:
    def test_pool_matches_serial(self):
        batch = requirement_sweep(sweep_spec(), LEVELS, algorithm="mr",
                                  backend="scipy")
        serial = run_batch(batch, jobs=1)
        pooled = run_batch(batch, jobs=2)
        assert pooled.num_failed == 0
        assert [r.job_id for r in pooled.results] == [
            r.job_id for r in serial.results
        ]
        for a, b in zip(serial.values(), pooled.values()):
            assert result_key(a) == result_key(b)
        assert all(r.worker_pid != os.getpid() for r in pooled.results)

    def test_pareto_front_invariant_under_parallelism(self):
        batch = requirement_sweep(sweep_spec(), LEVELS, algorithm="ar",
                                  backend="scipy")
        serial = pareto_front(tradeoff_points(run_batch(batch, jobs=1).results))
        pooled = pareto_front(tradeoff_points(run_batch(batch, jobs=2).results))
        assert [(p.cost, p.reliability) for p in serial] == [
            (p.cost, p.reliability) for p in pooled
        ]

    def test_iter_batch_streams_all_results(self):
        batch = requirement_sweep(sweep_spec(), LEVELS, algorithm="ar",
                                  backend="scipy")
        seen = {res.job_id for res in iter_batch(batch, jobs=2)}
        assert seen == set(batch.job_ids())

    def test_pool_timeout_enforced(self):
        register_runner("sleep", _sleep)
        outcome = run_batch(
            BatchSpec("sleepy", [
                Job(job_id="slow", kind="sleep", payload={"seconds": 6.0}),
                Job(job_id="fast", kind="sleep", payload={"seconds": 0.0}),
            ]),
            jobs=2, timeout=1.0, retries=0,
        )
        by_id = outcome.by_id()
        assert by_id["fast"].ok
        assert not by_id["slow"].ok
        assert by_id["slow"].error_type == "TimeoutError"


def multi_sink_arch(n_sinks=4):
    """A fully wired gen->bus->loads architecture with ``n_sinks`` sinks.

    Each sink's reliability subproblem is distinct (different relevant
    subgraph), so serial and pool runs see identical cache behaviour —
    no cross-job hits for serial mode to enjoy and pool mode to miss.
    """
    from repro.arch import (
        Architecture,
        ArchitectureTemplate,
        ComponentSpec,
        Library,
        Role,
    )

    lib = Library(switch_cost=1.0)
    for i in range(2):
        lib.add(ComponentSpec(f"G{i}", "gen", cost=50, capacity=100,
                              failure_prob=1e-2, role=Role.SOURCE))
        lib.add(ComponentSpec(f"B{i}", "bus", cost=20, failure_prob=1e-2))
    for s in range(n_sinks):
        lib.add(ComponentSpec(f"L{s}", "load", demand=10, role=Role.SINK))
    lib.set_type_order(["gen", "bus", "load"])
    names = ["G0", "G1", "B0", "B1"] + [f"L{s}" for s in range(n_sinks)]
    t = ArchitectureTemplate(lib, names)
    for i in range(2):
        for j in range(2):
            t.allow_edge(f"G{i}", f"B{j}")
        for s in range(n_sinks):
            t.allow_edge(f"B{i}", f"L{s}")
    return Architecture(t, t.allowed_edges)


class TestWorkerMetricsAggregation:
    """Pool workers' metrics must survive the trip home (the jobs>1
    metrics-loss fix): after a parallel batch the parent registry reports
    the same per-engine call totals as a serial run of the same batch."""

    def run_with_metrics(self, jobs, telemetry=None):
        from repro import obs

        obs.reset_metrics()
        outcome = run_batch(
            reliability_map(multi_sink_arch(), method="bdd"),
            jobs=jobs, telemetry=telemetry,
        )
        assert outcome.num_failed == 0
        snap = obs.snapshot()
        obs.reset_metrics()
        return outcome, {
            name: data["value"]
            for name, data in snap.items()
            if data["kind"] == "counter"
        }

    def test_pool_counters_match_serial(self):
        _, serial = self.run_with_metrics(jobs=1)
        _, pooled = self.run_with_metrics(jobs=2)
        assert serial["engine.jobs.completed"] == 4
        assert pooled == serial

    def test_metrics_snapshots_land_in_telemetry(self, tmp_path):
        from repro import obs
        from repro.engine import read_events

        telemetry = str(tmp_path / "telemetry.jsonl")
        outcome, counters = self.run_with_metrics(jobs=2, telemetry=telemetry)
        snaps = [e for e in read_events(telemetry)
                 if e["event"] == "metrics_snapshot"]
        assert len(snaps) == len(outcome.results)
        assert {s["job"] for s in snaps} == set(outcome.by_id())
        assert all(s["worker_pid"] != os.getpid() for s in snaps)
        # The artifact alone reconstructs the worker totals.
        replayed = obs.merge_telemetry(telemetry)
        assert replayed.counter("engine.jobs.completed").value == (
            counters["engine.jobs.completed"]
        )

    def test_serial_mode_does_not_double_count(self, tmp_path):
        from repro.engine import read_events

        telemetry = str(tmp_path / "telemetry.jsonl")
        _, counters = self.run_with_metrics(jobs=1, telemetry=telemetry)
        assert counters["engine.jobs.completed"] == 4
        snaps = [e for e in read_events(telemetry)
                 if e["event"] == "metrics_snapshot"]
        assert snaps == []  # serial jobs tick the parent registry directly

    def test_batch_registers_a_live_run(self):
        from repro import obs

        obs.reset_run_registry()
        outcome, _ = self.run_with_metrics(jobs=1)
        finished = obs.run_registry().snapshot()["finished"]
        (record,) = [r for r in finished if r["kind"] == "batch"]
        assert record["status"] == "done"
        assert record["done"] == len(outcome.results)
        assert record["failed"] == 0
        obs.reset_run_registry()


class TestPoolWorkerExit:
    @pytest.mark.parametrize("executor", ["pool", "queue"])
    def test_pool_and_queue_workers_land_cache_writes(self, tmp_path,
                                                      executor):
        """Every worker's cache writes land in the one cache file: a
        serial re-run of the batch on the same directory gets all 40
        hits, and every entry audits clean."""
        from repro.verify import audit_cache
        from repro.verify.corpus import parallel_case, series_case

        cases = [series_case(p=0.01 + 1e-3 * i, n=2 + i % 4)
                 for i in range(20)]
        cases += [parallel_case(p=0.02 + 1e-3 * i, k=2 + i % 3)
                  for i in range(20)]
        batch = BatchSpec("cache-writes", [
            Job(job_id=f"s{i}", kind="reliability",
                payload={"problem": c.problem, "method": "bdd"})
            for i, c in enumerate(cases)
        ])
        cache_dir = str(tmp_path / "cache")
        workers = run_batch(batch, jobs=2, executor=executor,
                            cache_dir=cache_dir)
        assert workers.num_failed == 0
        serial = run_batch(batch, jobs=1, cache_dir=cache_dir)
        assert serial.cache_hits == len(batch.jobs)
        report = audit_cache(cache_dir, sample=len(batch.jobs))
        assert report.audited == len(batch.jobs)
        assert report.findings == []


# Module-level runners so they pickle / survive the fork into pool workers.


def _boom(job):
    if job.payload.get("ok"):
        return 42
    raise RuntimeError("intentional failure")


def _flaky(job):
    marker = job.payload["marker"]
    attempts = 0
    if os.path.exists(marker):
        with open(marker) as fh:
            attempts = int(fh.read() or 0)
    attempts += 1
    with open(marker, "w") as fh:
        fh.write(str(attempts))
    if attempts <= job.payload["fail_times"]:
        raise OSError(f"transient glitch #{attempts}")
    return attempts


def _sleep(job):
    import time

    time.sleep(job.payload["seconds"])
    return "done"


def _echo(job):
    return job.payload["i"]


def _nap(job):
    time.sleep(job.payload["seconds"])
    return job.payload["i"]


def _kill_own_worker_once(job):
    marker = job.payload["marker"]
    if not os.path.exists(marker):
        open(marker, "w").close()
        os.kill(os.getpid(), signal.SIGKILL)
    return "survived"


def _registered_late(job):
    return "late"


def nap_batch(name, n=2, seconds=0.2):
    return BatchSpec(name, [
        Job(job_id=f"{name}-{i}", kind="nap",
            payload={"seconds": seconds, "i": i})
        for i in range(n)
    ])


def worker_pids(outcome):
    return {r.worker_pid for r in outcome.results}


def live_children():
    return {p.pid for p in multiprocessing.active_children()}


def wait_until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.02)
    return True


class TestWorkerPool:
    """A ``WorkerPool`` hands a pool batch's workers to the next batch
    only when the batch ended clean and its workers inherited what the
    next batch needs: a batch runs on the previous one's workers exactly
    when every job of it ran on a process alive before it started."""

    @pytest.fixture()
    def pool(self):
        register_runner("nap", _nap)
        pool = WorkerPool()
        yield pool
        pool.close()

    def test_clean_batches_share_workers_and_match_serial(self, pool):
        from repro.service.runner import canonical_results

        batch = requirement_sweep(sweep_spec(), LEVELS, algorithm="mr",
                                  backend="scipy")
        serial = canonical_results(run_batch(batch, jobs=1).results)
        first = run_batch(batch, jobs=2, pool=pool)
        between = live_children()
        second = run_batch(batch, jobs=2, pool=pool)
        assert worker_pids(first) | worker_pids(second) <= between
        assert len(worker_pids(first) | worker_pids(second)) <= 2
        assert canonical_results(first.results) == serial
        assert canonical_results(second.results) == serial

    def test_timed_out_job_retires_the_workers(self, pool):
        first = run_batch(BatchSpec("slow", [
            Job(job_id="slow", kind="nap", payload={"seconds": 3.0, "i": 0}),
            Job(job_id="fast", kind="nap", payload={"seconds": 0.0, "i": 1}),
        ]), jobs=2, timeout=0.5, retries=0, pool=pool)
        assert first.by_id()["slow"].error_type == "TimeoutError"
        before = live_children()
        second = run_batch(nap_batch("after"), jobs=2, pool=pool)
        assert second.num_failed == 0
        assert worker_pids(second).isdisjoint(before)

    def test_stopped_batch_retires_the_workers(self, pool):
        polls = []
        first = run_batch(nap_batch("stopped", n=6, seconds=0.3), jobs=2,
                          pool=pool,
                          should_stop=lambda: polls.append(1) or len(polls) > 1)
        assert first.stopped and len(first.results) < 6
        before = live_children()
        second = run_batch(nap_batch("after"), jobs=2, pool=pool)
        assert second.num_failed == 0
        assert worker_pids(second).isdisjoint(before)

    def test_rebuilt_pool_is_not_kept(self, pool, tmp_path):
        register_runner("kill-once", _kill_own_worker_once)
        telemetry = tmp_path / "t.jsonl"
        first = run_batch(BatchSpec("broken", [
            Job(job_id="k", kind="kill-once",
                payload={"marker": str(tmp_path / "killed")}),
        ]), jobs=2, pool=pool, telemetry=str(telemetry))
        assert first.values() == ["survived"]
        assert [e["event"] for e in read_events(telemetry)].count(
            "pool_restart") == 1
        before = live_children()
        second = run_batch(nap_batch("after"), jobs=2, pool=pool)
        assert second.num_failed == 0
        assert worker_pids(second).isdisjoint(before)

    @pytest.mark.parametrize("change", ["workers", "cache_dir", "runner"])
    def test_changed_inheritance_forks_a_new_pool(self, pool, tmp_path,
                                                  change):
        run_batch(nap_batch("first"), jobs=2, pool=pool)
        before = live_children()
        batch, kwargs = nap_batch("second"), {"jobs": 2}
        if change == "workers":
            kwargs["jobs"] = 3
        elif change == "cache_dir":
            kwargs["cache_dir"] = str(tmp_path / "cache")
        else:
            register_runner("registered-late", _registered_late)
            batch = BatchSpec("late", [
                Job(job_id="late", kind="registered-late", payload={}),
            ])
        second = run_batch(batch, pool=pool, **kwargs)
        assert second.num_failed == 0
        assert worker_pids(second).isdisjoint(before)
        if change == "runner":
            assert second.values() == ["late"]

    def test_worker_killed_while_idle_costs_one_fork(self, pool, tmp_path):
        first = run_batch(nap_batch("first"), jobs=2, pool=pool)
        before = live_children()
        victim = min(worker_pids(first))
        os.kill(victim, signal.SIGKILL)
        assert wait_until(lambda: victim not in live_children())
        telemetry = tmp_path / "t.jsonl"
        second = run_batch(nap_batch("second"), jobs=2, pool=pool,
                           telemetry=str(telemetry))
        assert second.num_failed == 0
        assert [r.attempts for r in second.results] == [1, 1]
        assert "pool_restart" not in [e["event"]
                                      for e in read_events(telemetry)]
        assert worker_pids(second).isdisjoint(before)

    def test_busy_pool_leaves_a_concurrent_batch_its_own_workers(self,
                                                                 pool):
        outcomes = {}
        holder = threading.Thread(target=lambda: outcomes.update(
            held=run_batch(nap_batch("held", seconds=0.6), jobs=2,
                           pool=pool)))
        before = live_children()
        holder.start()
        # The holder's batch has taken the pool once its workers exist.
        assert wait_until(lambda: len(live_children() - before) >= 2)
        scoped = run_batch(nap_batch("scoped"), jobs=2, pool=pool)
        holder.join(timeout=30)
        assert not holder.is_alive()
        assert scoped.num_failed == 0 and outcomes["held"].num_failed == 0
        assert worker_pids(scoped).isdisjoint(worker_pids(outcomes["held"]))
        # The scoped pool was reaped; the held one serves the next batch.
        between = live_children()
        assert worker_pids(scoped).isdisjoint(between)
        after = run_batch(nap_batch("after"), jobs=2, pool=pool)
        assert worker_pids(after) <= between

    def test_job_logs_carry_their_own_batch(self, pool, tmp_path):
        """A kept worker logs each job under the batch that sent it, not
        under the batch whose thread forked it."""
        from repro import obs

        register_runner("boom", _boom)
        log_path = tmp_path / "log.jsonl"
        obs.configure_obslog(path=log_path)
        try:
            for name in ("first", "second"):
                run_batch(BatchSpec(name, [
                    Job(job_id=f"{name}-job", kind="boom", payload={}),
                ]), jobs=2, pool=pool)
        finally:
            obs.configure_obslog()
        errors = [r for r in obs.read_log(log_path)
                  if r["event"] == "engine.job_error"]
        assert sorted((r["job"], r["batch"]) for r in errors) == [
            ("first-job", "first"), ("second-job", "second"),
        ]

    def test_close_reaps_the_workers(self, pool):
        first = run_batch(nap_batch("first"), jobs=2, pool=pool)
        pool.close()
        assert wait_until(lambda: worker_pids(first).isdisjoint(
            live_children()))
        # A closed pool forks nothing: a later batch brings its own.
        second = run_batch(nap_batch("second"), jobs=2, pool=pool)
        assert second.num_failed == 0
        assert worker_pids(second).isdisjoint(live_children())


class TestModeEquivalence:
    """Serial, pool and queue runs go through one dispatch loop, so a
    batch's results and journal do not depend on the executor mode."""

    MODES = {
        "serial": dict(jobs=1),
        "pool": dict(jobs=2),
        "queue": dict(jobs=2, executor="queue"),
    }

    @pytest.mark.parametrize("mode", ["pool", "queue"])
    def test_failed_job_reported_like_serial(self, mode):
        from repro.service.runner import canonical_results

        batch = requirement_sweep(sweep_spec(), [1e-3], algorithm="mr",
                                  backend="scipy")
        batch.jobs.append(Job(job_id="bad", kind="synthesize", payload={
            "spec": sweep_spec(), "algorithm": "nope", "options": {},
        }))
        serial = run_batch(batch, jobs=1)
        other = run_batch(batch, **self.MODES[mode])
        assert canonical_results(other.results) == canonical_results(
            serial.results
        )
        bad = other.by_id()["bad"]
        assert not bad.ok and bad.error_type == "ValueError"
        assert bad.error == "unknown algorithm 'nope'"
        assert bad.wall_time > 0
        assert bad.worker_pid is not None

    @pytest.mark.parametrize("mode", ["serial", "pool", "queue"])
    def test_repeated_job_id_keeps_every_job(self, mode):
        batch = BatchSpec("repeat", [
            Job(job_id="twin", kind="noop", payload={"value": 1}),
            Job(job_id="twin", kind="noop", payload={"value": 2}),
            Job(job_id="solo", kind="noop", payload={"value": 3}),
        ])
        outcome = run_batch(batch, **self.MODES[mode])
        assert outcome.num_failed == 0
        assert len(outcome.results) == 3
        assert {r.value for r in outcome.results} == {1, 2, 3}

    @pytest.mark.parametrize("mode", ["serial", "pool", "queue"])
    def test_iter_batch_journals_one_job_end_per_job_start(self, tmp_path,
                                                           mode):
        from repro.engine import TelemetryWriter, read_events

        path = tmp_path / "t.jsonl"
        batch = BatchSpec("journal", [
            Job(job_id=f"n{i}", kind="noop", payload={"value": i})
            for i in range(3)
        ])
        with TelemetryWriter(path) as writer:
            results = list(iter_batch(batch, writer=writer,
                                      **self.MODES[mode]))
        assert len(results) == 3
        events = [e["event"] for e in read_events(path)]
        assert events.count("job_start") == 3
        assert events.count("job_end") == 3

    def test_failure_traceback_goes_to_the_log_not_the_result(self,
                                                              tmp_path):
        from repro import obs

        register_runner("boom", _boom)
        log_path = tmp_path / "log.jsonl"
        obs.configure_obslog(path=log_path)
        try:
            outcome = run_batch(BatchSpec("boom", [
                Job(job_id="a", kind="boom", payload={}),
            ]))
        finally:
            obs.configure_obslog()
        (res,) = outcome.results
        assert res.error == "intentional failure"
        (record,) = [r for r in obs.read_log(log_path)
                     if r["event"] == "engine.job_error"]
        assert record["job"] == "a" and record["error"] == "RuntimeError"
        assert "intentional failure" in record["traceback"]


class TestStreamingHooks:
    """The on_result / should_stop hooks the service runner drives."""

    def test_on_result_streams_in_completion_order(self):
        register_runner("echo", _echo)
        batch = BatchSpec("echo", [
            Job(job_id=f"e{i}", kind="echo", payload={"i": i})
            for i in range(4)
        ])
        seen = []
        outcome = run_batch(batch, on_result=lambda r: seen.append(r.job_id))
        assert seen == [f"e{i}" for i in range(4)]
        assert not outcome.stopped

    def test_should_stop_breaks_at_job_boundary(self):
        register_runner("echo", _echo)
        batch = BatchSpec("echo", [
            Job(job_id=f"e{i}", kind="echo", payload={"i": i})
            for i in range(10)
        ])
        done = []

        outcome = run_batch(
            batch,
            on_result=lambda r: done.append(r.job_id),
            should_stop=lambda: len(done) >= 3,
        )
        assert outcome.stopped
        assert len(outcome.results) == 3

    def test_should_stop_before_first_job(self):
        register_runner("echo", _echo)
        batch = BatchSpec("echo", [
            Job(job_id="e0", kind="echo", payload={"i": 0}),
        ])
        outcome = run_batch(batch, should_stop=lambda: True)
        assert outcome.stopped
        assert outcome.results == []

    def test_batch_end_telemetry_records_stopped(self, tmp_path):
        from repro.engine import read_events

        register_runner("echo", _echo)
        batch = BatchSpec("echo", [
            Job(job_id=f"e{i}", kind="echo", payload={"i": i})
            for i in range(3)
        ])
        telemetry = tmp_path / "t.jsonl"
        run_batch(batch, telemetry=str(telemetry), should_stop=lambda: True)
        (end,) = [
            e for e in read_events(telemetry) if e["event"] == "batch_end"
        ]
        assert end["stopped"] is True


class _FakeFuture:
    """Stand-in for a pool future whose completion the test scripts."""

    def __init__(self):
        self._value = None
        self._exc = None
        self._done = False
        self.was_cancelled = False

    def set_result(self, value):
        self._value, self._done = value, True

    def set_exception(self, exc):
        self._exc, self._done = exc, True

    def done(self):
        return self._done

    def exception(self):
        return self._exc

    def result(self):
        if self._exc is not None:
            raise self._exc
        return self._value

    def cancel(self):
        if self._done:
            return False
        self.was_cancelled = True
        self._done = True
        return True


def _wrapped_ok(value):
    """A _worker_run-shaped payload for a scripted success."""
    return {
        "value": value,
        "wall_time": 0.0,
        "worker_pid": 4242,
        "cache_hits": 0,
        "cache_misses": 0,
    }


class TestPoolRebuildDedup:
    """Regression: rebuilding a broken pool while other futures are in
    flight must not execute an already-completed job a second time (the
    old rebuild path resubmitted *every* pending future, double-counting
    the finished ones in results, telemetry, and metrics)."""

    def test_rebuild_does_not_resubmit_completed_job(self, monkeypatch):
        from concurrent.futures.process import BrokenProcessPool

        from repro.engine import executor as executor_mod

        pools = []

        class FakePool:
            def __init__(self, max_workers=None, initializer=None,
                         initargs=()):
                self.futures = {}     # job_id -> latest future
                self.submitted = []   # job_ids, in submission order
                pools.append(self)

            def submit(self, fn, job, *batch_args):
                fut = _FakeFuture()
                self.submitted.append(job.job_id)
                self.futures[job.job_id] = fut
                if len(pools) > 1:
                    # Any job the rebuilt pool receives "executes"
                    # instantly — so a buggy resubmission of B would
                    # surface as a second submission, not a hang.
                    fut.set_result(_wrapped_ok(f"{job.job_id}-redone"))
                return fut

            def shutdown(self, wait=False, cancel_futures=False):
                pass

        calls = {"n": 0}

        def fake_wait(fs, timeout=None, return_when=None):
            calls["n"] += 1
            if calls["n"] == 1:
                # B finishes fine; A's worker dies. wait() reports only
                # A — B's completed future is still "in flight" when the
                # executor decides to rebuild the pool.
                pools[0].futures["B"].set_result(_wrapped_ok("B-done"))
                fut_a = pools[0].futures["A"]
                fut_a.set_exception(BrokenProcessPool("worker died"))
                return {fut_a}, {f for f in fs if f is not fut_a}
            done = {f for f in fs if f.done()}
            return done, set(fs) - done

        monkeypatch.setattr(executor_mod, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(executor_mod, "wait", fake_wait)

        batch = BatchSpec("rebuild", [
            Job(job_id="A", kind="noop", payload={}),
            Job(job_id="B", kind="noop", payload={}),
        ])
        results = list(iter_batch(batch, jobs=2, retries=1))

        assert sorted(r.job_id for r in results) == ["A", "B"]
        by_id = {r.job_id: r for r in results}
        # B's first (and only) execution is the one reported.
        assert by_id["B"].value == "B-done"
        assert by_id["B"].attempts == 1
        # A was resubmitted to the rebuilt pool.
        assert by_id["A"].value == "A-redone"
        assert by_id["A"].attempts == 2
        submissions = [j for p in pools for j in p.submitted]
        assert submissions.count("B") == 1, "completed job was re-executed"
        assert submissions.count("A") == 2
        assert len(pools) == 2


class TestPoolBreaksDuringRebuild:
    def test_submit_into_a_broken_pool_rebuilds_instead_of_raising(
            self, monkeypatch):
        """Regression: a rebuilt pool can break again between two of its
        resubmissions (the first one killed its new worker at once);
        ``ProcessPoolExecutor.submit`` then raises ``BrokenProcessPool``,
        which used to escape the batch instead of triggering a rebuild."""
        from concurrent.futures.process import BrokenProcessPool

        from repro.engine import executor as executor_mod

        pools = []

        class FakePool:
            def __init__(self, max_workers=None, initializer=None,
                         initargs=()):
                self.generation = len(pools)
                self.submitted = []
                pools.append(self)

            def submit(self, fn, job, *batch_args):
                if self.generation == 1 and self.submitted:
                    raise BrokenProcessPool("pool broke between submissions")
                self.submitted.append(job.job_id)
                fut = _FakeFuture()
                if self.generation < 2:
                    fut.set_exception(BrokenProcessPool("worker died"))
                else:
                    fut.set_result(_wrapped_ok(f"{job.job_id}-done"))
                return fut

            def shutdown(self, wait=False, cancel_futures=False):
                pass

        def fake_wait(fs, timeout=None, return_when=None):
            done = {f for f in fs if f.done()}
            return done, set(fs) - done

        monkeypatch.setattr(executor_mod, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(executor_mod, "wait", fake_wait)

        batch = BatchSpec("rebroken", [
            Job(job_id="A", kind="noop", payload={}),
            Job(job_id="B", kind="noop", payload={}),
        ])
        results = {r.job_id: r for r in iter_batch(batch, jobs=2, retries=0)}

        assert sorted(results) == ["A", "B"]
        assert results["A"].ok and results["A"].value == "A-done"
        assert results["B"].ok and results["B"].value == "B-done"
        assert len(pools) == 3
        assert pools[1].submitted == ["A"]
        assert pools[2].submitted == ["A", "B"]
