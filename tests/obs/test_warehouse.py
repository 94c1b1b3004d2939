"""Tests for the SQLite telemetry warehouse (`repro.obs.warehouse`)."""

import json
import time

import pytest

from repro import obs
from repro.obs.warehouse import TelemetryWarehouse


@pytest.fixture(autouse=True)
def clean_obs():
    obs.reset_metrics()
    obs.configure_obslog()
    obs.configure_auto_ingest(None)
    yield
    obs.reset_metrics()
    obs.configure_obslog()
    obs.configure_auto_ingest(None)


def telemetry_events(batch="b-1", jobs=2):
    """A minimal but complete telemetry journal for one batch."""
    t = 100.0
    events = [
        {"ts": t, "batch": batch, "event": "batch_start", "name": "unit",
         "jobs": jobs, "workers": 0, "cache_dir": None},
    ]
    for i in range(jobs):
        events.append({"ts": t + i, "batch": batch, "event": "job_start",
                       "job": f"job-{i}", "kind": "solve", "mode": "inproc"})
        events.append({"ts": t + i + 0.5, "batch": batch, "event": "job_end",
                       "job": f"job-{i}", "ok": True, "attempts": 1,
                       "wall_time": 0.5, "cache_hits": 1, "cache_misses": 0,
                       "error": None})
    events.append({"ts": t + 9, "batch": batch, "event": "span",
                   "uid": "7.1", "parent": None, "name": "engine.batch",
                   "pid": 7, "dur": 9.0, "attrs": {"jobs": jobs}})
    events.append({"ts": t + 9, "batch": batch, "event": "bnb_event",
                   "solve": "solve-1", "kind": "incumbent", "node": 3,
                   "depth": 2, "objective": 41.5})
    events.append({"ts": t + 10, "batch": batch, "event": "batch_end",
                   "name": "unit", "wall_time": 10.0, "ok": jobs,
                   "failed": 0, "cache_hits": jobs, "cache_misses": 0,
                   "stopped": False})
    return events


def write_journal(path, events):
    with path.open("w", encoding="utf-8") as fh:
        for e in events:
            fh.write(json.dumps(e) + "\n")


class TestIngest:
    def test_counts_match_journal_ground_truth(self, tmp_path):
        journal = tmp_path / "tel.jsonl"
        events = telemetry_events(jobs=3)
        write_journal(journal, events)
        wh = TelemetryWarehouse(tmp_path / "wh.db")
        counts = wh.ingest_file(journal)
        # ground truth straight from the journal itself
        job_ends = sum(1 for e in events if e["event"] == "job_end")
        spans = sum(1 for e in events if e["event"] == "span")
        bnb = sum(1 for e in events if e["event"] == "bnb_event")
        assert counts["batches"] == 1
        assert counts["jobs"] == job_ends == 3
        assert counts["spans"] == spans == 1
        assert counts["bnb_events"] == bnb == 1
        totals = wh.counts()
        assert totals["jobs"] == 3
        assert totals["batches"] == 1
        wh.close()

    def test_reingest_is_idempotent(self, tmp_path):
        journal = tmp_path / "tel.jsonl"
        write_journal(journal, telemetry_events())
        wh = TelemetryWarehouse(tmp_path / "wh.db")
        wh.ingest_file(journal)
        second = wh.ingest_file(journal)
        assert sum(second.values()) == 0
        assert wh.counts()["jobs"] == 2
        wh.close()

    def test_incremental_append_only_reads_new_lines(self, tmp_path):
        journal = tmp_path / "tel.jsonl"
        events = telemetry_events(jobs=2)
        write_journal(journal, events[:3])  # batch_start + first job pair
        wh = TelemetryWarehouse(tmp_path / "wh.db")
        first = wh.ingest_file(journal)
        assert first["jobs"] == 1
        with journal.open("a", encoding="utf-8") as fh:
            for e in events[3:]:
                fh.write(json.dumps(e) + "\n")
        second = wh.ingest_file(journal)
        assert second["jobs"] == 1  # only the new job_end
        assert wh.counts()["jobs"] == 2
        wh.close()

    def test_partial_trailing_line_deferred(self, tmp_path):
        journal = tmp_path / "tel.jsonl"
        events = telemetry_events()
        write_journal(journal, events)
        # simulate a writer mid-line: append half a record, no newline
        with journal.open("a", encoding="utf-8") as fh:
            fh.write('{"ts": 1, "batch": "b-1", "eve')
        wh = TelemetryWarehouse(tmp_path / "wh.db")
        wh.ingest_file(journal)  # must not raise
        assert wh.counts()["batches"] == 1
        wh.close()

    def test_obslog_kind_sniffed(self, tmp_path):
        logfile = tmp_path / "obs.jsonl"
        write_journal(logfile, [
            {"ts": 1.0, "level": "info", "event": "run.created",
             "run": "r-1"},
            {"ts": 2.0, "level": "warning", "event": "job.retry",
             "run": "r-1", "job": "j-1"},
        ])
        wh = TelemetryWarehouse(tmp_path / "wh.db")
        counts = wh.ingest_file(logfile)
        assert counts["logs"] == 2
        rows = wh.query(
            "SELECT event FROM logs ORDER BY ts")
        assert [r["event"] for r in rows] == ["run.created", "job.retry"]
        wh.close()

    def test_run_batch_log_lines_all_land_in_logs(self, tmp_path):
        # run_batch's log context stamps every log record with ``batch``;
        # the ``level`` key still makes each one a log line.
        from repro.engine import run_batch
        from tests.engine.test_telemetry import small_batch

        logfile = tmp_path / "log.jsonl"
        obs.configure_obslog(path=logfile)
        try:
            run_batch(small_batch())
        finally:
            obs.configure_obslog()
        lines = logfile.read_text(encoding="utf-8").splitlines()
        assert any("batch" in json.loads(line) for line in lines)
        wh = TelemetryWarehouse(tmp_path / "wh.db")
        counts = wh.ingest_file(logfile)
        assert counts.get("logs") == len(lines) > 0
        assert wh.counts()["jobs"] == 0
        wh.close()

    def test_lifecycle_records_without_batch_are_skipped(self, tmp_path):
        journal = tmp_path / "hand-made.jsonl"
        write_journal(journal, [
            {"ts": 1, "event": "batch_start", "name": "x"},
            {"ts": 2, "event": "job_end", "job": "a", "ok": True},
            {"ts": 3, "level": "info", "event": "note"},
        ])
        wh = TelemetryWarehouse(tmp_path / "wh.db")
        assert wh.ingest_file(journal) == {"logs": 1}
        wh.close()

    def test_retry_and_timeout_events_roll_into_job_row(self, tmp_path):
        journal = tmp_path / "tel.jsonl"
        events = [
            {"ts": 1, "batch": "b", "event": "batch_start", "name": "u",
             "jobs": 1, "workers": 0},
            {"ts": 2, "batch": "b", "event": "job_retry", "job": "j",
             "attempt": 1},
            {"ts": 3, "batch": "b", "event": "job_timeout", "job": "j",
             "attempt": 2},
            {"ts": 4, "batch": "b", "event": "job_end", "job": "j",
             "ok": True, "attempts": 3, "wall_time": 2.0,
             "cache_hits": 0, "cache_misses": 1, "error": None},
        ]
        write_journal(journal, events)
        wh = TelemetryWarehouse(tmp_path / "wh.db")
        wh.ingest_file(journal)
        (row,) = wh.query("SELECT retries, timeouts, attempts FROM jobs")
        assert row["retries"] == 1
        assert row["timeouts"] == 1
        assert row["attempts"] == 3
        wh.close()

    def test_metrics_snapshot_expands_to_deltas(self, tmp_path):
        journal = tmp_path / "tel.jsonl"
        write_journal(journal, [
            {"ts": 1, "batch": "b", "event": "metrics_snapshot",
             "worker_pid": 42, "metrics": {
                 "engine.jobs.completed": {"kind": "counter", "value": 5},
                 "engine.job.seconds": {"kind": "histogram", "count": 5,
                                        "sum": 2.5},
             }},
        ])
        wh = TelemetryWarehouse(tmp_path / "wh.db")
        counts = wh.ingest_file(journal)
        assert counts["metric_deltas"] == 2
        rows = {r["metric"]: r for r in wh.query(
            "SELECT metric, kind, value, count FROM metric_deltas")}
        assert rows["engine.jobs.completed"]["value"] == 5
        assert rows["engine.job.seconds"]["value"] == 2.5
        assert rows["engine.job.seconds"]["count"] == 5
        wh.close()


class TestQueryGuard:
    def test_writes_rejected(self, tmp_path):
        wh = TelemetryWarehouse(tmp_path / "wh.db")
        for sql in ("DELETE FROM jobs", "DROP TABLE jobs",
                    "INSERT INTO jobs (batch, job) VALUES ('a', 'b')"):
            with pytest.raises(ValueError):
                wh.query(sql)
        wh.close()

    def test_select_allowed(self, tmp_path):
        wh = TelemetryWarehouse(tmp_path / "wh.db")
        assert wh.query("SELECT COUNT(*) AS n FROM jobs")[0]["n"] == 0
        wh.close()


class TestVacuum:
    def test_keep_batches_drops_oldest(self, tmp_path):
        wh = TelemetryWarehouse(tmp_path / "wh.db")
        for i in range(3):
            events = telemetry_events(batch=f"b-{i}")
            for e in events:
                e["ts"] += i * 100  # stagger start times
            wh.ingest_events(events, source=f"mem-{i}")
        removed = wh.vacuum(keep_batches=1)
        assert removed["batches"] == 2
        remaining = wh.query("SELECT batch FROM batches")
        assert [r["batch"] for r in remaining] == ["b-2"]
        # child tables swept too
        assert wh.counts()["jobs"] == 2
        wh.close()

    def test_max_age_prunes_rows_without_a_batch(self, tmp_path):
        # A raw worker spool: its records carry no batch id.
        old = time.time() - 3600
        spool = [
            {"ts": old, "event": "span", "uid": "7.1", "parent": None,
             "name": "engine.job", "pid": 7, "dur": 1.0},
            {"ts": old, "event": "metrics_snapshot", "worker_pid": 7,
             "metrics": {"engine.jobs.completed": {"kind": "counter",
                                                   "value": 1}}},
            {"ts": old, "event": "bnb_event", "solve": "s-1",
             "kind": "incumbent", "node": 1, "depth": 0, "objective": 2.0},
            {"ts": old, "level": "info", "event": "job.done"},
        ]
        fresh = dict(spool[0], ts=time.time(), uid="7.2")
        journal = telemetry_events(batch="recent")
        for e in journal:
            e["ts"] += time.time()
        wh = TelemetryWarehouse(tmp_path / "wh.db")
        wh.ingest_events(spool + [fresh], source="spool")
        wh.ingest_events(journal, source="journal")
        assert wh.vacuum(keep_batches=1) == {}  # batch-less rows untouched
        removed = wh.vacuum(max_age=60)
        assert removed == {"spans": 1, "metric_deltas": 1, "bnb_events": 1,
                           "logs": 1}
        counts = wh.counts()
        # The fresh spool span and the recent batch's rows stay.
        assert counts["spans"] == 2 and counts["bnb_events"] == 1
        assert counts["metric_deltas"] == counts["logs"] == 0
        assert counts["batches"] == 1 and counts["jobs"] == 2
        wh.close()


class TestAutoIngest:
    def test_maybe_auto_ingest_when_armed(self, tmp_path):
        journal = tmp_path / "tel.jsonl"
        write_journal(journal, telemetry_events())
        db = tmp_path / "wh.db"
        obs.configure_auto_ingest(db)
        assert obs.auto_ingest_path() == db
        obs.maybe_auto_ingest(journal)
        wh = TelemetryWarehouse(db)
        assert wh.counts()["batches"] == 1
        wh.close()

    def test_disarmed_is_noop(self, tmp_path):
        journal = tmp_path / "tel.jsonl"
        write_journal(journal, telemetry_events())
        obs.configure_auto_ingest(None)
        obs.maybe_auto_ingest(journal)
        assert not (tmp_path / "wh.db").exists()

    def test_ingest_failure_swallowed(self, tmp_path):
        obs.configure_auto_ingest(tmp_path / "wh.db")
        obs.maybe_auto_ingest(tmp_path / "missing.jsonl")  # must not raise
