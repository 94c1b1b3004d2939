"""Tests for the SQLite telemetry warehouse (`repro.obs.warehouse`)."""

import io
import json
import sqlite3
import time

import pytest

from repro import obs
from repro.obs.obslog import read_log
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

    def test_a_write_behind_a_read_keyword_changes_nothing(self, tmp_path):
        journal = tmp_path / "tel.jsonl"
        write_journal(journal, telemetry_events())
        wh = TelemetryWarehouse(tmp_path / "wh.db")
        wh.ingest_file(journal)
        before = wh.counts()
        assert before["spans"] == 1
        with pytest.raises(sqlite3.OperationalError, match="readonly"):
            wh.query("WITH t AS (SELECT 1)"
                     " DELETE FROM records WHERE event = 'span'")
        assert wh.counts() == before
        # Writes are refused only while query() runs.
        later = tmp_path / "later.jsonl"
        write_journal(later, telemetry_events(batch="b-2"))
        assert wh.ingest_file(later)["jobs"] == 2
        assert wh.vacuum(keep_batches=1)["spans"] == 1
        assert wh.counts()["batches"] == 1
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


def earlier_layout_file(path):
    """A warehouse file as the earlier layout left it: ``jobs`` a table."""
    conn = sqlite3.connect(str(path))
    conn.execute("CREATE TABLE jobs (batch TEXT NOT NULL, job TEXT NOT NULL,"
                 " PRIMARY KEY (batch, job))")
    conn.commit()
    conn.close()


class TestEarlierLayout:
    def test_file_with_a_jobs_table_is_refused(self, tmp_path):
        db = tmp_path / "old.db"
        earlier_layout_file(db)
        with pytest.raises(ValueError, match="old.db") as err:
            TelemetryWarehouse(db)
        assert "re-ingest" in str(err.value)
        # Nothing was written, and the refused connection let go of the
        # file: another one can change it.
        conn = sqlite3.connect(str(db))
        names = {r[0] for r in conn.execute("SELECT name FROM sqlite_master")}
        conn.execute("DROP TABLE jobs")
        conn.commit()
        conn.close()
        assert names == {"jobs", "sqlite_autoindex_jobs_1"}

    def test_auto_ingest_into_it_warns_and_the_batch_completes(
        self, tmp_path
    ):
        from repro.engine import run_batch
        from tests.engine.test_telemetry import small_batch

        db = tmp_path / "old.db"
        earlier_layout_file(db)
        stream = io.StringIO()
        obs.configure_obslog(stream=stream)
        obs.configure_auto_ingest(db)
        outcome = run_batch(small_batch(), telemetry=tmp_path / "tel.jsonl")
        assert outcome.num_failed == 0 and len(outcome.results) == 2
        failed = [r for r in map(json.loads, stream.getvalue().splitlines())
                  if r["event"] == "warehouse.ingest_failed"]
        assert len(failed) == 1
        assert failed[0]["level"] == "warning"
        assert "old.db" in failed[0]["error"]


class TestNonFiniteFloats:
    def test_infinity_and_nan_read_as_null(self, tmp_path):
        journal = tmp_path / "tel.jsonl"
        # json.dumps writes Infinity and NaN, as every producer does.
        write_journal(journal, [
            {"ts": 1.0, "batch": "b", "event": "bnb_event", "solve": 4,
             "kind": "prune", "node": 7, "depth": 3, "objective": 12.5,
             "reason": "bound", "incumbent": float("inf")},
            {"ts": 2.0, "batch": "b", "event": "span", "uid": "7.1",
             "parent": None, "name": "ilp.solve", "pid": 7, "dur": 0.25,
             "attrs": {"bound": float("-inf"), "gap": float("nan"),
                       "nodes": 3}},
        ])
        assert "Infinity" in journal.read_text(encoding="utf-8")
        wh = TelemetryWarehouse(tmp_path / "wh.db")
        assert wh.ingest_file(journal) == {"bnb_events": 1, "spans": 1}
        (bnb,) = wh.query(
            "SELECT json_extract(payload, '$.incumbent') AS incumbent,"
            " batch, ts, solve, kind, node, depth, objective, reason"
            " FROM bnb_events")
        assert bnb == {"incumbent": None, "batch": "b", "ts": 1.0,
                       "solve": "4", "kind": "prune", "node": 7, "depth": 3,
                       "objective": 12.5, "reason": "bound"}
        (span,) = wh.query(
            "SELECT json_extract(attrs, '$.bound') AS bound,"
            " json_extract(attrs, '$.gap') AS gap,"
            " json_extract(attrs, '$.nodes') AS nodes,"
            " batch, uid, parent, name, pid, ts, dur FROM spans")
        assert span == {"bound": None, "gap": None, "nodes": 3, "batch": "b",
                        "uid": "7.1", "parent": None, "name": "ilp.solve",
                        "pid": 7, "ts": 2.0, "dur": 0.25}
        wh.close()


class TestPoolJournal:
    def test_views_match_a_traced_pool_bnb_sweep(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        files = ("t.jsonl", "tr.jsonl", "log.jsonl")
        assert main(["profile", "--trace-out", files[1], "--",
                     "sweep", "--domain", "eps", "--size", "2",
                     "--levels", "2e-3,6.5e-4", "--backend", "bnb",
                     "--jobs", "2", "--telemetry", files[0],
                     "--log", files[2]]) == 0
        records = [r for name in files for r in read_log(tmp_path / name)]
        events = [r for r in records if "level" not in r]

        def of(*kinds):
            return [r for r in events if r["event"] in kinds]

        truth = {
            "batches": len({r["batch"] for r in of("batch_start",
                                                   "batch_end")}),
            "jobs": len({(r["batch"], r["job"]) for r in of(
                "job_start", "job_end", "job_retry", "job_timeout")}),
            "spans": len(of("span")),
            "metric_deltas": sum(
                isinstance(m, dict) for r in of("metrics_snapshot")
                for m in r["metrics"].values()),
            "bnb_events": len(of("bnb_event")),
            "logs": len(records) - len(events),
        }
        assert truth["batches"] == 1 and truth["jobs"] == 2
        assert min(truth.values()) > 0
        wh = TelemetryWarehouse(tmp_path / "wh.db")
        for name in files:
            wh.ingest_file(tmp_path / name)
        assert wh.counts() == truth

        starts = {(r["batch"], r["job"]): r for r in of("job_start")}
        for row in wh.query("SELECT * FROM jobs"):
            start = starts[(row["batch"], row["job"])]
            (end,) = [r for r in of("job_end") if r["job"] == row["job"]]
            assert row == {
                "batch": end["batch"], "job": end["job"],
                "kind": start["kind"], "started_at": start["ts"],
                "finished_at": end["ts"], "ok": int(end["ok"]),
                "attempts": end["attempts"], "wall_time": end["wall_time"],
                "cache_hits": end["cache_hits"],
                "cache_misses": end["cache_misses"], "error": end["error"],
                "retries": 0, "timeouts": 0,
            }
        ((start,), (end,)) = of("batch_start"), of("batch_end")
        assert wh.batches() == [{
            "batch": end["batch"], "name": start["name"],
            "started_at": start["ts"], "finished_at": end["ts"],
            "jobs": start["jobs"], "workers": start["workers"],
            "ok": end["ok"], "failed": end["failed"],
            "wall_time": end["wall_time"], "cache_hits": end["cache_hits"],
            "cache_misses": end["cache_misses"],
            "stopped": int(end["stopped"]),
        }]
        (types,) = wh.query(
            "SELECT typeof(ok) AS ok, typeof(wall_time) AS wall_time,"
            " typeof(job) AS job FROM jobs LIMIT 1")
        assert types == {"ok": "integer", "wall_time": "real", "job": "text"}
        # The trace's span records carry no batch id, so they age out by
        # their own timestamps along with the finished batch.
        wh.vacuum(max_age=0)
        assert wh.counts()["spans"] == 0
        wh.close()
