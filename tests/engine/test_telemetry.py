"""Tests for the JSONL run telemetry and its report rendering."""

import json

from repro.engine import (
    TelemetryWriter,
    read_events,
    requirement_sweep,
    run_batch,
    summarize_telemetry,
)
from repro.report import render_batch_summary
from tests.synthesis.test_ilp_mr import make_spec, make_template


def small_batch():
    spec = make_spec(make_template(2, p=1e-2), r_star=None)
    return requirement_sweep(spec, [0.5, 1e-3], algorithm="ar",
                             backend="scipy")


class TestTelemetryWriter:
    def test_disabled_writer_is_noop(self):
        writer = TelemetryWriter(None)
        assert not writer.enabled
        writer.emit("anything", x=1)  # must not raise
        writer.close()

    def test_events_are_jsonl(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with TelemetryWriter(path, batch="unit") as writer:
            writer.emit("batch_start", name="unit", jobs=2)
            writer.emit("job_end", job="a", ok=True)
        events = read_events(path)
        assert [e["event"] for e in events] == ["batch_start", "job_end"]
        assert all(e["batch"].startswith("unit-") for e in events)
        assert all("ts" in e for e in events)

    def test_truncated_trailing_line_skipped(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(json.dumps({"event": "x", "batch": "b"}) + "\n{\"trunc")
        assert [e["event"] for e in read_events(path)] == ["x"]

    def test_emit_after_close_degrades_to_noop(self, tmp_path):
        # Regression: emit() used to hit "I/O operation on closed file".
        path = tmp_path / "t.jsonl"
        writer = TelemetryWriter(path, batch="unit")
        writer.emit("batch_start", name="unit")
        writer.close()
        writer.emit("after_close", x=1)  # must not raise
        assert not writer.enabled
        assert [e["event"] for e in read_events(path)] == ["batch_start"]

    def test_emit_on_externally_closed_handle_degrades(self, tmp_path):
        # A handle closed underneath the writer (not via close()) must
        # also degrade to the path=None no-op contract, permanently.
        path = tmp_path / "t.jsonl"
        writer = TelemetryWriter(path, batch="unit")
        writer.emit("one")
        writer._fh.close()
        writer.emit("two")  # must not raise; drops the broken handle
        assert not writer.enabled
        writer.emit("three")  # still a no-op
        writer.close()
        assert [e["event"] for e in read_events(path)] == ["one"]


class TestBatchTelemetry:
    def test_run_batch_emits_lifecycle(self, tmp_path):
        path = tmp_path / "run.jsonl"
        outcome = run_batch(small_batch(), telemetry=str(path))
        assert outcome.telemetry_path == str(path)
        events = read_events(path)
        kinds = [e["event"] for e in events]
        assert kinds[0] == "batch_start"
        assert kinds[-1] == "batch_end"
        assert kinds.count("job_start") == 2
        assert kinds.count("job_end") == 2
        end = events[-1]
        assert end["wall_time"] > 0
        assert {"cache_hits", "cache_misses", "ok", "failed"} <= set(end)

    def test_appended_runs_summarize_separately(self, tmp_path):
        path = tmp_path / "run.jsonl"
        cache_dir = str(tmp_path / "cache")
        run_batch(small_batch(), telemetry=str(path), cache_dir=cache_dir)
        run_batch(small_batch(), telemetry=str(path), cache_dir=cache_dir)
        summaries = summarize_telemetry(path)
        assert len(summaries) == 2
        cold, warm = summaries
        assert cold["name"] == warm["name"] == "requirement-sweep"
        assert cold["jobs"] == warm["jobs"] == 2
        assert warm["cache_hits"] > 0
        assert all(s["wall_time"] is not None for s in summaries)

    def test_render_batch_summary(self, tmp_path):
        path = tmp_path / "run.jsonl"
        run_batch(small_batch(), telemetry=str(path))
        text = render_batch_summary(summarize_telemetry(path))
        assert "requirement-sweep" in text
        assert "wall (s)" in text
        assert "hit rate" in text

    def test_completed_batch_not_flagged_incomplete(self, tmp_path):
        path = tmp_path / "run.jsonl"
        run_batch(small_batch(), telemetry=str(path))
        (summary,) = summarize_telemetry(path)
        assert summary["incomplete"] is False


class TestCrashedBatch:
    def events(self, ts0=1000.0):
        return [
            {"ts": ts0, "batch": "b-1", "event": "batch_start",
             "name": "crashy", "jobs": 3},
            {"ts": ts0 + 1.0, "batch": "b-1", "event": "job_start", "job": "j1"},
            {"ts": ts0 + 4.5, "batch": "b-1", "event": "job_end", "job": "j1",
             "ok": True},
            # ... crash: no batch_end ever recorded.
        ]

    def test_wall_time_falls_back_to_event_span(self):
        (summary,) = summarize_telemetry(self.events())
        assert summary["incomplete"] is True
        assert summary["wall_time"] == 4.5  # last_ts - first_ts
        assert summary["jobs"] == 3 and summary["ok"] == 1

    def test_render_marks_incomplete_wall_time(self):
        text = render_batch_summary(summarize_telemetry(self.events()))
        assert "4.50*" in text

    def test_single_event_batch_gets_zero_wall_time(self):
        (summary,) = summarize_telemetry(self.events()[:1])
        assert summary["incomplete"] is True
        assert summary["wall_time"] == 0.0

    def test_span_events_do_not_pollute_summaries(self):
        events = self.events() + [
            {"ts": 2000.0, "batch": "trace-1", "event": "span",
             "uid": "7.1", "name": "ilp_mr", "dur": 900.0},
        ]
        summaries = summarize_telemetry(events)
        assert [s["batch"] for s in summaries] == ["b-1"]


class TestCompletedJobs:
    def test_job_end_map_with_latest_outcome_winning(self, tmp_path):
        from repro.engine import completed_jobs

        path = tmp_path / "t.jsonl"
        with TelemetryWriter(path, batch="b") as writer:
            writer.emit("job_start", job="a")
            writer.emit("job_end", job="a", ok=False)
            writer.emit("job_end", job="b", ok=True)
        # A retry in a later batch overrides the earlier failure.
        with TelemetryWriter(path, batch="b") as writer:
            writer.emit("job_end", job="a", ok=True)
        finished = completed_jobs(path)
        assert finished == {"a": True, "b": True}

    def test_accepts_parsed_events_and_ignores_other_records(self):
        from repro.engine import completed_jobs

        events = [
            {"event": "batch_start", "jobs": 2},
            {"event": "job_end", "job": "x", "ok": True},
            {"event": "job_end"},  # no job id: not attributable
            {"event": "span_start", "job": "x"},
        ]
        assert completed_jobs(events) == {"x": True}
