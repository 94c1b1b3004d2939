"""Telemetry spools and the coordinator-side collector."""

import json

import pytest

from repro import obs
from repro.engine.telemetry import TelemetryWriter, read_events


@pytest.fixture(autouse=True)
def _clean_metrics():
    obs.reset_metrics()
    yield
    obs.reset_metrics()


def spool_lines(path):
    return [json.loads(line) for line in
            path.read_text(encoding="utf-8").splitlines()]


class TestTelemetrySpool:
    def test_emit_writes_through(self, tmp_path):
        spool = obs.TelemetrySpool(tmp_path / "spools" / "worker-1.jsonl")
        assert spool.path.exists()  # opened while the directory exists
        spool.emit("worker_log", record={"msg": "hi"})
        (line,) = spool_lines(spool.path)
        assert line["event"] == "worker_log"
        assert line["record"] == {"msg": "hi"}
        assert "batch" not in line  # the collector stamps the journal's

    def test_late_write_never_recreates_a_removed_directory(self, tmp_path):
        spool_dir = tmp_path / "spools"
        spool = obs.TelemetrySpool(spool_dir / "worker-1.jsonl")
        spool_dir.joinpath("worker-1.jsonl").unlink()
        spool_dir.rmdir()
        spool.emit("worker_log", record={})  # must not raise
        spool.close()
        assert not spool_dir.exists()

    def test_ship_metrics_is_a_delta_since_construction(self, tmp_path):
        obs.counter("unit.spool.pre").inc(5)  # pre-existing: never shipped
        spool = obs.TelemetrySpool(tmp_path / "worker-1.jsonl")
        assert spool.ship_metrics() is False  # nothing moved yet
        with obs.observed():
            obs.counter("unit.spool.calls").inc(3)
        assert spool.ship_metrics() is True
        (line,) = spool_lines(spool.path)
        assert line["event"] == "metrics_snapshot"
        assert line["metrics"]["unit.spool.calls"]["value"] == 3
        assert "unit.spool.pre" not in line["metrics"]

    def test_emit_span_serializes_the_record(self, tmp_path):
        with obs.tracing() as tracer:
            with tracer.span("engine.job"):
                pass
        spool = obs.TelemetrySpool(tmp_path / "worker-1.jsonl")
        spool.emit("span", **obs.span_record(tracer.spans[0]))
        (line,) = spool_lines(spool.path)
        assert line["event"] == "span"
        assert line["name"] == "engine.job"
        assert "uid" in line and "ts" in line and "dur" in line

    def test_unwritable_spool_degrades_to_noop(self, tmp_path):
        target = tmp_path / "blocked"
        target.write_text("a file, not a directory")
        spool = obs.TelemetrySpool(target / "worker-1.jsonl")  # must not raise
        assert not spool.enabled
        spool.emit("worker_log", record={})
        spool.close()


class TestSpoolCollector:
    def test_folds_metrics_spans_and_reemits(self, tmp_path):
        spool_dir = tmp_path / "spools"
        spool = obs.TelemetrySpool(spool_dir / "worker-321.jsonl")
        spool.emit("metrics_snapshot", worker_pid=321, metrics={
            "unit.collect.jobs": {"kind": "counter", "value": 2},
        })
        spool.emit("span", name="engine.job", uid="321.1",
                   parent="1.9", trace="t" * 16, pid=321, tid=1,
                   ts=1.0, dur=0.5, attrs={})

        telemetry = tmp_path / "telemetry.jsonl"
        with TelemetryWriter(str(telemetry), batch="b") as writer:
            with obs.tracing() as tracer:
                collector = obs.SpoolCollector(spool_dir, writer=writer)
                assert collector.poll() == 2
                assert collector.poll() == 0  # offsets advanced

        assert obs.counter("unit.collect.jobs").value == 2
        assert collector.worker_snapshots()[321][
            "unit.collect.jobs"]["value"] == 2
        (record,) = collector.span_records
        assert record["uid"] == "321.1"
        assert tracer.records == [record]
        events = {e["event"] for e in read_events(telemetry)}
        assert {"metrics_snapshot", "span"} <= events

    def test_partial_lines_wait_for_completion(self, tmp_path):
        spool_dir = tmp_path / "spools"
        spool_dir.mkdir()
        path = spool_dir / "worker-1.jsonl"
        collector = obs.SpoolCollector(spool_dir)
        whole = json.dumps({"event": "worker_log", "record": {}})
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(whole + "\n")
            fh.write(whole[:10])  # mid-flush tail
            fh.flush()
        assert collector.poll() == 1
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(whole[10:] + "\n")
        assert collector.poll() == 1  # the completed line, exactly once

    def test_backlog_counts_unfolded_bytes(self, tmp_path):
        spool_dir = tmp_path / "spools"
        spool = obs.TelemetrySpool(spool_dir / "worker-1.jsonl")
        spool.emit("worker_log", record={"msg": "x"})
        collector = obs.SpoolCollector(spool_dir)
        # A fresh collector has folded nothing: total spooled bytes.
        assert collector.backlog() == spool.path.stat().st_size > 0
        collector.poll()
        assert collector.backlog() == 0

    def test_missing_dir_is_empty_not_an_error(self, tmp_path):
        collector = obs.SpoolCollector(tmp_path / "nope")
        assert collector.poll() == 0
        assert collector.backlog() == 0
