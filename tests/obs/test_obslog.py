"""Structured JSON logging: sinks, levels, correlation fields."""

import io
import json

import pytest

from repro import obs
from repro.obs.obslog import read_log


@pytest.fixture(autouse=True)
def no_leftover_sink():
    obs.configure_obslog()
    yield
    obs.configure_obslog()


def records_of(stream: io.StringIO):
    return [json.loads(line) for line in stream.getvalue().splitlines()]


class TestSink:
    def test_disabled_by_default(self):
        assert not obs.obslog_enabled()
        obs.log("ignored.event", answer=42)  # must be a cheap no-op

    def test_stream_sink_emits_jsonl(self):
        stream = io.StringIO()
        obs.configure_obslog(stream=stream)
        obs.log("unit.event", answer=42)
        (rec,) = records_of(stream)
        assert rec["event"] == "unit.event"
        assert rec["level"] == "info"
        assert rec["answer"] == 42
        assert isinstance(rec["ts"], float)

    def test_path_sink_appends_and_roundtrips(self, tmp_path):
        path = tmp_path / "nested" / "run.log.jsonl"
        obs.configure_obslog(path=path)
        obs.log("first")
        obs.configure_obslog(path=path)  # reopen: append, not truncate
        obs.log("second")
        obs.configure_obslog()
        assert [r["event"] for r in read_log(path)] == ["first", "second"]

    def test_read_log_skips_truncated_tail(self, tmp_path):
        path = tmp_path / "run.log.jsonl"
        path.write_text('{"event": "good"}\n{"event": "trunc', encoding="utf-8")
        assert [r["event"] for r in read_log(path)] == ["good"]

    def test_level_filter(self):
        stream = io.StringIO()
        obs.configure_obslog(stream=stream, level="warning")
        obs.log("too.quiet")  # info < warning
        obs.log("loud.enough", level="error")
        (rec,) = records_of(stream)
        assert rec["event"] == "loud.enough"

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError, match="unknown log level"):
            obs.configure_obslog(stream=io.StringIO(), level="shout")

    def test_broken_sink_degrades_to_noop(self):
        stream = io.StringIO()
        sink = obs.configure_obslog(stream=stream)
        stream.close()
        obs.log("into.the.void")  # must not raise
        assert not sink.enabled


class TestCorrelation:
    def test_log_context_fields_attach_and_nest(self):
        stream = io.StringIO()
        obs.configure_obslog(stream=stream)
        with obs.log_context(run="r-1"):
            with obs.log_context(job="j-7"):
                obs.log("inner")
            obs.log("outer")
        obs.log("outside")
        inner, outer, outside = records_of(stream)
        assert inner["run"] == "r-1" and inner["job"] == "j-7"
        assert outer["run"] == "r-1" and "job" not in outer
        assert "run" not in outside

    def test_current_log_context(self):
        assert obs.current_log_context() == {}
        with obs.log_context(run="r-2"):
            assert obs.current_log_context() == {"run": "r-2"}

    def test_span_correlation_when_tracing(self):
        stream = io.StringIO()
        obs.configure_obslog(stream=stream)
        with obs.tracing():
            with obs.span("unit.work"):
                obs.log("traced.event")
        (rec,) = records_of(stream)
        assert rec["span_name"] == "unit.work"
        assert rec["span"]

    def test_explicit_fields_win_over_context(self):
        stream = io.StringIO()
        obs.configure_obslog(stream=stream)
        with obs.log_context(run="ctx"):
            obs.log("event", run="explicit")
        (rec,) = records_of(stream)
        assert rec["run"] == "explicit"


class TestAppend:
    def test_records_append_to_one_file(self, tmp_path):
        path = tmp_path / "obs.jsonl"
        obs.configure_obslog(path=path)
        for i in range(50):
            obs.log("append.test", seq=i, payload="x" * 40)
        obs.configure_obslog()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["obs.jsonl"]
        assert [r["seq"] for r in read_log(path)] == list(range(50))
