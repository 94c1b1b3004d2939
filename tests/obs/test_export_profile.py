"""Chrome trace export and the profile aggregation/rendering."""

import json
import time

from repro import obs
from repro.report import render_metrics, render_profile


def make_trace():
    """root -> (step x2 -> leaf), plus a second root."""
    with obs.tracing() as tracer:
        with obs.span("root", run=1):
            for i in range(2):
                with obs.span("step", index=i):
                    with obs.span("leaf"):
                        time.sleep(0.001)
        with obs.span("other_root"):
            pass
    return tracer


class TestChromeTrace:
    def test_round_trips_through_json(self, tmp_path):
        tracer = make_trace()
        path = tmp_path / "trace.json"
        obs.write_chrome_trace(path, tracer.spans, metrics={"m": 1})
        doc = json.loads(path.read_text())
        assert doc["displayTimeUnit"] == "ms"
        assert doc["otherData"]["metrics"] == {"m": 1}
        events = doc["traceEvents"]
        assert len(events) == 6
        assert all(e["ph"] == "X" for e in events)
        assert all(e["ts"] >= 0 and e["dur"] >= 0 for e in events)
        # Start-ordered relative timestamps: first event is the root at 0.
        assert events[0]["name"] == "root" and events[0]["ts"] == 0
        step = [e for e in events if e["name"] == "step"][0]
        assert step["args"]["index"] == 0

    def test_unfinished_spans_are_skipped(self):
        with obs.tracing() as tracer:
            open_span = tracer.span("never_closed")
            with obs.span("closed"):
                pass
        assert not open_span.finished
        doc = obs.stitch_chrome_trace([], spans=tracer.spans)
        assert [e["name"] for e in doc["traceEvents"]] == ["closed"]

    def test_empty_trace(self):
        assert obs.stitched_trace_events([]) == []
        assert obs.stitch_chrome_trace([])["traceEvents"] == []


class TestProfile:
    def test_aggregation(self):
        tracer = make_trace()
        roots = obs.build_profile(tracer.spans)
        assert [r.name for r in roots][0] == "root"  # hottest first
        root = roots[0]
        assert root.count == 1
        step = root.find("step")
        leaf = root.find("step/leaf")
        assert step.count == 2 and leaf.count == 2
        # Cumulative times telescope: root >= step >= leaf > 0.
        assert root.cum >= step.cum >= leaf.cum > 0
        # Self time excludes children.
        assert step.self_time <= step.cum - leaf.cum + 1e-9

    def test_flatten_is_depth_first(self):
        roots = obs.build_profile(make_trace().spans)
        names = [n.name for n in obs.flatten_profile(roots)]
        assert names == ["root", "step", "leaf", "other_root"]

    def test_orphaned_spans_become_roots(self):
        with obs.tracing() as tracer:
            parent = tracer.span("parent")
            with obs.span("child"):
                pass
            # parent never finishes
        del parent
        roots = obs.build_profile(tracer.spans)
        assert [r.name for r in roots] == ["child"]


class TestRendering:
    def test_render_profile_from_spans_and_roots(self):
        tracer = make_trace()
        from_spans = render_profile(tracer.spans)
        from_roots = render_profile(obs.build_profile(tracer.spans))
        assert from_spans == from_roots
        assert "root" in from_spans and "    leaf" in from_spans
        assert "% total" in from_spans

    def test_render_profile_limit(self):
        tracer = make_trace()
        text = render_profile(tracer.spans, limit=1)
        assert "root" in text and "leaf" not in text

    def test_render_metrics(self):
        obs.reset_metrics()
        try:
            obs.counter("c").inc(2)
            obs.gauge("g").set(0.5)
            obs.histogram("h").observe(1.0)
            text = render_metrics(obs.snapshot())
            assert "counter" in text and "gauge" in text and "histogram" in text
            assert "n=1" in text
        finally:
            obs.reset_metrics()
