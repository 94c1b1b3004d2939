"""Tracer core: nesting, attributes, no-op mode, context restoration."""

import threading

import pytest

from repro import obs


class TestDisabled:
    def test_span_is_shared_noop(self):
        assert not obs.enabled()
        s = obs.span("anything", a=1)
        assert s is obs.NOOP_SPAN
        with s as inner:
            inner.set_attr("k", "v")  # swallowed
        assert obs.current_span() is None

    def test_set_attr_is_noop(self):
        obs.set_attr("k", "v")  # must not raise

    def test_noop_span_is_reentrant(self):
        with obs.span("a"):
            with obs.span("b"):
                pass  # same singleton twice — no state to corrupt


class TestNesting:
    def test_parent_child_links(self):
        with obs.tracing() as tracer:
            with obs.span("root") as root:
                with obs.span("child") as child:
                    with obs.span("grandchild") as grand:
                        assert obs.current_span() is grand
                    assert obs.current_span() is child
            assert obs.current_span() is None
        assert child.parent_id == root.span_id
        assert grand.parent_id == child.span_id
        assert root.parent_id is None
        assert len(tracer.spans) == 3

    def test_durations_nest(self):
        with obs.tracing():
            with obs.span("outer") as outer:
                with obs.span("inner") as inner:
                    pass
        assert outer.finished and inner.finished
        assert outer.duration >= inner.duration >= 0.0

    def test_attrs_via_kwargs_and_set_attr(self):
        with obs.tracing() as tracer:
            with obs.span("s", index=3) as s:
                s.set_attr("cost", 12.5)
        (done,) = tracer.spans
        assert done.attrs == {"index": 3, "cost": 12.5}

    def test_name_attr_does_not_collide(self):
        with obs.tracing() as tracer:
            with obs.span("s", name="the-batch"):
                pass
        assert tracer.spans[0].name == "s"
        assert tracer.spans[0].attrs["name"] == "the-batch"

    def test_exception_marks_span_and_propagates(self):
        with obs.tracing() as tracer:
            with pytest.raises(RuntimeError):
                with obs.span("bad"):
                    raise RuntimeError("boom")
        (s,) = tracer.spans
        assert s.finished
        assert s.attrs["error"] == "RuntimeError"

    def test_sibling_threads_have_independent_stacks(self):
        seen = {}

        def work(label):
            with obs.span(f"thread.{label}"):
                cur = obs.current_span()
                seen[label] = cur.name if cur is not None else None

        with obs.tracing() as tracer:
            with obs.span("main"):
                threads = [
                    threading.Thread(target=work, args=(i,)) for i in range(2)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
        # Each thread saw its own span as innermost, not "main"'s stack.
        assert seen == {0: "thread.0", 1: "thread.1"}
        assert len(tracer.spans) == 3


class TestInstallation:
    def test_tracing_restores_previous(self):
        outer = obs.Tracer()
        prev = obs.set_tracer(outer)
        try:
            with obs.tracing() as inner:
                assert obs.get_tracer() is inner
            assert obs.get_tracer() is outer
        finally:
            obs.set_tracer(prev)

    def test_tracing_restores_on_exception(self):
        assert obs.get_tracer() is None
        with pytest.raises(ValueError):
            with obs.tracing():
                raise ValueError
        assert obs.get_tracer() is None
