"""Cross-process metrics aggregation: delta, merge, telemetry replay."""

import pytest

from repro import obs
from repro.obs.metrics import MetricsRegistry


@pytest.fixture(autouse=True)
def clean_registry():
    obs.reset_metrics()
    yield
    obs.reset_metrics()


def worker_like_registry():
    reg = MetricsRegistry()
    reg.counter("engine.jobs.completed").inc(3)
    reg.gauge("cache.hit_rate").set(0.75)
    h = reg.histogram("engine.job.seconds")
    for v in (0.01, 0.2, 3.0):
        h.observe(v)
    return reg


class TestSnapshotDelta:
    def test_counters_subtract_and_unchanged_dropped(self):
        reg = worker_like_registry()
        before = reg.snapshot()
        reg.counter("engine.jobs.completed").inc(2)
        reg.counter("other.calls").inc(5)
        delta = obs.snapshot_delta(before, reg.snapshot())
        assert delta["engine.jobs.completed"]["value"] == 2
        assert delta["other.calls"]["value"] == 5
        assert "cache.hit_rate" not in delta  # unchanged gauge dropped
        assert "engine.job.seconds" not in delta  # no new observations

    def test_gauge_keeps_last_write(self):
        reg = worker_like_registry()
        before = reg.snapshot()
        reg.gauge("cache.hit_rate").set(0.5)
        delta = obs.snapshot_delta(before, reg.snapshot())
        assert delta["cache.hit_rate"] == {"kind": "gauge", "value": 0.5}

    def test_histogram_count_sum_and_buckets_exact(self):
        reg = worker_like_registry()
        before = reg.snapshot()
        reg.histogram("engine.job.seconds").observe(0.2)
        reg.histogram("engine.job.seconds").observe(7.0)
        delta = obs.snapshot_delta(before, reg.snapshot())
        entry = delta["engine.job.seconds"]
        assert entry["count"] == 2
        assert entry["sum"] == pytest.approx(7.2)
        assert sum(entry["bucket_counts"]) == 2

    def test_empty_delta_for_identical_snapshots(self):
        snap = worker_like_registry().snapshot()
        assert obs.snapshot_delta(snap, snap) == {}


class TestMergeSnapshot:
    def test_counters_sum_gauges_last_write_histograms_fold(self):
        target = MetricsRegistry()
        target.counter("engine.jobs.completed").inc(10)
        target.histogram("engine.job.seconds").observe(1.0)
        merged = obs.merge_snapshot(
            worker_like_registry().snapshot(), target
        )
        assert merged == 3
        assert target.counter("engine.jobs.completed").value == 13
        assert target.gauge("cache.hit_rate").value == 0.75
        h = target.histogram("engine.job.seconds")
        assert h.count == 4
        assert h.total == pytest.approx(1.0 + 0.01 + 0.2 + 3.0)
        assert h.min == 0.01 and h.max == 3.0

    def test_bucket_counts_survive_the_merge(self):
        target = MetricsRegistry()
        obs.merge_snapshot(worker_like_registry().snapshot(), target)
        snap = target.snapshot()["engine.job.seconds"]
        assert sum(snap["bucket_counts"]) == 3

    def test_kind_conflict_skipped_not_fatal(self):
        target = MetricsRegistry()
        target.gauge("engine.jobs.completed").set(1.0)
        merged = obs.merge_snapshot(
            {"engine.jobs.completed": {"kind": "counter", "value": 4}},
            target,
        )
        assert merged == 0
        assert target.gauge("engine.jobs.completed").value == 1.0

    def test_merges_into_global_registry_by_default(self):
        obs.merge_snapshot({"global.calls": {"kind": "counter", "value": 2}})
        assert obs.counter("global.calls").value == 2


class TestTelemetryReplay:
    def events(self):
        return [
            {"event": "batch_start", "jobs": 2},
            {"event": "metrics_snapshot", "job": "a", "metrics": {
                "engine.jobs.completed": {"kind": "counter", "value": 1},
            }},
            {"event": "metrics_snapshot", "job": "b", "metrics": {
                "engine.jobs.completed": {"kind": "counter", "value": 1},
                "cache.hit_rate": {"kind": "gauge", "value": 0.5},
            }},
            {"event": "batch_end"},
        ]

    def test_merge_telemetry_reconstructs_totals(self):
        reg = obs.merge_telemetry(self.events())
        assert reg.counter("engine.jobs.completed").value == 2
        assert reg.gauge("cache.hit_rate").value == 0.5
        # Fresh registry by default: the global one stays untouched.
        assert "engine.jobs.completed" not in obs.snapshot()

    def test_merge_telemetry_from_file(self, tmp_path):
        from repro.engine.telemetry import TelemetryWriter

        path = tmp_path / "telemetry.jsonl"
        with TelemetryWriter(path, batch="unit") as writer:
            for event in self.events():
                writer.emit(event.pop("event"), **event)
        reg = obs.merge_telemetry(path)
        assert reg.counter("engine.jobs.completed").value == 2
