"""Tests for the declarative alert-rule engine (`repro.obs.alerts`)."""

import json
import urllib.request

import pytest

from repro import obs
from repro.obs.alerts import (
    AlertEngine,
    AlertRule,
    _parse_toml_minimal,
    load_alert_rules,
    parse_alert_rules,
)

RULES_TOML = """\
# fleet alert rules
[[rule]]
name = "too-many-failures"
type = "threshold"
severity = "critical"
description = "any failed job is a page"
metric = "engine.jobs.failed"
op = ">"
value = 0

[[rule]]
name = "slow-solves"
type = "threshold"
metric = "engine.job.seconds.p95"
op = ">"
value = 30.0

[[rule]]
name = "stuck-lease"
type = "threshold"
source = "health"
key = "queue.oldest_lease_age"
op = ">"
value = 60
"""


@pytest.fixture(autouse=True)
def clean_obs():
    obs.reset_metrics()
    obs.configure_obslog()
    yield
    obs.reset_metrics()
    obs.configure_obslog()


class TestRuleParsing:
    def test_parse_toml_rules(self):
        rules = parse_alert_rules(RULES_TOML)
        assert [r.name for r in rules] == [
            "too-many-failures", "slow-solves", "stuck-lease"]
        assert rules[0].severity == "critical"
        assert rules[0].params["metric"] == "engine.jobs.failed"
        assert rules[2].type == "threshold"
        assert rules[2].params["value"] == 60

    def test_minimal_fallback_matches_tomllib(self):
        # the 3.10 fallback must agree with tomllib on alert files
        doc = _parse_toml_minimal(RULES_TOML)
        try:
            import tomllib
        except ImportError:
            pass
        else:
            assert doc == tomllib.loads(RULES_TOML)
        assert len(doc["rule"]) == 3
        assert doc["rule"][1]["value"] == 30.0
        assert doc["rule"][2]["value"] == 60

    def test_unknown_rule_type_rejected(self):
        with pytest.raises(ValueError):
            AlertRule(name="x", type="wishful_thinking")

    def test_unknown_severity_rejected(self):
        with pytest.raises(ValueError):
            AlertRule(name="x", type="threshold", severity="apocalyptic")

    def test_load_missing_file_is_empty(self, tmp_path):
        assert load_alert_rules(tmp_path / "nope.toml") == []

    def test_load_roundtrip(self, tmp_path):
        path = tmp_path / "alerts.toml"
        path.write_text(RULES_TOML, encoding="utf-8")
        assert len(load_alert_rules(path)) == 3


def threshold_rule(metric="t.metric", op=">", value=5.0, **kw):
    params = {"metric": metric, "op": op, "value": value}
    params.update(kw.pop("params", {}))
    return AlertRule(name=kw.pop("name", "t"), type="threshold",
                     params=params, **kw)


class TestThreshold:
    def test_fires_on_breach_and_resolves(self):
        engine = AlertEngine([threshold_rule()], health=dict)
        obs.gauge("t.metric").set(3.0)
        assert engine.evaluate(now=1.0) == []
        obs.gauge("t.metric").set(7.0)
        (alert,) = engine.evaluate(now=2.0)
        assert alert["rule"] == "t"
        assert alert["since"] == 2.0
        assert "breach" in alert["message"]
        obs.gauge("t.metric").set(1.0)
        assert engine.evaluate(now=3.0) == []

    def test_exactly_one_firing_edge(self):
        engine = AlertEngine([threshold_rule()], health=dict)
        obs.gauge("t.metric").set(9.0)
        for now in (1.0, 2.0, 3.0):
            engine.evaluate(now=now)
        snap = obs.snapshot()
        assert snap["obs.alerts.fired"]["value"] == 1
        assert "obs.alerts.resolved" not in snap
        # the since timestamp pins the original edge
        (alert,) = engine.firing()
        assert alert["since"] == 1.0

    def test_histogram_quantile_statistic(self):
        rule = threshold_rule(metric="t.seconds.p95", value=1.0)
        engine = AlertEngine([rule], health=dict)
        h = obs.histogram("t.seconds")
        for _ in range(20):
            h.observe(0.01)
        assert engine.evaluate(now=1.0) == []
        for _ in range(20):
            h.observe(9.0)
        (alert,) = engine.evaluate(now=2.0)
        assert alert["value"] > 1.0

    def test_health_source_threshold(self):
        health = {"queue": {"pending": 12}}
        rule = AlertRule(name="deep-queue", type="threshold", params={
            "source": "health", "key": "queue.pending",
            "op": ">=", "value": 10})
        engine = AlertEngine([rule], health=lambda: health)
        (alert,) = engine.evaluate(now=1.0)
        assert alert["rule"] == "deep-queue"
        health["queue"]["pending"] = 0
        assert engine.evaluate(now=2.0) == []

    def test_missing_metric_never_fires(self):
        engine = AlertEngine([threshold_rule(metric="no.such")],
                             health=dict)
        assert engine.evaluate(now=1.0) == []

    def test_bad_rule_is_contained(self):
        # an unknown op raises inside _evaluate_rule; the engine logs
        # and moves on instead of taking the evaluation loop down
        bad = threshold_rule(name="bad", op="!?")
        good = threshold_rule(name="good")
        engine = AlertEngine([bad, good], health=dict)
        obs.gauge("t.metric").set(9.0)
        firing = engine.evaluate(now=1.0)
        assert [a["rule"] for a in firing] == ["good"]


class TestRateOfChange:
    def test_fires_when_slope_exceeds_threshold(self):
        rule = AlertRule(name="roc", type="rate_of_change", params={
            "metric": "r.metric", "threshold": 1.0, "window": 60})
        engine = AlertEngine([rule], health=dict)
        g = obs.gauge("r.metric")
        g.set(0.0)
        assert engine.evaluate(now=0.0) == []
        g.set(50.0)  # +50 in 10s -> 5.0/s
        (alert,) = engine.evaluate(now=10.0)
        assert alert["value"] == pytest.approx(5.0)
        g.set(50.0)  # flat again -> resolves once window slides
        assert engine.evaluate(now=100.0) == []


class TestSloBurn:
    def test_burn_rate(self):
        rule = AlertRule(name="slo", type="slo_burn", params={
            "bad": "s.bad", "total": "s.total",
            "objective": 0.99, "burn": 2.0, "window": 300})
        engine = AlertEngine([rule], health=dict)
        bad, total = obs.gauge("s.bad"), obs.gauge("s.total")
        bad.set(0)
        total.set(0)
        assert engine.evaluate(now=0.0) == []
        # 10 bad of 100 -> 10% errors against a 1% budget: 10x burn
        bad.set(10)
        total.set(100)
        (alert,) = engine.evaluate(now=60.0)
        assert alert["value"] == pytest.approx(10.0)
        # same window, no *new* errors -> burn decays under the limit
        bad.set(10)
        total.set(10_000)
        assert engine.evaluate(now=120.0) == []


class TestStuckLease:
    def test_stuck_lease_from_health(self):
        # A lease older than its ttl (a worker died holding it) is a
        # threshold rule on the queue health source's oldest lease age.
        health = {"queue": {"oldest_lease_age": 5.0}}
        rule = AlertRule(name="lease", type="threshold", params={
            "source": "health", "key": "queue.oldest_lease_age",
            "op": ">", "value": 60})
        engine = AlertEngine([rule], health=lambda: health)
        assert engine.evaluate(now=1.0) == []
        health["queue"]["oldest_lease_age"] = 300.0
        (alert,) = engine.evaluate(now=2.0)
        assert "queue.oldest_lease_age = 300" in alert["message"]
        assert alert["value"] == 300.0
        snap = obs.snapshot()
        assert snap["obs.alerts.fired"]["value"] == 1


class TestHeartbeatSilence:
    class _Runs:
        def __init__(self, runs):
            self._runs = runs

        def active(self):
            return self._runs

    def test_silent_run_fires(self):
        rule = AlertRule(name="hb", type="heartbeat_silence",
                         params={"window": 120})
        runs = self._Runs([
            {"run_id": "r-live", "updated_at": 990.0},
            {"run_id": "r-dead", "updated_at": 100.0},
        ])
        engine = AlertEngine([rule], runs=runs, health=dict)
        (alert,) = engine.evaluate(now=1000.0)
        assert "r-dead" in alert["message"]

    def test_fresh_runs_quiet(self):
        rule = AlertRule(name="hb", type="heartbeat_silence",
                         params={"window": 120})
        engine = AlertEngine(
            [rule], runs=self._Runs([{"run_id": "r", "updated_at": 995.0}]),
            health=dict)
        assert engine.evaluate(now=1000.0) == []


class TestViews:
    def test_snapshot_document(self):
        engine = AlertEngine([threshold_rule()], health=dict)
        obs.gauge("t.metric").set(9.0)
        engine.evaluate(now=5.0)
        doc = engine.snapshot()
        assert doc["evaluated_at"] == 5.0
        assert doc["rules"][0]["name"] == "t"
        assert doc["firing"][0]["rule"] == "t"

    def test_health_degrades_while_firing(self):
        engine = AlertEngine([threshold_rule()], health=dict)
        assert engine.health()["degraded"] is False
        obs.gauge("t.metric").set(9.0)
        engine.evaluate(now=1.0)
        doc = engine.health()
        assert doc["degraded"] is True
        assert doc["alerts"] == ["t"]


class TestServerIntegration:
    def test_api_alerts_and_healthz(self):
        from repro.obs.server import ObsServer

        engine = AlertEngine([threshold_rule(name="synthetic")],
                             health=dict)
        server = ObsServer(host="127.0.0.1", port=0, alerts=engine,
                           alert_interval=3600)
        server.start()
        try:
            base = f"http://127.0.0.1:{server.port}"

            def get(path):
                with urllib.request.urlopen(base + path, timeout=5) as resp:
                    return json.loads(resp.read().decode("utf-8"))

            doc = get("/api/alerts")
            assert doc["firing"] == []
            assert get("/healthz")["status"] == "ok"

            obs.gauge("t.metric").set(9.0)
            doc = get("/api/alerts")
            assert [f["rule"] for f in doc["firing"]] == ["synthetic"]
            health = get("/healthz")
            assert health["status"] == "degraded"
            assert health["alerts"]["firing"] == 1
        finally:
            server.stop()
