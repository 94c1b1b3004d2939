"""Tests for the declarative alert-rule engine (`repro.obs.alerts`)."""

import json
import time
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
from repro.obs.server import RunRegistry

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

# The TUTORIAL's style: inline comments after headers and values.
COMMENTED_TOML = """\
[[rule]]                      # one table per rule
name = "slow-solves"
type = "threshold"            # metric/health value vs a limit
metric = "engine.job.seconds.p95"   # histogram statistic suffixes:
op = ">"                            # .p50/.p95/.p99/.mean/.count/...
value = 30.0
description = "p95 # of seconds"    # a '#' inside quotes is kept

[[rule]]
name = 'silent-run'
source = "health"
key = "runs.oldest_update_age"   # seconds since the last update
op = ">"
value = 180
"""


def get_json(url):
    with urllib.request.urlopen(url, timeout=5) as resp:
        return json.loads(resp.read().decode("utf-8"))


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
        docs = [_parse_toml_minimal(t) for t in (RULES_TOML, COMMENTED_TOML)]
        try:
            import tomllib
        except ImportError:
            pass
        else:
            assert docs == [tomllib.loads(RULES_TOML),
                            tomllib.loads(COMMENTED_TOML)]
        doc, commented = docs
        assert len(doc["rule"]) == 3
        assert doc["rule"][1]["value"] == 30.0
        assert doc["rule"][2]["value"] == 60
        slow, silent = commented["rule"]
        assert slow["type"] == "threshold" and slow["op"] == ">"
        assert slow["description"] == "p95 # of seconds"
        assert silent["key"] == "runs.oldest_update_age"
        assert silent["value"] == 180
        assert len(parse_alert_rules(COMMENTED_TOML)) == 2

    def test_unknown_rule_type_rejected(self):
        for rtype in ("wishful_thinking", "rate_of_change", "slo_burn",
                      "heartbeat_silence", "bench_sentinel"):
            with pytest.raises(ValueError, match=rtype):
                AlertRule(name="x", type=rtype)
        with pytest.raises(ValueError, match="runs.oldest_update_age"):
            parse_alert_rules(
                '[[rule]]\nname = "hb"\ntype = "heartbeat_silence"\n')

    def test_malformed_rules_rejected_at_load(self):
        good = {"metric": '"engine.jobs.completed"', "op": '">"',
                "value": "0"}
        cases = [
            ({"value": None}, "'value'"),
            ({"value": "true"}, "'value'"),
            ({"value": '"5"'}, "'value'"),
            ({"op": '"=>"'}, "'op'"),
            ({"metric": None, "metrc": '"engine.jobs.completed"'},
             "'metrc'"),
            ({"metric": None}, "'metric'"),
            ({"key": '"queue.queue_depth"'}, "'metric'"),
            ({"metric": None, "source": '"queue"', "key": '"x"'},
             "'source'"),
            ({"window": "60"}, "'window'"),
        ]
        for change, key in cases:
            params = dict(good, **change)
            body = "".join(f"{k} = {v}\n" for k, v in params.items()
                           if v is not None)
            with pytest.raises(ValueError) as err:
                parse_alert_rules(f'[[rule]]\nname = "bad"\n{body}')
            assert "'bad'" in str(err.value), (change, err.value)
            assert key in str(err.value), (change, err.value)
        # The same rule, well formed, loads with the default op.
        (rule,) = parse_alert_rules(
            '[[rule]]\nname = "ok"\nsource = "health"\n'
            'key = "queue.queue_depth"\nvalue = 10\n')
        assert rule.type == "threshold" and "op" not in rule.params

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
        # a rule corrupted after it was checked raises inside
        # _evaluate_rule; the engine logs and moves on instead of taking
        # the evaluation loop down
        bad = threshold_rule(name="bad")
        bad.params["op"] = "!?"
        good = threshold_rule(name="good")
        engine = AlertEngine([bad, good], health=dict)
        obs.gauge("t.metric").set(9.0)
        firing = engine.evaluate(now=1.0)
        assert [a["rule"] for a in firing] == ["good"]


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
    # An active run that stopped reporting progress is a threshold rule
    # on the run registry's health document.
    @staticmethod
    def engine(registry):
        rule = AlertRule(name="hb", type="threshold", params={
            "source": "health", "key": "runs.oldest_update_age",
            "op": ">", "value": 120})
        return AlertEngine([rule], health=lambda: {"runs": registry.health()})

    def test_silent_run_fires(self):
        registry = RunRegistry()
        now = time.time()
        registry.start("ilp_mr").updated_at = now - 10
        registry.start("ilp_mr").updated_at = now - 900
        (alert,) = self.engine(registry).evaluate()
        assert 900 <= alert["value"] < 960  # the worst age
        assert "runs.oldest_update_age = 9" in alert["message"]

    def test_fresh_runs_quiet(self):
        registry = RunRegistry()
        registry.start("ilp_mr").updated_at = time.time() - 5
        engine = self.engine(registry)
        assert engine.evaluate() == []
        registry.reset()
        assert registry.health() == {"active": 0}
        assert engine.evaluate() == []


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

    def test_silent_run_fires_over_live_http(self):
        from repro.obs.server import ObsServer

        registry = RunRegistry()
        rule = AlertRule(name="silent-run", type="threshold", params={
            "source": "health", "key": "runs.oldest_update_age",
            "op": ">", "value": 120})
        server = ObsServer(port=0, runs=registry, alerts=AlertEngine([rule]),
                           alert_interval=3600).start()
        try:
            # No active run: the age is absent and the rule stays quiet.
            assert get_json(server.url + "/healthz")["runs"] == {"active": 0}
            assert get_json(server.url + "/api/alerts")["firing"] == []

            run = registry.start("ilp_mr")
            run.updated_at -= 600
            runs = get_json(server.url + "/healthz")["runs"]
            assert runs["active"] == 1
            assert runs["oldest_update_age"] >= 600
            (alert,) = get_json(server.url + "/api/alerts")["firing"]
            assert alert["rule"] == "silent-run"
            assert alert["value"] >= 600
            assert get_json(server.url + "/healthz")["status"] == "degraded"

            run.finish()
            assert get_json(server.url + "/api/alerts")["firing"] == []
        finally:
            server.stop()
        assert "runs" not in obs.health_snapshot()
