"""Benchmark harness: schema validation, document generation, CLI."""

import json

import pytest

from repro.bench import (
    BENCH_SCHEMA,
    HISTORY_SCHEMA,
    PROFILES,
    append_history,
    compare_history,
    history_entry,
    read_history,
    run_bench,
    validate_bench_document,
)

#: Minimal profile so the harness itself can be tested in seconds.
_TINY = {
    "ilp_mr_bnb": [(2, 1e-3)],
    "ilp_mr_scipy": [],
    "lp_scaling": [(12, 16)],
    "warm_lp": [2],
}


@pytest.fixture
def tiny_profile(monkeypatch):
    monkeypatch.setitem(PROFILES, "tiny", _TINY)
    return "tiny"


class TestRunBench:
    def test_document_passes_own_schema(self, tiny_profile, tmp_path):
        out = tmp_path / "BENCH_ilp.json"
        doc = run_bench(
            profile=tiny_profile, out=str(out), backends=("bnb",),
            log=lambda *_: None,
        )
        assert validate_bench_document(doc) == []
        on_disk = json.loads(out.read_text())
        assert on_disk["schema"] == BENCH_SCHEMA
        assert validate_bench_document(on_disk) == []

    def test_warm_and_cold_measured_in_same_run(self, tiny_profile):
        doc = run_bench(
            profile=tiny_profile, out=None, backends=("bnb",),
            log=lambda *_: None,
        )
        mr = [r for r in doc["rows"] if r["kind"] == "ilp_mr"]
        assert mr, "profile must produce ILP-MR rows"
        for row in mr:
            assert row["costs_identical"], row
            assert row["warm"]["wall_seconds"] > 0
            assert row["cold"]["wall_seconds"] > 0
            assert row["warm"]["warm_hit_rate"] > 0
            assert row["cold"]["warm_lp_solves"] == 0
        assert doc["summary"]["all_costs_identical"]
        assert doc["summary"]["ilp_mr_min_speedup"] > 1.0

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError, match="unknown profile"):
            run_bench(profile="nope", out=None)


class TestValidation:
    def good_doc(self):
        return {
            "schema": BENCH_SCHEMA,
            "profile": "smoke",
            "environment": {"python": "3"},
            "rows": [
                {
                    "kind": "ilp_mr",
                    "instance": "eps-g2",
                    "backend": "bnb",
                    "reliability_target": 1e-3,
                    "speedup": 5.0,
                    "costs_identical": True,
                    "cold": {k: 1 for k in (
                        "wall_seconds", "status", "cost", "iterations",
                        "bnb_nodes", "lp_iterations", "warm_lp_solves",
                        "cold_lp_solves", "warm_hit_rate",
                    )},
                    "warm": {k: 1 for k in (
                        "wall_seconds", "status", "cost", "iterations",
                        "bnb_nodes", "lp_iterations", "warm_lp_solves",
                        "cold_lp_solves", "warm_hit_rate",
                    )},
                },
            ],
            "summary": {
                "ilp_mr_min_speedup": 5.0,
                "all_costs_identical": True,
            },
        }

    def test_good_document(self):
        assert validate_bench_document(self.good_doc()) == []

    def test_wrong_schema_flagged(self):
        doc = self.good_doc()
        doc["schema"] = "something/else"
        assert any("schema" in p for p in validate_bench_document(doc))

    def test_missing_arm_fields_flagged(self):
        doc = self.good_doc()
        del doc["rows"][0]["warm"]["warm_hit_rate"]
        problems = validate_bench_document(doc)
        assert any("warm_hit_rate" in p for p in problems)

    def test_unknown_row_kind_flagged(self):
        doc = self.good_doc()
        doc["rows"].append({"kind": "mystery"})
        assert any("unknown kind" in p for p in validate_bench_document(doc))

    def test_empty_rows_flagged(self):
        doc = self.good_doc()
        doc["rows"] = []
        assert any("non-empty" in p for p in validate_bench_document(doc))


class TestBenchCLI:
    def test_cli_writes_and_validates(self, tiny_profile, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "bench.json"
        rc = main([
            "bench", "--profile", tiny_profile, "--out", str(out),
            "--backends", "bnb",
        ])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert validate_bench_document(doc) == []
        printed = capsys.readouterr().out
        assert "ILP-MR warm vs cold" in printed
        assert "min ILP-MR speedup" in printed


def make_doc(warm=0.1, cold=1.0, profile="unit"):
    """A minimal bench document carrying one ILP-MR row."""
    return {
        "schema": BENCH_SCHEMA,
        "profile": profile,
        "generated_at": "2026-01-01T00:00:00Z",
        "environment": {"python": "3"},
        "rows": [{
            "kind": "ilp_mr",
            "instance": "eps-g2",
            "backend": "bnb",
            "speedup": cold / warm,
            "costs_identical": True,
            "warm": {"wall_seconds": warm},
            "cold": {"wall_seconds": cold},
        }],
        "summary": {},
    }


class TestHistoryLedger:
    def test_append_and_read_roundtrip(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        entry = append_history(make_doc(), path)
        assert entry["schema"] == HISTORY_SCHEMA
        assert entry["profile"] == "unit"
        assert entry["metrics"]["ilp_mr/eps-g2/bnb/warm_wall_seconds"] == 0.1
        append_history(make_doc(warm=0.2), path)
        assert len(read_history(path)) == 2

    def test_read_filters_by_profile_and_skips_junk(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        append_history(make_doc(profile="a"), path)
        append_history(make_doc(profile="b"), path)
        with path.open("a") as fh:
            fh.write('{"schema": "something/else"}\n')
            fh.write("not json at all\n")
        assert len(read_history(path)) == 2
        assert len(read_history(path, profile="a")) == 1

    def test_missing_history_file_reads_empty(self, tmp_path):
        assert read_history(tmp_path / "absent.jsonl") == []

    def test_history_entry_drops_nan_metrics(self):
        doc = make_doc()
        doc["rows"][0]["speedup"] = float("nan")
        entry = history_entry(doc)
        assert "ilp_mr/eps-g2/bnb/speedup" not in entry["metrics"]


class TestCompareHistory:
    def history_of(self, *docs):
        return [history_entry(d) for d in docs]

    def by_metric(self, verdicts):
        return {v["metric"]: v for v in verdicts}

    def test_insufficient_history_never_fails(self):
        verdicts = compare_history(make_doc(), self.history_of(make_doc()))
        assert {v["status"] for v in verdicts} == {"no-history"}

    def test_steady_state_is_ok(self):
        history = self.history_of(make_doc(), make_doc(), make_doc())
        verdicts = compare_history(make_doc(), history)
        assert {v["status"] for v in verdicts} == {"ok"}

    def test_slowdown_beyond_threshold_regresses(self):
        history = self.history_of(make_doc(), make_doc(), make_doc())
        verdicts = self.by_metric(compare_history(make_doc(warm=0.5), history))
        warm = verdicts["ilp_mr/eps-g2/bnb/warm_wall_seconds"]
        assert warm["status"] == "regression"
        assert warm["ratio"] == pytest.approx(5.0)
        # The warm arm got slower, so the speedup collapsed too.
        assert verdicts["ilp_mr/eps-g2/bnb/speedup"]["status"] == "regression"

    def test_speedup_direction_is_higher_better(self):
        history = self.history_of(make_doc(), make_doc())
        verdicts = self.by_metric(compare_history(make_doc(warm=0.01), history))
        assert verdicts["ilp_mr/eps-g2/bnb/speedup"]["status"] == "improved"
        assert verdicts["ilp_mr/eps-g2/bnb/warm_wall_seconds"]["status"] == (
            "improved"
        )

    def test_mad_noise_gate_absorbs_jittery_series(self):
        # Median 1.0 but the series routinely swings to 1.8: a 1.6 reading
        # is inside 4*MAD even though it clears the 50% relative gate.
        history = self.history_of(
            make_doc(cold=0.6), make_doc(cold=1.0), make_doc(cold=1.4),
            make_doc(cold=1.8), make_doc(cold=1.0),
        )
        verdicts = self.by_metric(compare_history(make_doc(cold=1.6), history))
        assert verdicts["ilp_mr/eps-g2/bnb/cold_wall_seconds"]["status"] == "ok"

    def test_min_seconds_floor_ignores_microbenchmark_jitter(self):
        history = self.history_of(
            make_doc(warm=0.002), make_doc(warm=0.002)
        )
        verdicts = self.by_metric(
            compare_history(make_doc(warm=0.004, cold=1.0), history)
        )
        # 2x slower but only +2ms: below the absolute floor, not a finding.
        assert verdicts["ilp_mr/eps-g2/bnb/warm_wall_seconds"]["status"] != (
            "regression"
        )


class TestBenchSentinelCLI:
    def run_sentinel(self, tmp_path, doc, history_docs, *extra):
        from repro.cli import main

        doc_path = tmp_path / "doc.json"
        doc_path.write_text(json.dumps(doc))
        hist_path = tmp_path / "hist.jsonl"
        if hist_path.exists():
            hist_path.unlink()  # each call states its own prior history
        for h in history_docs:
            append_history(h, hist_path)
        return main([
            "bench", "--from", str(doc_path), "--compare",
            "--history", str(hist_path), *extra,
        ]), hist_path

    def full_doc(self, tiny_profile, **kw):
        doc = run_bench(profile=tiny_profile, out=None, backends=("bnb",),
                        log=lambda *_: None)
        for row in doc["rows"]:
            if row["kind"] == "ilp_mr":
                for arm in ("warm", "cold"):
                    row[arm]["wall_seconds"] = kw.get(arm, row[arm]["wall_seconds"])
                if "warm" in kw or "cold" in kw:
                    row["speedup"] = (
                        row["cold"]["wall_seconds"] / row["warm"]["wall_seconds"]
                    )
        return doc

    def test_green_run_appends_and_passes(self, tiny_profile, tmp_path, capsys):
        doc = self.full_doc(tiny_profile, warm=0.1, cold=1.0)
        rc, hist = self.run_sentinel(tmp_path, doc, [doc, doc])
        assert rc == 0
        assert len(read_history(hist)) == 3
        out = capsys.readouterr().out
        assert "no regressions" in out

    def test_regression_fails_unless_warn_only(self, tiny_profile, tmp_path,
                                               capsys):
        base = self.full_doc(tiny_profile, warm=0.1, cold=1.0)
        slow = self.full_doc(tiny_profile, warm=0.1, cold=10.0)
        rc, _ = self.run_sentinel(tmp_path, slow, [base, base], "--no-append")
        assert rc == 1
        assert "REGRESSION" in capsys.readouterr().out
        rc, hist = self.run_sentinel(
            tmp_path, slow, [base, base], "--warn-only", "--no-append"
        )
        assert rc == 0
        assert len(read_history(hist)) == 2  # --no-append respected


class TestConcurrencyRows:
    def test_new_kinds_flatten_into_history_metrics(self):
        from repro.bench import _entry_metrics

        doc = {"rows": [
            {"kind": "queue_throughput", "instance": "noop-4x2",
             "jobs_per_second": 42.0},
            {"kind": "sharded_sweep", "instance": "bdd-8x2",
             "serial_seconds": 1.0, "queue_seconds": 0.5,
             "queue_jobs_per_second": 16.0},
        ]}
        metrics = _entry_metrics(doc)
        assert metrics["queue_throughput/noop-4x2/jobs_per_second"] == 42.0
        assert metrics["sharded_sweep/bdd-8x2/queue_seconds"] == 0.5

    def test_per_second_metrics_are_higher_is_better(self):
        from repro.bench import _metric_direction

        assert _metric_direction("a/jobs_per_second") == "higher"
        assert _metric_direction("a/speedup") == "higher"
        assert _metric_direction("a/queue_seconds") == "lower"

    def test_validation_accepts_new_row_kinds(self):
        from repro.bench import _sharded_sweep_row

        row = _sharded_sweep_row(4, 2)
        assert row["values_identical"] is True
        doc = {
            "schema": BENCH_SCHEMA, "profile": "tiny",
            "environment": {}, "rows": [row],
            "summary": {"ilp_mr_min_speedup": None,
                        "all_costs_identical": True},
        }
        assert validate_bench_document(doc) == []


class TestWarmLpRow:
    def test_each_arm_times_the_median_of_repeated_solves(self, monkeypatch):
        from repro import bench

        calls = {"first": 0, "cold": 0, "warm": 0}
        real = bench.solve_lp

        def counting(*args, warm_basis=None, want_basis=False, **kwargs):
            arm = ("warm" if warm_basis is not None
                   else "first" if want_basis else "cold")
            calls[arm] += 1
            return real(*args, warm_basis=warm_basis, want_basis=want_basis,
                        **kwargs)

        monkeypatch.setattr(bench, "solve_lp", counting)
        row = bench._warm_lp_row(2)
        assert bench._WARM_LP_REPEATS > 1
        assert calls == {"first": 1, "cold": bench._WARM_LP_REPEATS,
                         "warm": bench._WARM_LP_REPEATS}
        assert bench._ROW_REQUIRED["warm_lp"] <= set(row)
        assert row["warm_started"] and row["objectives_agree"]
