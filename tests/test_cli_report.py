"""Tests for the report formatting helpers and the archex CLI."""

import json

import pytest

from repro.cli import build_parser, main
from repro.report import format_scientific, format_table, section


class TestReport:
    def test_format_scientific(self):
        assert format_scientific(2e-10) == "2.00e-10"
        assert format_scientific(None) == "n/a"
        assert format_scientific(1.23456e-3, digits=4) == "1.2346e-03"

    def test_format_table_alignment(self):
        text = format_table(["a", "bbb"], [(1, 2), (333, 4)])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")
        # all rows padded to equal visual width per column
        assert "333" in lines[3]

    def test_format_table_empty_rows(self):
        text = format_table(["x"], [])
        assert "x" in text

    def test_section(self):
        text = section("Title")
        assert "Title" in text and "=" in text

    def test_search_tree_keeps_workers_solves_apart(self):
        from repro.report import render_search_tree

        # Forked workers number their solves from the same start.
        events = [
            {"solve": 1, "kind": "open", "node": 0, "worker_pid": pid}
            for pid in (101, 202)
        ]
        rows = render_search_tree(events).splitlines()[2:]
        assert [row.split()[0] for row in rows] == ["101/1", "202/1"]


class TestCliParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_synthesize_defaults(self):
        args = build_parser().parse_args(["synthesize"])
        assert args.domain == "eps"
        assert args.algorithm == "mr"
        assert args.target == 2e-10

    def test_scaling_sizes_parse(self):
        args = build_parser().parse_args(["sweep", "--sizes", "20,30,40"])
        assert args.sizes == [20, 30, 40]
        # Left to cmd_sweep and the job spec to fill in.
        assert args.levels is None and args.target is None

    def test_bad_domain_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["synthesize", "--domain", "spaceship"])


class TestCliExecution:
    def test_synthesize_comm_net(self, capsys):
        code = main(
            ["synthesize", "--domain", "comm-net", "--algorithm", "ar",
             "--target", "1e-6", "--backend", "scipy"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "ILP-AR" in out
        assert "GW1" in out

    def test_analyze_power_grid(self, capsys):
        code = main(
            ["analyze", "--domain", "power-grid", "--algorithm", "mr",
             "--target", "1e-4", "--backend", "scipy"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "r (exact)" in out
        assert "total cost" in out

    def test_infeasible_exit_code(self, capsys):
        code = main(
            ["synthesize", "--domain", "comm-net", "--algorithm", "mr",
             "--target", "1e-30", "--backend", "scipy"]
        )
        assert code == 1


class TestCliTradeoffAndSave:
    def test_tradeoff_comm_net(self, capsys):
        code = main(
            ["sweep", "--domain", "comm-net", "--levels", "1e-3,1e-6",
             "--backend", "scipy"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Pareto front" in out

    def test_save_arch(self, tmp_path, capsys):
        target = tmp_path / "design.json"
        code = main(
            ["synthesize", "--domain", "comm-net", "--algorithm", "ar",
             "--target", "1e-6", "--backend", "scipy",
             "--save-arch", str(target)]
        )
        assert code == 0
        assert target.exists()
        from repro.arch import Architecture, load_json

        arch = load_json(target)
        assert isinstance(arch, Architecture)


class TestCliScaling:
    def test_scaling_small(self, capsys):
        code = main(
            ["sweep", "--sizes", "10", "--target", "1e-3",
             "--backend", "scipy", "--algorithm", "ar"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "10 (2)" in out

    def test_sweep_defaults_come_from_the_spec(self, monkeypatch):
        from repro import cli

        class Built(Exception):
            pass

        batches = []

        def capture(batch, **kwargs):
            batches.append(batch)
            raise Built

        monkeypatch.setattr(cli, "run_batch", capture)
        for argv in (["sweep", "--sizes", "10"], ["sweep"]):
            with pytest.raises(Built):
                main(argv)
        sizes, levels = batches
        assert [j.payload["spec"].reliability_target
                for j in sizes.jobs] == [2e-10]
        assert [j.meta["r_star"] for j in levels.jobs] == [2e-3, 2e-6, 2e-10]
        assert (sizes.name, levels.name) == ("scaling-sweep",
                                             "requirement-sweep")

    def test_spec_problem_exits_with_the_problem_list(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "repro", "sweep", "--levels", "2e-3,-1"],
            capture_output=True, text=True,
        )
        assert proc.returncode != 0
        assert "$.params.levels[1]: -1.0 <= exclusiveMinimum 0" in proc.stderr
        assert "Traceback" not in proc.stderr
        with pytest.raises(SystemExit) as err:
            main(["sweep", "--levels", "2e-3", "--sizes", "10"])
        assert "give either levels or sizes" in str(err.value.code)


class TestCliProfile:
    ARGS = ["synthesize", "--domain", "comm-net", "--algorithm", "mr",
            "--target", "1e-3", "--backend", "scipy"]

    def test_profile_prints_the_span_tree_and_metrics(self, capsys):
        code = main(["profile", "--"] + self.ARGS)
        out = capsys.readouterr().out
        assert code == 0
        assert "profile" in out
        assert "ilp_mr" in out and "ilp_mr.solve" in out
        assert "% total" in out
        # Metrics table rides along (analysis call counters at minimum).
        assert "reliability.analysis.bdd.calls" in out

    def test_trace_out_writes_chrome_trace(self, tmp_path, capsys):
        import json

        trace = tmp_path / "trace.json"
        code = main(["profile", "--trace-out", str(trace), "--"] + self.ARGS)
        assert code == 0
        doc = json.loads(trace.read_text())
        names = [e["name"] for e in doc["traceEvents"]]
        assert "ilp_mr" in names and "ilp_mr.iteration" in names
        assert doc["otherData"]["metrics"]

    def test_profile_subcommand_wraps_inner_command(self, tmp_path, capsys):
        import json

        trace = tmp_path / "trace.json"
        code = main(["profile", "--trace-out", str(trace), "--top", "5",
                     "--"] + self.ARGS)
        out = capsys.readouterr().out
        assert code == 0
        assert "profile" in out and "ilp_mr" in out
        assert json.loads(trace.read_text())["traceEvents"]

    def test_profile_jsonl_trace_out(self, tmp_path, capsys):
        from repro.engine import read_events

        trace = tmp_path / "spans.jsonl"
        code = main(["profile", "--trace-out", str(trace)] + self.ARGS)
        assert code == 0
        events = read_events(trace)
        assert {e["event"] for e in events} == {"span"}
        assert "ilp_mr" in {e["name"] for e in events}
        assert all(e["uid"] and e["dur"] >= 0 for e in events)
        # No batch_start names a batch for them: retention goes by ts.
        assert all("batch" not in e for e in events)

    def test_pool_sweep_jsonl_trace_out_keeps_worker_spans(self, tmp_path,
                                                           capsys):
        # The .jsonl trace holds the same span records as the .json one:
        # the workers' engine.job spans come home through their spools.
        # The sweep runs through main(), so its own --log and --warehouse
        # take effect under profile too.
        import os

        from repro.engine import read_events
        from repro.obs.warehouse import TelemetryWarehouse

        trace = tmp_path / "pool-spans.jsonl"
        log, warehouse = tmp_path / "log.jsonl", tmp_path / "wh.db"
        code = main(["profile", "--trace-out", str(trace), "--",
                     "sweep", "--domain", "eps", "--levels", "2e-3,2e-6",
                     "--backend", "scipy", "--jobs", "2",
                     "--telemetry", str(tmp_path / "tel.jsonl"),
                     "--log", str(log), "--warehouse", str(warehouse)])
        assert code == 0
        jobs = [e for e in read_events(trace)
                if e["event"] == "span" and e["name"] == "engine.job"]
        assert len(jobs) == 2
        assert all(e["pid"] != os.getpid() for e in jobs)
        assert log.stat().st_size > 0
        with TelemetryWarehouse(warehouse) as wh:
            (batch,) = wh.batches()
        assert batch["name"] == "requirement-sweep" and batch["ok"] == 2

    def test_sample_profile_writes_collapsed_stacks(self, tmp_path, capsys):
        stacks = tmp_path / "mr.collapsed"
        code = main(["profile", "--sample-profile", str(stacks), "--"]
                    + self.ARGS)
        out = capsys.readouterr().out
        assert code == 0
        lines = stacks.read_text().splitlines()
        assert lines and all(line.rsplit(" ", 1)[1].isdigit()
                             for line in lines)
        assert "sampling profile written" in out and "@ 5.0ms" in out
        assert "ilp_mr.solve" in out  # the span tree, as without sampling

    def test_profile_requires_a_subcommand(self):
        with pytest.raises(SystemExit):
            main(["profile"])

    def test_profile_cannot_nest(self):
        with pytest.raises(SystemExit):
            main(["profile", "profile", "synthesize"])

    def test_tracing_disabled_after_run(self, capsys):
        from repro import obs

        assert main(["profile", "--"] + self.ARGS) == 0
        capsys.readouterr()
        assert not obs.enabled()


class TestModuleEntryPoint:
    def test_python_dash_m_repro_help(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "repro", "--help"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "synthesize" in proc.stdout and "sweep" in proc.stdout
        assert "scaling" not in proc.stdout
        assert "tradeoff" not in proc.stdout


class TestRunsCli:
    """`repro runs ls|show|verify|gc` against a real store."""

    @pytest.fixture()
    def seeded_store(self, tmp_path):
        from repro.service import DONE, RunStore, pack_evidence

        store = RunStore(tmp_path / "runs")
        record = store.create(
            {"kind": "sweep", "params": {"size": 2, "levels": [2e-3]}}
        )
        store.transition(record, "RUNNING")
        store.transition(record, DONE)
        (record.path / "result.json").write_text('{"results": []}\n')
        pack_evidence(record.path, run_id=record.run_id)
        return store, record

    def test_runs_ls(self, seeded_store, capsys):
        store, record = seeded_store
        assert main(["runs", "ls", "--runs-dir", str(store.root)]) == 0
        out = capsys.readouterr().out
        assert record.run_id in out
        assert "DONE" in out

    def test_runs_ls_json(self, seeded_store, capsys):
        import json

        store, record = seeded_store
        assert main(
            ["runs", "ls", "--json", "--runs-dir", str(store.root)]
        ) == 0
        docs = json.loads(capsys.readouterr().out)
        assert [d["run_id"] for d in docs] == [record.run_id]
        assert docs[0]["state"] == "DONE"

    def test_runs_ls_empty(self, tmp_path, capsys):
        assert main(["runs", "ls", "--runs-dir", str(tmp_path / "x")]) == 0
        assert "(no runs)" in capsys.readouterr().out

    def test_runs_show(self, seeded_store, capsys):
        store, record = seeded_store
        assert main(
            ["runs", "show", record.run_id, "--runs-dir", str(store.root)]
        ) == 0
        doc = capsys.readouterr().out
        assert '"spec"' in doc and record.run_id in doc

    def test_runs_show_unknown_exits(self, seeded_store):
        store, _ = seeded_store
        with pytest.raises(SystemExit):
            main(["runs", "show", "ghost", "--runs-dir", str(store.root)])

    def test_runs_verify_clean_then_tampered(self, seeded_store, capsys):
        store, record = seeded_store
        assert main(
            ["runs", "verify", "--runs-dir", str(store.root)]
        ) == 0
        assert "OK" in capsys.readouterr().out
        (record.path / "result.json").write_text('{"results": [666]}\n')
        assert main(
            ["runs", "verify", "--runs-dir", str(store.root)]
        ) == 1
        assert "TAMPERED" in capsys.readouterr().out

    def test_runs_gc(self, seeded_store, capsys):
        store, record = seeded_store
        assert main(
            ["runs", "gc", "--keep", "0", "--runs-dir", str(store.root)]
        ) == 0
        assert record.run_id not in store

    def test_render_runs_table_shapes(self):
        from repro.report import render_runs_table

        text = render_runs_table([{
            "run_id": "sweep-x", "kind": "sweep", "state": "DONE",
            "progress": {"done": 2, "failed": 1, "skipped": 1, "total": 4},
            "attempt": 2, "started_at": 10.0, "finished_at": 12.5,
            "spec_digest": "abcdef0123456789",
        }])
        assert "sweep-x" in text
        assert "2/4 (1 failed) +1 skip" in text
        assert "2.5" in text
        assert "abcdef012345" in text


class TestServeCli:
    def test_serve_max_runtime_and_port_file(self, tmp_path, capsys):
        port_file = tmp_path / "port"
        code = main([
            "serve", "--port", "0",
            "--port-file", str(port_file),
            "--runs-dir", str(tmp_path / "runs"),
            "--max-runtime", "0.4",
        ])
        assert code == 0
        port = int(port_file.read_text().strip())
        assert port > 0
        out = capsys.readouterr().out
        assert f":{port}" in out  # the printed URL is connectable


class TestAlertsCli:
    def test_malformed_rules_exit_before_running(self, tmp_path, capsys):
        no_limit = tmp_path / "no-limit.toml"
        no_limit.write_text('[[rule]]\nname = "no-limit"\n'
                            'metric = "engine.jobs.completed"\nop = ">"\n')
        with pytest.raises(SystemExit) as err:
            main(["synthesize", "--domain", "comm-net", "--algorithm", "ar",
                  "--target", "1e-6", "--backend", "scipy",
                  "--serve", "0", "--alerts", str(no_limit)])
        assert err.value.code not in (0, None)
        assert "'no-limit'" in str(err.value.code)
        assert "'value'" in str(err.value.code)
        assert "ILP-AR" not in capsys.readouterr().out

        retired = tmp_path / "retired.toml"
        retired.write_text('[[rule]]\nname = "burn"\ntype = "slo_burn"\n')
        port_file = tmp_path / "port"
        with pytest.raises(SystemExit) as err:
            main(["serve", "--port", "0", "--port-file", str(port_file),
                  "--runs-dir", str(tmp_path / "runs"),
                  "--max-runtime", "0.4", "--alerts", str(retired)])
        assert err.value.code not in (0, None)
        assert "'burn'" in str(err.value.code)
        assert "slo_burn" in str(err.value.code)
        assert not port_file.exists()


class TestObsCli:
    def test_warehouse_flag_before_and_after_the_action(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        events = [
            {"ts": 1.0, "batch": "b-1", "event": "batch_start",
             "name": "unit", "jobs": 2, "workers": 0},
            {"ts": 1.5, "batch": "b-1", "event": "job_end", "job": "j0",
             "ok": True, "attempts": 1, "wall_time": 0.5},
            {"ts": 2.0, "batch": "b-1", "event": "job_end", "job": "j1",
             "ok": True, "attempts": 1, "wall_time": 0.5},
            {"ts": 2.5, "batch": "b-1", "event": "batch_end",
             "name": "unit", "wall_time": 1.5, "ok": 2, "failed": 0},
        ]
        (tmp_path / "tel.jsonl").write_text(
            "".join(json.dumps(e) + "\n" for e in events))
        assert main(["obs", "ingest", "--warehouse", "wh.db",
                     "tel.jsonl"]) == 0
        sql = "SELECT COUNT(*) AS jobs FROM jobs"
        rows = []
        for argv in (["obs", "--warehouse", "wh.db", "query", "--json", sql],
                     ["obs", "query", "--warehouse", "wh.db", "--json", sql]):
            capsys.readouterr()
            assert main(argv) == 0
            rows.append(json.loads(capsys.readouterr().out))
        assert rows == [[{"jobs": 2}], [{"jobs": 2}]]
        # Neither form falls back to the default warehouse path.
        assert not (tmp_path / ".archex").exists()

    @pytest.mark.parametrize("sql", [
        "SELEC 1",
        "SELECT * FROM nosuch",
        "UPDATE records SET event = 'x'",
        "WITH t AS (SELECT 1) DELETE FROM records",
    ])
    def test_bad_query_exits_1_with_one_line(self, tmp_path, sql, capsys):
        from repro.obs.warehouse import TelemetryWarehouse

        db = tmp_path / "wh.db"
        (tmp_path / "tel.jsonl").write_text(json.dumps(
            {"ts": 1.0, "batch": "b-1", "event": "job_end", "job": "j0",
             "ok": True, "attempts": 1, "wall_time": 0.5}) + "\n")
        assert main(["obs", "ingest", "--warehouse", str(db),
                     str(tmp_path / "tel.jsonl")]) == 0
        with TelemetryWarehouse(db) as wh:
            before = wh.counts()
        capsys.readouterr()
        assert main(["obs", "query", "--warehouse", str(db), sql]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "Traceback" not in captured.err
        with TelemetryWarehouse(db) as wh:
            assert wh.counts() == before
