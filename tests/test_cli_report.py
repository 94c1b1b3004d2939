"""Tests for the report formatting helpers and the archex CLI."""

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
        args = build_parser().parse_args(["scaling", "--sizes", "20,30,40"])
        assert args.sizes == [20, 30, 40]

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
            ["tradeoff", "--domain", "comm-net", "--levels", "1e-3,1e-6",
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
            ["scaling", "--sizes", "10", "--target", "1e-3",
             "--backend", "scipy", "--algorithm", "ar"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "10 (2)" in out


class TestCliProfile:
    ARGS = ["synthesize", "--domain", "comm-net", "--algorithm", "mr",
            "--target", "1e-3", "--backend", "scipy"]

    def test_trace_flag_prints_profile(self, capsys):
        code = main(self.ARGS + ["--trace"])
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
        code = main(self.ARGS + ["--trace-out", str(trace)])
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

    def test_pool_sweep_jsonl_trace_out_keeps_worker_spans(self, tmp_path,
                                                           capsys):
        # The .jsonl trace holds the same span records as the .json one:
        # the workers' engine.job spans come home through their spools.
        import os

        from repro.engine import read_events

        trace = tmp_path / "pool-spans.jsonl"
        code = main(["profile", "--trace-out", str(trace), "--",
                     "sweep", "--domain", "eps", "--levels", "2e-3,2e-6",
                     "--backend", "scipy", "--jobs", "2"])
        assert code == 0
        jobs = [e for e in read_events(trace)
                if e["event"] == "span" and e["name"] == "engine.job"]
        assert len(jobs) == 2
        assert all(e["pid"] != os.getpid() for e in jobs)

    def test_profile_requires_a_subcommand(self):
        with pytest.raises(SystemExit):
            main(["profile"])

    def test_profile_cannot_nest(self):
        with pytest.raises(SystemExit):
            main(["profile", "profile", "synthesize"])

    def test_tracing_disabled_after_run(self, capsys):
        from repro import obs

        assert main(self.ARGS + ["--trace"]) == 0
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
        assert "synthesize" in proc.stdout
        assert "tradeoff" in proc.stdout


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
