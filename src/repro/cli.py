"""``archex`` command-line interface.

Mirrors the paper's ARCHEX prototype workflow from a terminal:

``archex synthesize --domain eps --algorithm mr --target 2e-10``
    Run ILP-MR or ILP-AR on a built-in domain template and print the
    resulting single-line diagram, cost, and reliability report.
``archex analyze --domain eps --target 2e-10``
    Synthesize, then report per-sink exact and approximate reliability.
``archex sweep --levels 2e-3,2e-6,2e-10``
    Sweep the requirement r* and print the cost/reliability table and its
    Pareto front (Fig. 3 generalized); ``--sizes 20,30`` runs a Table II
    style scaling sweep over EPS template sizes instead. The flags become
    the service's ``sweep`` job spec (:mod:`repro.service.specs`), so a
    CLI sweep and a POSTed one run the same batch, through the
    exploration engine: ``--jobs`` worker processes, a ``--cache-dir``
    reliability cache, ``--telemetry`` JSONL.
``archex verify --fuzz 50 --seed 0``
    Differential verification of the reliability engines: seed corpus +
    seeded fuzzing, metamorphic properties, Monte-Carlo cross-check, and
    a persistent-cache audit (see :mod:`repro.verify`). Exits nonzero on
    any confirmed disagreement.
``archex tree --telemetry sweep.jsonl``
    Render the B&B search tree (per-solve node/prune/incumbent roll-up)
    that a traced run streamed into its telemetry journal; ``--run ID``
    reads a stored service run instead.
``archex profile --trace-out trace.json -- synthesize --algorithm mr``
    The one way to trace a command: run any other command, with all of
    its own flags, under :mod:`repro.obs` tracing, print the profile tree
    (and metrics), and optionally write a Chrome trace JSON (``.json``,
    loadable in ``chrome://tracing`` / Perfetto) or a JSONL span stream
    (``.jsonl``, the telemetry file format). ``--sample-profile FILE``
    also runs it under the wall-clock sampling profiler.
"""

from __future__ import annotations

import argparse
import json
import os
import sqlite3
import sys
from contextlib import nullcontext
from typing import List, Optional

from . import obs
from .bench import (
    PROFILES,
    append_history,
    compare_history,
    read_history,
    run_bench,
    validate_bench_document,
)
from .domains import domain_spec
from .arch import save_json
from .engine import (
    EXECUTOR_MODES,
    run_batch,
    summarize_telemetry,
    tradeoff_points,
)
from .eps import render_single_line
from .reliability import approximate_failure, sink_failure_probabilities
from .report import (
    format_scientific,
    format_table,
    render_batch_summary,
    render_bench_comparison,
    render_metrics,
    render_profile,
    render_runs_table,
    render_verification_table,
    section,
)
from .synthesis import SYNTHESIS_ALGORITHMS, pareto_front, synthesize

__all__ = ["main", "build_parser"]


def _run_synthesis(args: argparse.Namespace):
    # domain_spec is shared with the service's job-spec builders, so a CLI
    # invocation and a POSTed job spec construct byte-identical problems.
    try:
        spec = domain_spec(args.domain, target=args.target, size=args.size)
    except ValueError as exc:
        raise SystemExit(str(exc))
    result = synthesize(spec, args.algorithm, backend=args.backend,
                        mip_rel_gap=args.gap)
    return spec, result


def cmd_synthesize(args: argparse.Namespace) -> int:
    _, result = _run_synthesis(args)
    print(result.summary())
    if result.architecture is not None:
        print()
        if args.domain == "eps":
            print(render_single_line(result.architecture))
        else:
            print(result.architecture.describe())
        if args.save_arch:
            save_json(result.architecture, args.save_arch)
            print(f"\nsaved architecture to {args.save_arch}")
    return 0 if result.feasible else 1


def cmd_analyze(args: argparse.Namespace) -> int:
    spec, result = _run_synthesis(args)
    if not result.feasible:
        print(f"synthesis {result.status}")
        return 1
    arch = result.architecture
    rows = []
    for sink in spec.sinks():
        exact = sink_failure_probabilities(arch, [sink])[sink]
        approx = approximate_failure(arch, sink)
        rows.append(
            (
                sink,
                format_scientific(exact),
                format_scientific(approx.r_tilde),
                format_scientific(approx.bound_ratio),
                dict(sorted(approx.redundancy.items())),
            )
        )
    print(format_table(["sink", "r (exact)", "r~ (eq.7)", "Thm2 bound", "h_ij"], rows))
    print(f"\ntotal cost: {result.cost:.6g}")
    return 0


def _telemetry_path(args: argparse.Namespace) -> Optional[str]:
    """Explicit ``--telemetry`` path, or a default inside ``--cache-dir``."""
    if args.telemetry:
        return args.telemetry
    if args.cache_dir:
        return os.path.join(args.cache_dir, "telemetry.jsonl")
    return None


def _run_engine(args: argparse.Namespace, batch):
    """``run_batch`` under the engine flags: (outcome, telemetry path)."""
    telemetry = _telemetry_path(args)
    outcome = run_batch(
        batch, jobs=args.jobs, cache_dir=args.cache_dir, telemetry=telemetry,
        executor=args.executor, queue_dir=args.queue_dir,
    )
    return outcome, telemetry


def _print_scaling_table(results) -> None:
    rows = []
    for res in results:
        result = res.unwrap()
        rows.append(
            (
                res.meta["label"],
                result.status,
                result.num_iterations or 1,
                f"{result.cost:.6g}",
                format_scientific(result.reliability),
                f"{result.analysis_time:.1f}",
                f"{result.solver_time:.1f}",
                f"{res.wall_time:.1f}",
            )
        )
    print(
        format_table(
            ["|V| (gens)", "status", "#iter", "cost", "r", "analysis (s)",
             "solver (s)", "wall (s)"],
            rows,
        )
    )


def _print_tradeoff_table(results) -> None:
    points = tradeoff_points(results)
    rows = [
        (
            format_scientific(p.r_star),
            "ok" if p.feasible else p.result.status,
            f"{p.cost:.6g}" if p.feasible else "-",
            format_scientific(p.reliability) if p.feasible else "-",
        )
        for p in points
    ]
    print(format_table(["r*", "status", "cost", "r (exact)"], rows))
    front = pareto_front(points)
    print("\nPareto front:")
    print(format_table(
        ["cost", "r (exact)"],
        [(f"{p.cost:.6g}", format_scientific(p.reliability)) for p in front],
    ))


def cmd_sweep(args: argparse.Namespace) -> int:
    """A requirement sweep (``--levels``) or a scaling sweep (``--sizes``).

    The flags become a ``sweep`` job spec, which the service's
    :func:`~repro.service.specs.normalize_job_spec` validates and
    completes and its :func:`~repro.service.specs.build_batch` turns into
    the batch, so this command and a POSTed sweep of the same parameters
    run the same jobs. A spec problem exits nonzero with the problem
    list. Prints the Table II table for ``--sizes``, else the tradeoff
    table and its Pareto front, then the batch summary (cache hits, wall
    time) and, when telemetry is on, the per-run roll-up table: the
    second run against a warm ``--cache-dir`` shows its speedup there.
    """
    from .service.specs import build_batch, normalize_job_spec

    target = args.target
    if args.sizes and target is None:
        target = 2e-10
    try:
        batch = build_batch(normalize_job_spec({"kind": "sweep", "params": {
            "domain": args.domain, "algorithm": args.algorithm,
            "backend": args.backend, "gap": args.gap, "size": args.size,
            "target": target, "levels": args.levels, "sizes": args.sizes,
        }}))
    except ValueError as exc:  # a SpecError lists every problem
        problems = getattr(exc, "errors", [str(exc)])
        raise SystemExit("sweep: invalid parameters:\n"
                         + "\n".join(f"  {p}" for p in problems))
    outcome, telemetry = _run_engine(args, batch)
    if args.sizes:
        _print_scaling_table(outcome.results)
    else:
        _print_tradeoff_table(outcome.results)
    print(f"\n{outcome.summary()}")
    if telemetry and os.path.exists(telemetry):
        print(f"telemetry: {telemetry}")
        print(render_batch_summary(summarize_telemetry(telemetry)))
    return 1 if outcome.num_failed else 0


def cmd_verify(args: argparse.Namespace) -> int:
    """Differential verification of the reliability engines.

    Runs the seed corpus (closed-form graphs + the EPS case-study sinks)
    and ``--fuzz`` seeded random instances through every applicable exact
    engine, the metamorphic property battery, and the Monte-Carlo
    cross-check; audits a persistent cache when ``--cache-dir`` holds one.
    Failing fuzz cases are shrunk to minimal counterexamples and written
    to ``--repro-dir``. Exits 1 on any *confirmed* (non-statistical)
    finding; Monte-Carlo interval misses alone only warn.
    """
    from .engine.cache import CACHE_FILENAME
    from .verify import (
        audit_cache,
        corpus_cases,
        fuzz_cases,
        save_repro,
        shrink_problem,
        verification_batch,
        verify_problem,
    )

    cases = corpus_cases(include_eps=not args.no_eps)
    if args.fuzz > 0:
        cases.extend(fuzz_cases(args.fuzz, seed=args.seed))
    by_name = {c.name: c for c in cases}
    print(f"verifying {len(cases)} cases "
          f"({len(cases) - args.fuzz} corpus, {args.fuzz} fuzz, seed {args.seed})")

    batch = verification_batch(
        cases, tol=args.tol, mc_samples=args.mc_samples, seed=args.seed
    )
    outcome, telemetry = _run_engine(args, batch)

    findings: List[dict] = []
    checks = 0
    for res in outcome.results:
        if not res.ok:
            findings.append({
                "case": res.meta.get("case", res.job_id),
                "check": "job-error",
                "detail": f"{res.error_type}: {res.error}",
            })
            continue
        checks += res.value.get("checks_run", 0)
        findings.extend(res.value.get("findings", []))

    # Shrink failing fuzz cases to minimal repros (exact findings only —
    # shrinking against Monte-Carlo noise would chase the coin, not a bug).
    confirmed = [f for f in findings if not f.get("statistical")]
    failing_fuzz = sorted(
        {f["case"] for f in confirmed
         if by_name.get(f["case"]) is not None
         and by_name[f["case"]].origin == "fuzz"}
    )
    for name in failing_fuzz:
        def still_fails(problem):
            result = verify_problem(
                problem, case=name, tol=args.tol, mc_samples=0
            )
            return bool(result.confirmed_findings)

        shrunk = shrink_problem(by_name[name].problem, still_fails)
        path = save_repro(
            shrunk,
            os.path.join(args.repro_dir, name.replace("/", "_") + ".json"),
            case=name,
            findings=[f for f in confirmed if f["case"] == name],
            seed=args.seed,
        )
        print(f"repro written: {path}")

    # Audit a pre-existing persistent cache, when there is one.
    if args.cache_dir and os.path.exists(
        os.path.join(args.cache_dir, CACHE_FILENAME)
    ):
        report = audit_cache(
            args.cache_dir, sample=args.audit_sample, seed=args.seed,
            tol=args.tol,
        )
        print(
            f"cache audit: {report.audited}/{report.sampled} sampled entries "
            f"recomputed ({report.entries} total, {report.skipped} skipped)"
        )
        findings.extend(f.as_dict() for f in report.findings)
        confirmed = [f for f in findings if not f.get("statistical")]

    statistical = [f for f in findings if f.get("statistical")]
    if findings:
        print()
        print(render_verification_table(findings))
    if statistical and not confirmed:
        print(f"\nwarning: {len(statistical)} Monte-Carlo interval miss(es); "
              "no exactly confirmed disagreement")
    if confirmed:
        print(f"\nFAIL: {len(confirmed)} confirmed finding(s) "
              f"across {len(cases)} cases")
        return 1
    print(f"\nOK: {len(cases)} cases, {checks} checks, no confirmed findings")
    if telemetry and os.path.exists(telemetry):
        print(f"telemetry: {telemetry}")
    return 0


def _write_trace(tracer: obs.Tracer, path: str) -> None:
    """Write a finished trace: ``.jsonl`` -> ``span`` records, else Chrome JSON.

    Both forms hold the local spans and those absorbed from pool or queue
    workers. A ``span`` record carries its own ``ts`` and no batch id (no
    ``batch_start`` names one), so warehouse retention ages it out by its
    timestamp.
    """
    if path.endswith(".jsonl"):
        with obs.TelemetryWriter(path) as writer:
            for s in tracer.spans:
                if s.finished:
                    writer.write({"event": "span", **obs.span_record(s)})
            for record in tracer.records:
                writer.write({"event": "span", **record})
    else:
        obs.write_chrome_trace(path, tracer.spans, metrics=obs.snapshot(),
                               records=tracer.records)
    print(f"trace written: {path}")


def cmd_profile(args: argparse.Namespace) -> int:
    """Run another command under tracing: ``archex profile [...] -- CMD``.

    CMD runs through :func:`main`, so its own ``--serve``, ``--log``,
    ``--warehouse`` and ``--alerts`` take effect. Afterwards the profile
    tree and the metrics are printed, the trace is written to
    ``--trace-out``, and with ``--sample-profile`` the collapsed stacks of
    the wall-clock sampling profiler (5 ms period) too.
    """
    argv = list(args.argv)
    if argv[:1] == ["--"]:
        argv = argv[1:]
    if not argv:
        raise SystemExit("profile: give a command to run, e.g. "
                         "`archex profile -- synthesize --algorithm mr`")
    if argv[0] == "profile":
        raise SystemExit("profile: cannot profile itself")
    sampler = obs.SamplingProfiler() if args.sample_profile else None
    obs.reset_metrics()
    with obs.tracing() as tracer, (
        nullcontext() if sampler is None else sampler
    ):
        code = main(argv)
    print(section("profile"))
    print(render_profile(tracer.spans, limit=args.top))
    metrics = obs.snapshot()
    if metrics:
        print()
        print(render_metrics(metrics))
    if args.trace_out:
        _write_trace(tracer, args.trace_out)
    if sampler is not None:
        sampler.write_collapsed(args.sample_profile)
        print(f"sampling profile written: {args.sample_profile} "
              f"({sampler.samples} samples, {len(sampler)} distinct stacks "
              f"@ {sampler.interval * 1000:.1f}ms)")
    return code


def _bench_sentinel(doc: dict, args: argparse.Namespace) -> int:
    """The ``--compare`` regression gate: compare, report, then append."""
    history = read_history(args.history, profile=doc.get("profile"))
    verdicts = compare_history(doc, history, threshold=args.threshold)
    print(section("bench regression sentinel"))
    print(render_bench_comparison(verdicts))
    regressions = [v for v in verdicts if v["status"] == "regression"]
    fresh = [v for v in verdicts if v["status"] == "no-history"]
    if fresh:
        print(f"\n{len(fresh)} metric(s) lack history "
              f"(need >= 2 prior runs in {args.history})")
    if not args.no_append:
        append_history(doc, args.history)
        print(f"appended this run to {args.history} "
              f"({len(history) + 1} entries for profile "
              f"{doc.get('profile')!r})")
    if regressions:
        names = ", ".join(v["metric"] for v in regressions)
        print(f"\nREGRESSION: {len(regressions)} metric(s) slower than the "
              f"history baseline: {names}")
        if args.warn_only:
            print("(warn-only mode: not failing the gate)")
            return 0
        return 1
    print("\nsentinel: no regressions against the history baseline")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    if args.from_doc:
        with open(args.from_doc) as fh:
            doc = json.load(fh)
        print(f"loaded bench document {args.from_doc} "
              f"(profile {doc.get('profile')!r}, {len(doc.get('rows', []))} "
              "rows; skipping the measurement run)")
    else:
        out = None if args.out == "-" else args.out
        doc = run_bench(profile=args.profile, out=out, backends=args.backends)
    problems = validate_bench_document(doc)
    summary = doc["summary"]
    rows = [
        [
            r["instance"],
            r["backend"],
            f"{r['cold']['wall_seconds']:.2f}",
            f"{r['warm']['wall_seconds']:.2f}",
            f"{r['speedup']:.1f}x",
            f"{r['warm']['warm_hit_rate']:.0%}",
            "yes" if r["costs_identical"] else "NO",
        ]
        for r in doc["rows"] if r["kind"] == "ilp_mr"
    ]
    print(section("ILP-MR warm vs cold"))
    print(format_table(
        ["instance", "backend", "cold s", "warm s", "speedup",
         "warm hits", "costs equal"],
        rows,
    ))
    if summary["ilp_mr_min_speedup"] is not None:
        print(f"\nmin ILP-MR speedup: {summary['ilp_mr_min_speedup']:.1f}x")
    if problems:
        print("\nSCHEMA PROBLEMS:")
        for p in problems:
            print(f"  - {p}")
        return 1
    if not summary["all_costs_identical"] or not summary["all_objectives_agree"]:
        print("\nWARM/COLD DISAGREEMENT — see the document rows")
        return 1
    if args.compare:
        return _bench_sentinel(doc, args)
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the synthesis service in the foreground until interrupted.

    Promotes the observability server into a durable job API: POST job
    specs to ``/api/jobs``, poll ``/api/jobs/<id>``, fetch the
    deterministic result document and evidence-packed artifacts. Runs
    persist under ``--runs-dir``; ``--resume`` requeues whatever a
    previous (crashed or killed) service left PENDING or RUNNING.
    """
    import signal
    import threading
    import time as _time

    from .service import JobQueue, RunStore, ServiceServer, resume_interrupted

    alerts = _build_alert_engine(args)
    store = RunStore(args.runs_dir) if args.runs_dir else RunStore()
    if args.warehouse:
        obs.configure_auto_ingest(args.warehouse)
    queue = JobQueue(
        store,
        workers=args.workers,
        batch_jobs=args.jobs,
        cache_dir=args.cache_dir,
        default_timeout=args.job_timeout,
    ).start()
    if args.resume:
        resumed = resume_interrupted(store, queue)
        if resumed:
            print(f"resumed {len(resumed)} interrupted run(s): "
                  + ", ".join(r.run_id for r in resumed))
        else:
            print("no interrupted runs to resume")
    server = ServiceServer(queue, host=args.host, port=args.port,
                           alerts=alerts).start()
    print(f"service: {server.url} "
          f"(POST /api/jobs; {args.workers} worker(s); "
          f"runs under {store.root}"
          + (f"; {len(alerts.rules)} alert rule(s)" if alerts else "")
          + (f"; warehouse {args.warehouse}" if args.warehouse else "")
          + ")")
    if args.port_file:
        # The ephemeral-port handshake for scripts (and the CI smoke job):
        # the actual bound port, written only once the socket is listening.
        with open(args.port_file, "w", encoding="utf-8") as fh:
            fh.write(f"{server.port}\n")
    deadline = (
        _time.time() + args.max_runtime if args.max_runtime is not None
        else None
    )
    # ``kill`` (SIGTERM) stops the service the way Ctrl-C does, so the
    # queue's pool workers exit with it instead of outliving it.
    on_term = None
    if threading.current_thread() is threading.main_thread():
        on_term = signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        while deadline is None or _time.time() < deadline:
            _time.sleep(0.2)
        print("max runtime reached; shutting down", file=sys.stderr)
    except KeyboardInterrupt:
        print("interrupted; shutting down", file=sys.stderr)
    finally:
        server.stop()
        # Unstarted runs stay PENDING on disk for the next --resume.
        queue.shutdown(wait=True, timeout=args.drain_timeout)
        if on_term is not None:
            signal.signal(signal.SIGTERM, on_term)
    return 0


def cmd_runs(args: argparse.Namespace) -> int:
    """Inspect the durable run store: ``runs ls|show|verify|gc``."""
    from .service import RunStore, TERMINAL_STATES, verify_evidence

    store = RunStore(args.runs_dir) if args.runs_dir else RunStore()
    if args.action == "ls":
        records = store.list()
        manifests = [r.as_dict() for r in records]
        if getattr(args, "json", False):
            print(json.dumps(manifests, indent=2, sort_keys=True,
                             default=str))
        else:
            print(render_runs_table(manifests))
        return 0
    if args.action == "show":
        try:
            record = store.load(args.run_id)
        except KeyError as exc:
            raise SystemExit(str(exc))
        doc = record.as_dict()
        doc["spec"] = record.spec()
        doc["artifacts"] = sorted(
            p.name for p in record.path.iterdir()
            if p.is_file() and not p.name.endswith(".tmp")
        )
        print(json.dumps(doc, indent=2, sort_keys=True, default=str))
        worker_metrics = record.path / "worker_metrics.json"
        if worker_metrics.is_file():
            from .report import render_worker_metrics

            try:
                metrics_doc = json.loads(
                    worker_metrics.read_text(encoding="utf-8")
                )
            except ValueError:
                metrics_doc = {}
            if metrics_doc.get("workers"):
                print(section("worker metrics"))
                print(render_worker_metrics(metrics_doc))
        return 0
    if args.action == "verify":
        if args.run_id:
            try:
                records = [store.load(args.run_id)]
            except KeyError as exc:
                raise SystemExit(str(exc))
        else:
            records = store.list(states=TERMINAL_STATES)
        if not records:
            print("no terminal runs to verify")
            return 0
        tampered = 0
        for record in records:
            report = verify_evidence(record.path)
            print(f"{record.run_id}: {report.summary()}")
            if not report.ok:
                tampered += 1
        if tampered:
            print(f"\nFAIL: {tampered}/{len(records)} run(s) failed "
                  "evidence verification")
            return 1
        print(f"\nOK: {len(records)} run(s) verified")
        return 0
    if args.action == "gc":
        deleted = store.gc(keep=args.keep, max_age=args.older_than,
                           lease_ttl=args.lease_ttl)
        for run_id in deleted:
            print(f"deleted {run_id}")
        print(f"gc: removed {len(deleted)} run(s), kept the "
              f"{args.keep} newest terminal run(s)"
              + (" and every live-leased run" if args.older_than else ""))
        return 0
    raise SystemExit(f"unknown runs action {args.action!r}")


def cmd_tree(args: argparse.Namespace) -> int:
    """Render the B&B search tree streamed into a telemetry journal.

    Reads ``bnb_event`` records either from a raw telemetry file
    (``--telemetry``) or from a stored run's journal (``--run``), and
    prints the per-solve roll-up plus the incumbent trail.
    """
    from .engine.telemetry import read_events
    from .report import render_search_tree

    if args.telemetry:
        path = args.telemetry
    else:
        from .service import RunStore
        from .service.store import TELEMETRY_NAME

        store = RunStore(args.runs_dir) if args.runs_dir else RunStore()
        try:
            record = store.load(args.run)
        except KeyError as exc:
            raise SystemExit(str(exc))
        path = str(record.path / TELEMETRY_NAME)
    if not os.path.exists(path):
        raise SystemExit(f"no telemetry journal at {path}")
    events = [e for e in read_events(path) if e.get("event") == "bnb_event"]
    print(render_search_tree(events))
    return 0


def cmd_worker(args: argparse.Namespace) -> int:
    """Drain jobs from a shared work-queue directory until stopped.

    Point any number of these (on any host sharing the filesystem) at
    the ``--queue-dir`` a coordinator fills via ``--executor queue``.
    Workers lease jobs atomically, heartbeat while executing, and exit
    when the queue's stop file appears, after ``--max-jobs`` executions,
    or after ``--idle-timeout`` seconds with nothing claimable.
    """
    from .engine import run_worker

    print(f"worker: draining {args.queue_dir} "
          f"(lease ttl {args.lease_ttl}s, cache {args.cache_dir or 'memory'})")
    executed = run_worker(
        args.queue_dir,
        cache_dir=args.cache_dir,
        retries=args.retries,
        lease_ttl=args.lease_ttl,
        idle_timeout=args.idle_timeout,
        max_jobs=args.max_jobs,
    )
    print(f"worker: executed {executed} job(s)")
    return 0


def cmd_obs(args: argparse.Namespace) -> int:
    """Telemetry warehouse operations: ``obs ingest|query|vacuum``."""
    from .obs.warehouse import TelemetryWarehouse

    with TelemetryWarehouse(args.warehouse) as wh:
        if args.obs_action == "ingest":
            total: dict = {}
            for path in args.files:
                if not os.path.exists(path):
                    raise SystemExit(f"no such file: {path}")
                counts = wh.ingest_file(path)
                for table, n in counts.items():
                    total[table] = total.get(table, 0) + n
                print(f"{path}: " + (", ".join(
                    f"{table}+{n}" for table, n in sorted(counts.items())
                ) or "nothing new"))
            print("warehouse totals: " + ", ".join(
                f"{table}={n}" for table, n in sorted(wh.counts().items())
            ))
            return 0
        if args.obs_action == "query":
            if args.sql:
                try:
                    rows = wh.query(args.sql)
                except (sqlite3.Error, ValueError) as exc:
                    # Bad SQL, or a write the read-only guard refused.
                    print(f"error: {exc}", file=sys.stderr)
                    return 1
                if args.json:
                    print(json.dumps(rows, indent=2, sort_keys=True,
                                     default=str))
                elif rows:
                    headers = list(rows[0].keys())
                    print(format_table(
                        headers,
                        [[row.get(h) for h in headers] for row in rows],
                    ))
                else:
                    print("(no rows)")
                return 0
            # No SQL: the overview — per-table counts and recent batches.
            doc = {"counts": wh.counts(batch=args.batch),
                   "batches": wh.batches(limit=10)}
            if args.json:
                print(json.dumps(doc, indent=2, sort_keys=True, default=str))
            else:
                print(format_table(
                    ["table", "rows"],
                    sorted(doc["counts"].items()),
                ))
                if doc["batches"]:
                    print()
                    print(section("recent batches"))
                    print(format_table(
                        ["batch", "name", "jobs", "ok", "failed", "wall (s)"],
                        [(b["batch"], b.get("name") or "?",
                          b.get("jobs") if b.get("jobs") is not None else "?",
                          b.get("ok") if b.get("ok") is not None else "?",
                          b.get("failed") if b.get("failed") is not None
                          else "?",
                          f"{b['wall_time']:.2f}"
                          if b.get("wall_time") is not None else "-")
                         for b in doc["batches"]],
                    ))
            return 0
        if args.obs_action == "vacuum":
            deleted = wh.vacuum(max_age=args.max_age,
                                keep_batches=args.keep_batches)
            if deleted:
                print("vacuum: deleted " + ", ".join(
                    f"{table}={n}" for table, n in sorted(deleted.items())
                ))
            else:
                print("vacuum: nothing to delete (database compacted)")
            return 0
    raise SystemExit(f"unknown obs action {args.obs_action!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="archex",
        description="Reliable cost-optimal CPS architecture synthesis "
        "(DATE 2015 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def obs_args(p: argparse.ArgumentParser) -> None:
        """Live observability flags shared by every long-running command."""
        p.add_argument("--serve", type=int, default=None, metavar="PORT",
                       help="expose /metrics (Prometheus), /runs and "
                       "/healthz on 127.0.0.1:PORT for the duration of the "
                       "command (0 = pick an ephemeral port)")
        p.add_argument("--log", default=None, metavar="FILE",
                       help="append structured JSON logs (run/job/span "
                       "correlated) to FILE")
        p.add_argument("--log-level", default="info",
                       choices=["debug", "info", "warning", "error"],
                       help="minimum level for --log records")
        p.add_argument("--alerts", type=_alert_rules, default=None,
                       metavar="FILE",
                       help="alert rules (TOML) evaluated while --serve "
                       "runs; firing alerts appear at /api/alerts and "
                       "degrade /healthz (default: .archex/alerts.toml "
                       "when present)")

    def common(p: argparse.ArgumentParser) -> None:
        """The problem and solver flags of synthesize, analyze and sweep."""
        obs_args(p)
        p.add_argument("--domain", default="eps",
                       choices=["eps", "power-grid", "comm-net"])
        p.add_argument("--algorithm", default="mr",
                       choices=list(SYNTHESIS_ALGORITHMS))
        p.add_argument("--target", type=float, default=2e-10,
                       help="reliability requirement r* (failure probability)")
        p.add_argument("--backend", default="auto", choices=["auto", "bnb", "scipy"])
        p.add_argument("--gap", type=float, default=None,
                       help="relative MIP gap (speeds up large instances)")
        p.add_argument("--size", type=int, default=0,
                       help="EPS generator count (0 = the paper's template)")

    def engine_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="worker processes for the sweep (1 = serial)")
        p.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="persistent reliability cache directory "
                       "(shared across runs and workers)")
        p.add_argument("--executor", default=None,
                       choices=list(EXECUTOR_MODES),
                       help="execution mode (default: serial for --jobs 1, "
                       "pool otherwise; queue = file-backed work queue)")
        p.add_argument("--queue-dir", default=None, metavar="DIR",
                       help="work-queue directory for --executor queue "
                       "(shared with standalone `worker` processes; "
                       "default: a throwaway queue)")
        p.add_argument("--telemetry", default=None, metavar="FILE",
                       help="append JSONL run telemetry to FILE "
                       "(default: <cache-dir>/telemetry.jsonl)")
        p.add_argument("--warehouse", default=None, metavar="DB",
                       help="auto-ingest each batch's telemetry journal "
                       "into this SQLite warehouse when the batch ends "
                       "(query it with `obs query`)")

    p_syn = sub.add_parser("synthesize", help="synthesize an optimal architecture")
    common(p_syn)
    p_syn.add_argument("--save-arch", default=None, metavar="FILE",
                       help="save the synthesized architecture as JSON")
    p_syn.set_defaults(func=cmd_synthesize)

    p_an = sub.add_parser("analyze", help="synthesize and report reliability detail")
    common(p_an)
    p_an.set_defaults(func=cmd_analyze)

    p_sw = sub.add_parser(
        "sweep",
        help="sweep r* (Pareto front) or, with --sizes, the EPS template "
        "size (Table II); parallel, cached, telemetered",
    )
    common(p_sw)
    engine_args(p_sw)
    p_sw.add_argument("--levels", type=lambda s: [float(x) for x in s.split(",")],
                      default=None,
                      help="requirement levels r* to sweep "
                      "(default 2e-3,2e-6,2e-10)")
    p_sw.add_argument("--sizes", type=lambda s: [int(x) for x in s.split(",")],
                      default=None,
                      help="EPS |V| sizes: a Table II scaling sweep at "
                      "--target (default 2e-10) instead of a requirement "
                      "sweep; --domain and --size do not apply")
    # No --target default here: only a --sizes sweep reads it.
    p_sw.set_defaults(func=cmd_sweep, target=None)

    p_vf = sub.add_parser(
        "verify",
        help="differential verification + fuzzing of the reliability engines",
    )
    engine_args(p_vf)
    p_vf.add_argument("--fuzz", type=int, default=50, metavar="N",
                      help="number of seeded random fuzz cases (0 = corpus only)")
    p_vf.add_argument("--seed", type=int, default=0,
                      help="fuzz/Monte-Carlo/audit sampling seed")
    p_vf.add_argument("--tol", type=float, default=1e-9,
                      help="relative tolerance for exact-engine agreement")
    p_vf.add_argument("--mc-samples", type=int, default=5000, metavar="N",
                      help="Monte-Carlo samples per case (0 disables the "
                      "statistical cross-check)")
    p_vf.add_argument("--audit-sample", type=int, default=25, metavar="N",
                      help="cache entries to recompute when auditing "
                      "--cache-dir")
    p_vf.add_argument("--repro-dir", default="verify-repros", metavar="DIR",
                      help="where shrunk counterexamples are written")
    p_vf.add_argument("--no-eps", action="store_true",
                      help="skip the (slower) EPS case-study corpus cases")
    obs_args(p_vf)
    p_vf.set_defaults(func=cmd_verify)

    p_bn = sub.add_parser(
        "bench",
        help="run the ILP benchmark suite and write BENCH_ilp.json",
    )
    p_bn.add_argument("--profile", default="smoke", choices=sorted(PROFILES),
                      help="workload size (smoke = CI-friendly, full = the "
                      "numbers quoted in the README)")
    p_bn.add_argument("--out", default="BENCH_ilp.json", metavar="FILE",
                      help="output document path ('-' = stdout only)")
    p_bn.add_argument("--backends", default="bnb,scipy",
                      type=lambda s: [x for x in s.split(",") if x],
                      help="comma list of MILP backends to measure")
    p_bn.add_argument("--from", dest="from_doc", default=None, metavar="FILE",
                      help="load an existing bench document instead of "
                      "re-running the suite (pairs with --compare)")
    p_bn.add_argument("--compare", action="store_true",
                      help="run the regression sentinel: compare against "
                      "--history, append this run, exit 1 on regressions")
    p_bn.add_argument("--history", default="BENCH_history.jsonl",
                      metavar="FILE",
                      help="bench history ledger (JSONL, one run per line)")
    p_bn.add_argument("--threshold", type=float, default=0.5,
                      help="relative slowdown beyond the history median that "
                      "counts as a regression (0.5 = 50%%)")
    p_bn.add_argument("--warn-only", action="store_true",
                      help="report regressions without failing the gate")
    p_bn.add_argument("--no-append", action="store_true",
                      help="do not record this run in the history ledger")
    obs_args(p_bn)
    p_bn.set_defaults(func=cmd_bench)

    p_sv = sub.add_parser(
        "serve",
        help="run the synthesis service: durable job API over HTTP",
    )
    p_sv.add_argument("--host", default="127.0.0.1",
                      help="bind address (default: loopback only)")
    p_sv.add_argument("--port", type=int, default=8181,
                      help="TCP port (0 = pick an ephemeral port; see "
                      "--port-file)")
    p_sv.add_argument("--port-file", default=None, metavar="FILE",
                      help="write the actual bound port to FILE once "
                      "listening (pairs with --port 0)")
    p_sv.add_argument("--runs-dir", default=None, metavar="DIR",
                      help="durable run store root "
                      "(default: .archex/runs)")
    p_sv.add_argument("--cache-dir", default=None, metavar="DIR",
                      help="persistent reliability cache shared by all "
                      "service runs")
    p_sv.add_argument("--workers", type=int, default=1, metavar="N",
                      help="concurrent runs (worker threads)")
    p_sv.add_argument("--jobs", type=int, default=1, metavar="N",
                      help="engine worker processes per run (1 = serial)")
    p_sv.add_argument("--job-timeout", type=float, default=None,
                      metavar="SECONDS",
                      help="default per-run wall-clock timeout (a spec's "
                      "own timeout wins)")
    p_sv.add_argument("--resume", action="store_true",
                      help="requeue runs a previous service left PENDING "
                      "or RUNNING (crash recovery)")
    p_sv.add_argument("--max-runtime", type=float, default=None,
                      metavar="SECONDS",
                      help="exit after SECONDS (default: run until "
                      "interrupted)")
    p_sv.add_argument("--drain-timeout", type=float, default=30.0,
                      metavar="SECONDS",
                      help="how long shutdown waits for in-flight runs")
    p_sv.add_argument("--log", default=None, metavar="FILE",
                      help="append structured JSON logs to FILE")
    p_sv.add_argument("--log-level", default="info",
                      choices=["debug", "info", "warning", "error"],
                      help="minimum level for --log records")
    p_sv.add_argument("--alerts", type=_alert_rules, default=None,
                      metavar="FILE",
                      help="alert rules (TOML) the service evaluates; "
                      "firing alerts appear at /api/alerts and degrade "
                      "/healthz (default: .archex/alerts.toml when present)")
    p_sv.add_argument("--warehouse", default=None, metavar="DB",
                      help="auto-ingest every finished run's telemetry "
                      "journal into this SQLite warehouse")
    p_sv.set_defaults(func=cmd_serve)

    p_rn = sub.add_parser(
        "runs",
        help="inspect the durable run store (ls, show, verify, gc)",
    )
    p_rn.add_argument("--runs-dir", default=None, metavar="DIR",
                      help="durable run store root "
                      "(default: .archex/runs)")
    rn_sub = p_rn.add_subparsers(dest="action", required=True)
    rn_ls = rn_sub.add_parser("ls", help="list runs, newest first")
    rn_ls.add_argument("--json", action="store_true",
                       help="emit the manifests as a JSON array (stable "
                       "newest-first order) instead of the ASCII table")
    rn_show = rn_sub.add_parser(
        "show", help="print one run's manifest, spec, and artifacts"
    )
    rn_show.add_argument("run_id")
    rn_verify = rn_sub.add_parser(
        "verify",
        help="verify evidence packs (all terminal runs, or one run id); "
        "exits 1 on tampering",
    )
    rn_verify.add_argument("run_id", nargs="?", default=None)
    rn_gc = rn_sub.add_parser(
        "gc", help="delete terminal runs beyond the newest --keep"
    )
    rn_gc.add_argument("--keep", type=int, default=20, metavar="N",
                       help="terminal runs to keep (newest first)")
    rn_gc.add_argument("--older-than", type=float, default=None,
                       metavar="SECONDS",
                       help="also collect stale PENDING/RUNNING runs older "
                       "than SECONDS — unless a live lease (heartbeat) "
                       "shows an executor still owns them")
    rn_gc.add_argument("--lease-ttl", type=float, default=300.0,
                       metavar="SECONDS",
                       help="heartbeat age beyond which a non-terminal "
                       "run's lease counts as dead (default 300)")
    for rn_p in (rn_ls, rn_show, rn_verify, rn_gc):
        # Also accepted after the action (`runs ls --runs-dir X`), not
        # just before it — the action-level value wins when both appear.
        rn_p.add_argument("--runs-dir", default=None, metavar="DIR",
                          help=argparse.SUPPRESS)
        rn_p.set_defaults(func=cmd_runs)
    p_rn.set_defaults(func=cmd_runs)

    p_wk = sub.add_parser(
        "worker",
        help="drain a shared work-queue directory (pairs with "
        "--executor queue)",
    )
    p_wk.add_argument("--queue-dir", required=True, metavar="DIR",
                      help="the work-queue directory to lease jobs from")
    p_wk.add_argument("--cache-dir", default=None, metavar="DIR",
                      help="persistent reliability cache directory")
    p_wk.add_argument("--retries", type=int, default=1, metavar="N",
                      help="extra attempts for transiently failing jobs")
    p_wk.add_argument("--lease-ttl", type=float, default=60.0,
                      metavar="SECONDS",
                      help="heartbeat age after which a peer's lease is "
                      "re-queued (default 60)")
    p_wk.add_argument("--idle-timeout", type=float, default=None,
                      metavar="SECONDS",
                      help="exit after SECONDS without claimable work "
                      "(default: run until the stop file appears)")
    p_wk.add_argument("--max-jobs", type=int, default=None, metavar="N",
                      help="exit after executing N jobs")
    # Workers take the full observability flag set: with --log every
    # record carries the run id, job digest, and lease attempt the
    # worker's log context binds per lease.
    obs_args(p_wk)
    p_wk.set_defaults(func=cmd_worker)

    p_tree = sub.add_parser(
        "tree",
        help="render the B&B search tree from run telemetry",
    )
    tree_src = p_tree.add_mutually_exclusive_group(required=True)
    tree_src.add_argument("--telemetry", default=None, metavar="FILE",
                          help="telemetry journal carrying bnb_event "
                          "records (e.g. a sweep's --telemetry file)")
    tree_src.add_argument("--run", default=None, metavar="RUN_ID",
                          help="render a stored run's journal instead")
    p_tree.add_argument("--runs-dir", default=None, metavar="DIR",
                        help="durable run store root for --run "
                        "(default: .archex/runs)")
    p_tree.set_defaults(func=cmd_tree)

    p_ob = sub.add_parser(
        "obs",
        help="telemetry warehouse: ingest journals, query SQL, vacuum",
    )
    p_ob.add_argument("--warehouse", default=".archex/warehouse.db",
                      metavar="DB", help="SQLite warehouse path")
    ob_sub = p_ob.add_subparsers(dest="obs_action", required=True)
    ob_in = ob_sub.add_parser(
        "ingest", help="ingest telemetry/obslog JSONL files (incremental)"
    )
    ob_in.add_argument("files", nargs="+", metavar="FILE",
                       help="JSONL streams (batch telemetry, obslog, "
                       "span traces, worker spools)")
    ob_qr = ob_sub.add_parser(
        "query", help="run read-only SQL (no SQL = warehouse overview)"
    )
    ob_qr.add_argument("sql", nargs="?", default=None,
                       help="SELECT statement over batches/jobs/spans/"
                       "metric_deltas/bnb_events/logs")
    ob_qr.add_argument("--batch", default=None, metavar="ID",
                       help="scope the overview counts to one batch id")
    ob_qr.add_argument("--json", action="store_true",
                       help="emit rows as JSON instead of a table")
    ob_vc = ob_sub.add_parser(
        "vacuum", help="apply retention and compact the database"
    )
    ob_vc.add_argument("--max-age", type=float, default=None,
                       metavar="SECONDS",
                       help="drop batches (and logs) older than SECONDS")
    ob_vc.add_argument("--keep-batches", type=int, default=None, metavar="N",
                       help="keep only the N most recent batches")
    for ob_p in (ob_in, ob_qr, ob_vc):
        # Also accepted after the action; SUPPRESS keeps an omitted copy
        # from overwriting the value given before it.
        ob_p.add_argument("--warehouse", default=argparse.SUPPRESS,
                          metavar="DB", help=argparse.SUPPRESS)
        ob_p.set_defaults(func=cmd_obs)
    p_ob.set_defaults(func=cmd_obs)

    p_pr = sub.add_parser(
        "profile",
        help="run another command under tracing (and sampling); print the "
        "profile tree",
    )
    p_pr.add_argument("--trace-out", default=None, metavar="FILE",
                      help="write the trace (.json = Chrome trace event "
                      "format, .jsonl = telemetry span stream)")
    p_pr.add_argument("--top", type=int, default=None, metavar="N",
                      help="only print the first N rows of the profile tree")
    p_pr.add_argument("--sample-profile", default=None, metavar="FILE",
                      help="also run under the wall-clock sampling profiler "
                      "(5 ms period) and write collapsed stacks "
                      "(flamegraph.pl / speedscope input) to FILE")
    p_pr.add_argument("argv", nargs=argparse.REMAINDER,
                      help="-- then the command (and its arguments) to "
                      "profile")
    p_pr.set_defaults(func=cmd_profile)
    return parser


def _alert_rules(path) -> list:
    """The rules of a TOML file (the ``--alerts`` type); a malformed rule
    exits with its error before the command serves or runs anything."""
    from .obs.alerts import load_alert_rules

    try:
        rules = load_alert_rules(path)
    except ValueError as exc:
        raise SystemExit(f"error: {path}: {exc}")
    if not rules:
        print(f"warning: no alert rules in {path}", file=sys.stderr)
    return rules


def _build_alert_engine(args: argparse.Namespace):
    """An AlertEngine from ``--alerts`` (or the default rules file)."""
    from .obs.alerts import DEFAULT_RULES_PATH, AlertEngine

    rules = getattr(args, "alerts", None)
    if rules is None and DEFAULT_RULES_PATH.exists():
        rules = _alert_rules(DEFAULT_RULES_PATH)
    return AlertEngine(rules) if rules else None


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    server = None
    if getattr(args, "serve", None) is not None:
        # Built before anything is armed: a malformed rules file exits here.
        server = obs.ObsServer(port=args.serve,
                               alerts=_build_alert_engine(args))
    if getattr(args, "log", None):
        obs.configure_obslog(
            path=args.log, level=getattr(args, "log_level", "info"),
        )
    if getattr(args, "warehouse", None) and args.func is not cmd_obs:
        obs.configure_auto_ingest(args.warehouse)
    if server is not None:
        server.start()
        print(f"observability server: {server.url} "
              "(/metrics /runs /healthz /api/alerts)", file=sys.stderr)
    try:
        return args.func(args)
    finally:
        if server is not None:
            server.stop()
        if getattr(args, "warehouse", None):
            obs.configure_auto_ingest(None)
        if getattr(args, "log", None):
            obs.configure_obslog()  # detach the sink; flush is per-record


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
