"""End-to-end benchmark of the ARCHEX reproduction: two closed loops.

Run from the root of a checkout::

    python3 perfbench/run.py --workload synth_bnb --seed 1 --seconds 45
    python3 perfbench/run.py --workload all --seed 1 --seconds 45
    python3 perfbench/run.py --workload service_mix --seed 1 --trace 1

Each workload runs in a fresh interpreter (``perfbench/workload.py``)
with a normalized environment, started from this process. ``--trace 0``
measures with every hook off and prints the end-to-end metrics;
``--trace 1`` prints the per-layer metrics of a traced run. Answers are
checked after the timed region, and the last line of output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``. See
``perfbench/README.md`` for the workloads and every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
from stats import summarize, tail_name  # noqa: E402
from workload import NORMALIZED_ENV  # noqa: E402

WORKLOADS = ("synth_bnb", "service_mix")

#: Extra setup-only launches; with the measured launch that makes five
#: set-up samples, of which setup_s is the median.
SETUP_PROBES = 4

#: The measured process is killed after this long; run.py must finish
#: within 180 s, set-up probes and answer checks included.
RUN_TIMEOUT_S = 140.0

RSS_SAMPLE_S = 0.25

#: Names the benchmark removes from the workload environment on top of
#: NORMALIZED_ENV: bytecode caching stays on, as for an installed
#: package, so set-up time measures imports rather than compilation.
EXTRA_REMOVED_ENV = ("PYTHONDONTWRITEBYTECODE", "PYTHONPATH", "TMPDIR")

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics with units, per workload. Every workload reports
#: every name in its JSON (0 where the layer does no work on it); the
#: printed table shows each workload's own list.
LAYER_METRICS: Dict[str, List[Tuple[str, str]]] = {
    "synth_bnb": [
        ("ilp.simplex_s", "s"), ("ilp.bnb_self_s", "s"),
        ("ilp.export_s", "s"), ("ilp.lp_solves", "count"),
        ("ilp.lp_iterations", "count"), ("ilp.bnb_nodes", "count"),
        ("ilp.refactorizations", "count"), ("ilp.ms_per_lp_iteration", "ms"),
        ("synthesis.build_encoder_s", "s"), ("synthesis.learncons_s", "s"),
        ("synthesis.iterations", "count"), ("reliability.analysis_s", "s"),
    ],
    "service_mix": [
        ("service.submit_s", "s"), ("service.env_capture_s", "s"),
        ("service.queue_wait_s", "s"), ("service.self_s", "s"),
        ("engine.batch_s", "s"), ("service.evidence_s", "s"),
        ("obs.trace_stitch_s", "s"), ("service.store_writes", "count"),
        ("service.store_write_s", "s"), ("service.status_reads", "count"),
        ("service.done_to_seen_s", "s"), ("synthesis.build_encoder_s", "s"),
        ("ilp.highs_s", "s"), ("reliability.analysis_s", "s"),
    ],
}
COMMON_LAYER_METRICS = [("unattributed_s", "s"), ("trace_overhead", "ratio"),
                        ("unmeasured_metrics", "count")]

#: (singular, plural) name of one request of each workload.
REQUEST_NOUN = {"synth_bnb": ("synthesis", "syntheses"),
                "service_mix": ("run", "runs")}


def all_layer_metrics() -> List[Tuple[str, str]]:
    seen: Dict[str, str] = {}
    for metrics in LAYER_METRICS.values():
        for name, unit in metrics:
            seen.setdefault(name, unit)
    for name, unit in COMMON_LAYER_METRICS:
        seen.setdefault(name, unit)
    return list(seen.items())


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


# ---------------------------------------------------------------------------
# Host diagnostics


def calibrate(reps: int = 5) -> float:
    """Median milliseconds of a fixed pure-Python loop (host speed)."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc = (acc * 31 + i) % 1_000_003
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1000.0


def loadavg() -> List[float]:
    return [round(x, 2) for x in os.getloadavg()]


# ---------------------------------------------------------------------------
# Process tree handling


def _session_members(sid: int) -> List[int]:
    members = []
    for entry in os.scandir("/proc"):
        if not entry.name.isdigit():
            continue
        try:
            with open(f"/proc/{entry.name}/stat", encoding="utf-8") as fh:
                stat = fh.read()
        except OSError:
            continue
        fields = stat.rsplit(")", 1)[-1].split()
        if len(fields) > 3 and fields[3] == str(sid) \
                and fields[0] not in ("Z", "X"):
            members.append(int(entry.name))
    return members


def _hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except (OSError, ValueError):
        pass
    return 0


class TreePeak(threading.Thread):
    """Peak of the summed VmHWM of every live process in a session.

    VmHWM is each process's own peak resident set, so a sample sums the
    peaks of the processes alive at that moment; the metric is the
    largest such sum over samples taken every :data:`RSS_SAMPLE_S`.
    """

    def __init__(self, sid: int) -> None:
        super().__init__(daemon=True)
        self.sid = sid
        self.peak_kb = 0
        self._halt = threading.Event()

    def run(self) -> None:
        while not self._halt.wait(RSS_SAMPLE_S):
            total = sum(_hwm_kb(pid) for pid in _session_members(self.sid))
            self.peak_kb = max(self.peak_kb, total)

    def stop(self) -> None:
        self._halt.set()
        self.join()


def reap_session(sid: int) -> None:
    """Kill whatever is left of a workload's session and wait for it."""
    try:
        os.killpg(sid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    deadline = time.monotonic() + 10.0
    while _session_members(sid) and time.monotonic() < deadline:
        time.sleep(0.05)


def launch(args: argparse.Namespace, workload: str, env: Dict[str, str],
           scratch: Path, out: Path, setup_only: bool,
           on_start: Optional[Callable[[int], None]] = None
           ) -> Tuple[float, int]:
    """Run one workload process; returns (setup seconds, exit code)."""
    cmd = [sys.executable, str(HERE / "workload.py"),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", repr(float(args.seconds)),
           "--trace", str(args.trace), "--scratch", str(scratch),
           "--out", str(out)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=scratch, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    if on_start is not None:
        on_start(proc.pid)
    timer = threading.Timer(RUN_TIMEOUT_S, reap_session, (proc.pid,))
    timer.start()
    setup = None
    try:
        for line in proc.stdout:
            if setup is None and line.startswith("READY"):
                parts = line.split()
                setup = (float(parts[1]) if len(parts) > 1
                         else time.perf_counter() - t0)
        code = proc.wait()
    finally:
        timer.cancel()
        reap_session(proc.pid)
    if setup is None:
        raise BenchError(f"{workload}: workload process exited with {code} "
                         "before finishing its warm-up")
    return setup, code


def probe_blas_threads(env: Dict[str, str], scratch: Path) -> Dict[str, int]:
    """Effective OpenBLAS threads of a fresh interpreter in ``env``."""
    code = ("import json, sys, numpy, scipy.linalg; sys.path.insert(0, "
            f"{str(HERE)!r}); from workload import blas_threads; "
            "print(json.dumps(blas_threads()))")
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=scratch,
                         capture_output=True, text=True, timeout=60)
    return json.loads(out.stdout) if out.returncode == 0 else {}


def workload_env(root: Path, scratch: Path) -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items()
           if k not in NORMALIZED_ENV and k not in EXTRA_REMOVED_ENV}
    env["PYTHONPATH"] = str(root / "src")
    tmp = scratch / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    return env


# ---------------------------------------------------------------------------
# Answer checks (outside the timed region)


def check_synth(seed: int, passes: List[Dict[str, Any]]) -> Tuple[int, int]:
    from repro.synthesis import synthesize_ilp_mr

    cycle = inputs.synth_cycle(seed)
    expected = []
    for request in cycle:
        ref = synthesize_ilp_mr(inputs.synth_spec(request),
                                strategy=request["strategy"], backend="scipy")
        expected.append(float(ref.cost) if ref.status == "optimal" else None)
    attempted = failed = 0
    for p in passes:
        for i, sample in enumerate(p["requests"]):
            attempted += 1
            want = expected[i % len(cycle)]
            if sample["status"] != "optimal" or want is None \
                    or float.fromhex(sample["cost"]) != want:
                failed += 1
    return attempted, failed


def check_service(seed: int, passes: List[Dict[str, Any]]) -> Tuple[int, int]:
    from repro.engine import run_batch
    from repro.service.runner import canonical_results
    from repro.service.specs import build_batch, normalize_job_spec

    expected = []
    for spec in inputs.service_cycle(seed):
        outcome = run_batch(build_batch(normalize_job_spec(spec)), jobs=1)
        expected.append(inputs.digest(canonical_results(outcome.results)))
    attempted = failed = 0
    for p in passes:
        for sample in p["runs"]:
            attempted += 1
            if sample["state"] != "DONE" \
                    or sample["results"] != expected[sample["spec"]]:
                failed += 1
    return attempted, failed


# ---------------------------------------------------------------------------
# Metrics


def requests_of(workload: str, measured: Dict[str, Any]) -> List[Dict]:
    return measured["requests" if workload == "synth_bnb" else "runs"]


def throughput(workload: str, measured: Dict[str, Any]) -> float:
    """Requests per second of summed request latency, as the median over
    the run's whole cycles of its request list.

    Instance building and answer checks are outside the latencies. Each
    cycle holds the same requests, so every cycle is one sample of the
    same work, and the median keeps a stall in one cycle from moving
    the run's figure. A run without a whole cycle counts all requests.
    """
    reqs = requests_of(workload, measured)
    cycles: Dict[int, List[float]] = {}
    for r in reqs:
        cycles.setdefault(r["cycle"], []).append(r["latency"])
    rates = [len(lat) / sum(lat) for lat in cycles.values()
             if len(lat) == measured["cycle_len"]]
    if not rates:
        rates = [len(reqs) / sum(r["latency"] for r in reqs)]
    return statistics.median(rates)


def end_to_end(workload: str, measured: Dict[str, Any],
               setups: List[float], peak_kb: int
               ) -> Tuple[Dict[str, float], List[str]]:
    reqs = requests_of(workload, measured)
    lat = summarize([r["latency"] for r in reqs])
    first = summarize([r["first_result"] for r in reqs])
    noun = REQUEST_NOUN[workload][1]
    metrics = {
        "setup_s": statistics.median(setups),
        "throughput_per_s": throughput(workload, measured),
        "latency_p50_s": lat["p50"],
        "peak_rss_mb": peak_kb / 1024.0,
    }
    notes = {
        "setup_s": f"median of n={len(setups)} launches",
        "throughput_per_s": f"median over cycles, n={lat['n']} {noun}",
        "latency_p50_s": f"n={lat['n']} {noun}",
        "peak_rss_mb": "sum of VmHWM over the live process tree, "
                       f"sampled every {RSS_SAMPLE_S} s",
    }
    lines = [fmt_line(name, metrics[name], END_TO_END_UNITS[name],
                      notes[name]) for name in END_TO_END_UNITS]
    # Printed but not gated: see "Run-to-run spread" in README.md.
    lines.append(fmt_line("first_result_s", first["p50"], "s",
                          f"median, n={first['n']} {noun}, ungated"))
    if lat["tail"] is not None:
        per_mille, value = lat["tail"]
        lines.append(fmt_line(f"latency_{tail_name(per_mille)}_s", value, "s",
                              f"n={lat['n']} {noun}, ungated"))
    else:
        lines.append(f"  {'latency_p90_s':<30} omitted: needs 10 samples "
                     f"beyond p90 (n>=100), have n={lat['n']}")
    return metrics, lines


def fmt_line(name: str, value: Optional[float], unit: str, note: str = ""):
    shown = "unmeasured" if value is None else f"{value:.6g}"
    return f"  {name:<30} {shown:>12} {unit:<6} {note}".rstrip()


def _per(total: Optional[float], count: int) -> Optional[float]:
    return None if total is None else total / count


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(workload: str, result: Dict[str, Any]
                  ) -> Tuple[Dict[str, Optional[float]], List[str]]:
    """Per-request layer metrics of the traced pass (None = unmeasured)."""
    traced = result["traced"]
    reqs = requests_of(workload, traced)
    n = len(reqs)
    clock = traced.get("layers") or {}
    unmeasured = set(clock.get("unmeasured", []))
    if not clock:
        unmeasured.add("*")
    self_s = clock.get("self_s", {})
    calls = clock.get("calls", {})

    def self_time(layer: str) -> Optional[float]:
        return None if layer in unmeasured or "*" in unmeasured \
            else self_s.get(layer, 0.0)

    def count(layer: str) -> Optional[float]:
        return None if layer in unmeasured or "*" in unmeasured \
            else float(calls.get(layer, 0))

    busy = sum(r["latency"] for r in reqs)
    m: Dict[str, Optional[float]] = {}
    if workload == "synth_bnb":
        counters = traced.get("counters") or {}
        m["ilp.simplex_s"] = _per(self_time("ilp.simplex"), n)
        m["ilp.bnb_self_s"] = _per(self_time("ilp.bnb"), n)
        m["ilp.export_s"] = _per(self_time("ilp.export"), n)
        m["ilp.lp_solves"] = _per(count("ilp.simplex"), n)
        for name in ("ilp.lp_iterations", "ilp.bnb_nodes",
                     "ilp.refactorizations"):
            m[name] = _per(counters.get(name), n)
        iters = counters.get("ilp.lp_iterations")
        simplex = self_time("ilp.simplex")
        m["ilp.ms_per_lp_iteration"] = (
            1000.0 * simplex / iters if iters and simplex is not None
            else None)
        m["synthesis.build_encoder_s"] = _per(
            self_time("synthesis.build_encoder"), n)
        m["synthesis.learncons_s"] = _per(self_time("synthesis.learncons"), n)
        m["synthesis.iterations"] = sum(r["iterations"] for r in reqs) / n
        m["reliability.analysis_s"] = _per(
            self_time("reliability.analysis"), n)
    else:
        for name, layer in (
                ("service.submit_s", "service.submit"),
                ("service.env_capture_s", "service.env_capture"),
                ("service.self_s", "service.run"),
                ("engine.batch_s", "engine.batch"),
                ("service.evidence_s", "service.evidence"),
                ("obs.trace_stitch_s", "obs.trace_stitch"),
                ("service.store_write_s", "service.store_write"),
                ("synthesis.build_encoder_s", "synthesis.build_encoder"),
                ("ilp.highs_s", "ilp.highs"),
                ("reliability.analysis_s", "reliability.analysis")):
            m[name] = _per(self_time(layer), n)
        m["service.store_writes"] = _per(count("service.store_write"), n)
        waits = [r["queue_wait"] for r in reqs if r["queue_wait"] is not None]
        seen = [r["done_to_seen"] for r in reqs
                if r["done_to_seen"] is not None]
        m["service.queue_wait_s"] = statistics.fmean(waits) if waits else None
        m["service.done_to_seen_s"] = statistics.fmean(seen) if seen else None
        m["service.status_reads"] = (
            sum(r["status_reads"] for r in reqs) / n)

    top = clock.get("top_s")
    m["unattributed_s"] = None if top is None else (busy - top) / n
    m["trace_overhead"] = (throughput(workload, traced)
                           / throughput(workload, result["untraced"]))
    missing = sorted(name for name, _ in LAYER_METRICS[workload]
                     if m.get(name) is None)
    m["unmeasured_metrics"] = float(len(missing))

    one, many = REQUEST_NOUN[workload]
    lines = [f"  per-layer, mean per {one} over n={n} {many} of the traced "
             "pass; *_s are self times"]
    for name, unit in LAYER_METRICS[workload] + COMMON_LAYER_METRICS:
        lines.append(fmt_line(name, m.get(name), unit))
    return m, lines


# ---------------------------------------------------------------------------
# Entry point


def run_workload(args: argparse.Namespace, workload: str, root: Path,
                 scratch_root: Path) -> Tuple[Dict[str, Any], List[str]]:
    scratch = scratch_root / workload
    scratch.mkdir(parents=True, exist_ok=True)
    env = workload_env(root, scratch)
    lines = [f"perfbench {workload}: seed={args.seed} seconds={args.seconds} "
             f"trace={args.trace}"]
    calibration = calibrate()
    load_before = loadavg()

    setups: List[float] = []
    if not args.trace:
        for i in range(SETUP_PROBES):
            probe = scratch / f"probe-{i}"
            probe.mkdir()
            setup, _ = launch(args, workload, env, probe, probe / "out.json",
                              setup_only=True)
            setups.append(setup)

    main_dir = scratch / "main"
    main_dir.mkdir()
    out = main_dir / "out.json"
    peak: List[TreePeak] = []

    def start_sampler(pid: int) -> None:
        sampler = TreePeak(pid)
        sampler.start()
        peak.append(sampler)

    try:
        setup, code = launch(args, workload, env, main_dir, out,
                             setup_only=False, on_start=start_sampler)
    finally:
        for sampler in peak:
            sampler.stop()
    if code != 0 or not out.exists():
        raise BenchError(f"{workload}: workload process exited with {code}")
    setups.append(setup)
    result = json.loads(out.read_text(encoding="utf-8"))
    load_after = loadavg()

    passes = [result["untraced"]] + ([result["traced"]] if args.trace else [])
    if workload == "synth_bnb":
        attempted, failed = check_synth(args.seed, passes)
        digest = inputs.digest(inputs.synth_cycle(args.seed))
    else:
        attempted, failed = check_service(args.seed, passes)
        digest = inputs.digest(inputs.service_cycle(args.seed))

    envinfo = result["environment"]
    if not envinfo["blas_threads"]:
        # The service_mix client never loads BLAS; its server does, in
        # the same environment.
        envinfo["blas_threads"] = probe_blas_threads(env, scratch)
    lines.append(f"  inputs digest {digest}")
    lines.append(
        f"  environment: nproc={envinfo['nproc']} "
        f"blas_threads={envinfo['blas_threads']} env={envinfo['env']} "
        f"python={envinfo['python']} packages={envinfo['packages']}")
    lines.append(f"  host: loadavg before={load_before} after={load_after} "
                 f"calibration_ms={calibration:.2f} (diagnostic, ungated)")
    if args.trace:
        metrics, metric_lines = layer_metrics(workload, result)
        units = dict(all_layer_metrics())
        reported = {name: {"value": (metrics.get(name) or 0.0), "unit": unit}
                    for name, unit in units.items()}
    else:
        values, metric_lines = end_to_end(
            workload, result["untraced"], setups,
            peak[0].peak_kb if peak else 0)
        reported = {name: {"value": values[name], "unit": unit}
                    for name, unit in END_TO_END_UNITS.items()}
    lines.extend(metric_lines)
    lines.append(f"  checks: attempted={attempted} failed={failed}")
    summary = {"correct": failed == 0, "attempted": attempted,
               "failed": failed, "metrics": reported}
    return summary, lines


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: {root} holds no src/repro; run from the root of "
              "a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    subprocess.run([sys.executable, "-m", "compileall", "-q",
                    str(root / "src" / "repro"), str(HERE)],
                   check=False, stdout=subprocess.DEVNULL)

    scratch_root = root / ".perfbench-scratch" / f"run-{os.getpid()}"
    scratch_root.mkdir(parents=True, exist_ok=True)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    summaries = {}
    try:
        for workload in workloads:
            summary, lines = run_workload(args, workload, root, scratch_root)
            print("\n".join(lines), flush=True)
            summaries[workload] = summary
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch_root, ignore_errors=True)
        try:
            scratch_root.parent.rmdir()
        except OSError:
            pass

    if len(summaries) == 1:
        final = next(iter(summaries.values()))
    else:
        final = {
            "correct": all(s["correct"] for s in summaries.values()),
            "attempted": sum(s["attempted"] for s in summaries.values()),
            "failed": sum(s["failed"] for s in summaries.values()),
            "metrics": {f"{w}.{name}": v for w, s in summaries.items()
                        for name, v in s["metrics"].items()},
        }
    print(json.dumps(final, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
