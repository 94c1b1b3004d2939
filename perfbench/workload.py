"""One workload in a fresh interpreter: warm up, then a closed loop.

``run.py`` starts this file once per set-up sample (``--setup-only``)
and once for the measured run; it is not meant to be run by hand. The
process prints ``READY`` once its warm-up request is done (that is the
end of set-up), runs its request list for the given number of seconds,
and writes raw samples and answers as JSON to ``--out``. Answers are
checked by ``run.py`` afterwards, outside the timed region.

With ``--trace 1`` the window is split: an untraced half, then a half
with the layer hooks of :mod:`layers` installed; the ratio of the two
throughputs is the tracing overhead.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import signal
import subprocess
import sys
import time
import urllib.request
from pathlib import Path
from typing import Any, Dict, List, Optional

import inputs
import layers

#: Environment variables the benchmark removes (the user default) and
#: whose effective values it records.
NORMALIZED_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                  "MKL_NUM_THREADS", "REPRO_WAREHOUSE")

#: obs counters read around the traced synth_bnb pass.
SYNTH_COUNTERS = {
    "ilp.lp_iterations": "ilp.bnb.lp_iterations",
    "ilp.bnb_nodes": "ilp.bnb.nodes",
    "ilp.refactorizations": "ilp.simplex.refactorizations",
}

POLL_S = 0.005


def blas_threads() -> Dict[str, int]:
    """Thread count of every OpenBLAS loaded in this process."""
    found: Dict[str, int] = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh
                     if "openblas" in line.lower() and "/" in line}
    except OSError:
        return found
    symbols = ("scipy_openblas_get_num_threads64_",
               "scipy_openblas_get_num_threads", "openblas_get_num_threads64_",
               "openblas_get_num_threads")
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in symbols:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[os.path.basename(path)] = int(fn())
                break
    return found


def environment() -> Dict[str, Any]:
    from importlib import metadata

    versions = {}
    for pkg in ("numpy", "scipy", "networkx"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    return {
        "env": {name: os.environ.get(name) for name in NORMALIZED_ENV},
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "packages": versions,
    }


# ---------------------------------------------------------------------------
# synth_bnb


class SynthBnb:
    """Closed loop of ``synthesize_ilp_mr(backend="bnb")`` requests.

    The loop runs whole cycles of :func:`inputs.synth_cycle`, so every
    run does the same mix of template classes, and as many cycles as
    fit the window best: it stops when another cycle would overshoot
    the window by more than the current one falls short. A ``--trace 0``
    run does at least :data:`MIN_CYCLES`, so that a slow host shortens
    neither the median's samples nor the cycles behind the throughput;
    each half of a traced run needs only one whole cycle.
    """

    MIN_CYCLES = 2

    def __init__(self, args: argparse.Namespace) -> None:
        self.seed = args.seed
        self.min_cycles = 1 if args.trace else self.MIN_CYCLES

    def warm_up(self) -> None:
        from repro.synthesis import synthesize_ilp_mr

        spec = inputs.synth_spec({"num_generators": 2, "include_apu": False,
                                  "sibling_ties": True, "target": 2e-3})
        synthesize_ilp_mr(spec, backend="bnb")

    def measure(self, window: float, clock: Optional[layers.LayerClock]):
        from repro import obs
        from repro.synthesis import synthesize_ilp_mr

        cycle = inputs.synth_cycle(self.seed)
        if clock is not None:
            obs.add_observer()
            clock.install(layers.SYNTH_HOOKS)
            clock.reset()
        before = _counters(SYNTH_COUNTERS)
        requests: List[Dict[str, Any]] = []
        start = time.perf_counter()
        while True:
            cycle_start = time.perf_counter()
            cycle_index = len(requests) // len(cycle)
            for request in cycle:
                spec = inputs.synth_spec(request)
                t0 = time.perf_counter()
                result = synthesize_ilp_mr(spec, strategy=request["strategy"],
                                           backend="bnb")
                latency = time.perf_counter() - t0
                first = result.iterations[0] if result.iterations else None
                requests.append({
                    "cycle": cycle_index,
                    "latency": latency,
                    # Time to the first candidate architecture, from the
                    # result's own timers: set-up, first solve, analysis.
                    "first_result": (
                        result.setup_time + first.solver_time
                        + first.analysis_time
                        if first is not None else latency),
                    "status": result.status,
                    "cost": float(result.cost).hex(),
                    "iterations": len(result.iterations),
                })
            now = time.perf_counter()
            if cycle_index + 1 >= self.min_cycles \
                    and now - start + (now - cycle_start) / 2 >= window:
                break
        out: Dict[str, Any] = {"requests": requests,
                               "cycle_len": len(cycle)}
        if clock is not None:
            out["layers"] = clock.snapshot()
            after = _counters(SYNTH_COUNTERS)
            # A counter first created during the pass started from zero;
            # one that never appeared is unmeasured.
            out["counters"] = {
                name: (after[name] - (before[name] or 0)
                       if after[name] is not None else None)
                for name in SYNTH_COUNTERS
            }
            obs.remove_observer()
        return out

    def close(self) -> None:
        pass


def _counters(names: Dict[str, str]) -> Dict[str, Optional[int]]:
    from repro import obs

    snap = obs.snapshot()
    return {name: (snap[key].get("value") if key in snap else None)
            for name, key in names.items()}


# ---------------------------------------------------------------------------
# service_mix


class ServiceMix:
    """``repro serve`` in a subprocess; one client POSTs and polls."""

    WARM_UP_SPEC = {"kind": "synthesize",
                    "params": {"domain": "eps", "backend": "scipy",
                               "target": 3e-3}}

    def __init__(self, args: argparse.Namespace) -> None:
        self.seed = args.seed
        self.scratch = Path(args.scratch)
        self.proc: Optional[subprocess.Popen] = None
        self.base = ""
        self.stats_path: Optional[Path] = None
        self.servers = 0
        self.setup_s: Optional[float] = None

    # -- server lifecycle ---------------------------------------------------

    def start_server(self, traced: bool) -> None:
        self.servers += 1
        root = self.scratch / f"server-{self.servers}"
        root.mkdir(parents=True, exist_ok=True)
        port_file = root / "port"
        serve_args = ["serve", "--port", "0", "--port-file", str(port_file),
                      "--runs-dir", str(root / "runs")]
        if traced:
            self.stats_path = root / "layers.json"
            cmd = [sys.executable,
                   str(Path(__file__).with_name("serve_traced.py")),
                   str(self.stats_path), *serve_args]
        else:
            self.stats_path = None
            cmd = [sys.executable, "-m", "repro", *serve_args]
        t0 = time.perf_counter()
        with open(root / "server.log", "wb") as log:
            self.proc = subprocess.Popen(cmd, cwd=root, stdout=log,
                                         stderr=subprocess.STDOUT)
        deadline = time.monotonic() + 60.0
        while True:
            text = port_file.read_text() if port_file.exists() else ""
            if text.strip():
                break
            if self.proc.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError("repro serve did not start; see "
                                   f"{root / 'server.log'}")
            time.sleep(0.01)
        self.base = f"http://127.0.0.1:{int(text)}"
        self.request(self.WARM_UP_SPEC)
        self.setup_s = time.perf_counter() - t0

    def stop_server(self) -> Optional[Dict[str, Any]]:
        proc, self.proc = self.proc, None
        if proc is None:
            return None
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=30.0)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        if self.stats_path is not None and self.stats_path.exists():
            return json.loads(self.stats_path.read_text(encoding="utf-8"))
        return None

    # -- client ---------------------------------------------------------------

    def _call(self, path: str, body: Optional[bytes] = None):
        req = urllib.request.Request(
            self.base + path, data=body,
            headers={"Content-Type": "application/json"} if body else {},
            method="POST" if body is not None else "GET",
        )
        with urllib.request.urlopen(req, timeout=60.0) as resp:
            return json.loads(resp.read().decode("utf-8"))

    def request(self, spec: Dict[str, Any]) -> Dict[str, Any]:
        """POST ``spec``, poll it to a terminal state, fetch its result."""
        t0 = time.perf_counter()
        created = self._call("/api/jobs", json.dumps(spec).encode("utf-8"))
        location = created["location"]
        first = None
        reads = 0
        while True:
            status = self._call(location)
            reads += 1
            now = time.perf_counter()
            if first is None and (status.get("progress") or {}).get("done"):
                first = now
            if status.get("terminal"):
                seen_wall = time.time()
                break
            time.sleep(POLL_S)
        result = (self._call(location + "/result")
                  if status.get("state") == "DONE" else None)
        done = time.perf_counter()
        started = status.get("started_at")
        finished = status.get("finished_at")
        return {
            "latency": done - t0,
            "first_result": (first if first is not None else now) - t0,
            "state": status.get("state"),
            "status_reads": reads,
            "queue_wait": (started - status["created_at"]
                           if started is not None else None),
            "done_to_seen": (seen_wall - finished
                             if finished is not None else None),
            "results": inputs.digest(result["results"]) if result else None,
        }

    # -- workload protocol ----------------------------------------------------

    def warm_up(self) -> None:
        self.start_server(traced=False)

    def measure(self, window: float, clock: Optional[layers.LayerClock]):
        traced = clock is not None
        if traced:
            self.stop_server()
            self.start_server(traced=True)
            self.proc.send_signal(signal.SIGUSR1)
            time.sleep(0.1)  # let the server zero its totals first
        cycle = inputs.service_cycle(self.seed)
        runs: List[Dict[str, Any]] = []
        start = time.perf_counter()
        i = 0
        while time.perf_counter() - start < window:
            spec = cycle[i % len(cycle)]
            sample = self.request(spec)
            sample["spec"] = i % len(cycle)
            sample["cycle"] = i // len(cycle)
            runs.append(sample)
            i += 1
        out: Dict[str, Any] = {"runs": runs, "cycle_len": len(cycle)}
        if traced:
            out["layers"] = self.stop_server()
        return out

    def close(self) -> None:
        self.stop_server()


WORKLOADS = {"synth_bnb": SynthBnb, "service_mix": ServiceMix}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    runner = WORKLOADS[args.workload](args)
    try:
        runner.warm_up()
        setup = getattr(runner, "setup_s", None)
        print("READY" + (f" {setup!r}" if setup is not None else ""),
              flush=True)
        if args.setup_only:
            return 0
        result: Dict[str, Any] = {"environment": environment()}
        if args.trace:
            result["untraced"] = runner.measure(args.seconds / 2, None)
            result["traced"] = runner.measure(args.seconds / 2,
                                              layers.LayerClock())
        else:
            result["untraced"] = runner.measure(args.seconds, None)
    finally:
        runner.close()
    Path(args.out).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
