"""Reproducible ILP benchmark suite — the numbers behind ``BENCH_ilp.json``.

Five kinds of rows, all measured in one process so warm and cold arms
see identical code and inputs:

``ilp_mr``
    Table II learncons instances run end-to-end twice: ``warm=True``
    (incremental export + dual-simplex reseeding + incumbent seeding) and
    ``warm=False`` (the original re-encode-and-cold-start behavior). The
    row records both wall times, the speedup, both optimal costs, and the
    warm arm's branch-and-bound counters (nodes, LP iterations, warm-start
    hit rate) taken from the :mod:`repro.obs` metrics registry.

``lp_scaling``
    Synthetic set-cover 0-1 ILPs of growing size solved cold by both
    backends — the data that calibrates the ``auto`` backend's thresholds,
    :data:`repro.ilp.solver.AUTO_SCIPY_VARS` and ``AUTO_SCIPY_CONSTRS``.

``warm_lp``
    A single LP re-solve after tightening one variable bound: cold
    iterations versus dual-simplex pivots from the carried basis. This is
    the per-node saving branch-and-bound compounds.

``queue_throughput``
    A batch of no-op jobs pushed through ``executor="queue"`` (the
    file-backed work queue with local worker processes): jobs/second
    including lease, heartbeat, and result fan-in overhead.

``sharded_sweep``
    The equivalence guarantee under load: a reliability sweep run twice —
    serially and through the work queue with concurrent workers, each
    into a fresh cache directory — recording both walls and whether
    every value came back bit-identical. The name predates the single
    cache store; it is kept so the row compares with its history.

Run via ``repro bench`` or ``benchmarks/bench_suite.py``; validate a
produced document with :func:`validate_bench_document` (CI does).

The suite also doubles as a **regression sentinel**: each run can append
a compact record to a ``BENCH_history.jsonl`` time series
(:func:`append_history`) and be compared against the committed history
with robust statistics (:func:`compare_history` — median + MAD, so one
noisy CI run cannot poison the baseline). ``archex bench --compare``
exits nonzero on a slowdown beyond the threshold, turning the 7–48x
warm-start wins into a guarded property instead of a one-shot artifact.
"""

from __future__ import annotations

import json
import platform
import statistics
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

import numpy as np

from . import obs
from .eps import build_eps_template, eps_spec
from .ilp import BnBOptions, Model, lin_sum
from .ilp.branch_and_bound import solve_milp
from .ilp.scipy_backend import scipy_milp_available, solve_with_scipy
from .ilp.simplex import EqualityForm, solve_lp
from .synthesis import synthesize_ilp_mr

__all__ = [
    "BENCH_SCHEMA",
    "HISTORY_SCHEMA",
    "run_bench",
    "validate_bench_document",
    "PROFILES",
    "history_entry",
    "append_history",
    "read_history",
    "compare_history",
]

BENCH_SCHEMA = "repro.bench/ilp/v1"
HISTORY_SCHEMA = "repro.bench/history/v1"

#: (num_generators, reliability_target) per profile for the ILP-MR rows
#: solved with the from-scratch backend. Small targets multiply learncons
#: iterations; the cold arm re-solves everything from scratch, so sizes are
#: chosen to keep the *cold* baseline tractable.
PROFILES: Dict[str, Dict[str, list]] = {
    "smoke": {
        "ilp_mr_bnb": [(2, 1e-3)],
        "ilp_mr_scipy": [(4, 1e-4)],
        "lp_scaling": [(40, 60)],
        "warm_lp": [2],
        "queue_throughput": [(12, 2)],
        "sharded_sweep": [(24, 2)],
    },
    "full": {
        "ilp_mr_bnb": [(2, 1e-3), (2, 5e-4)],
        "ilp_mr_scipy": [(4, 1e-4), (6, 1e-4)],
        "lp_scaling": [(40, 60), (80, 120), (120, 200)],
        "warm_lp": [2, 4],
        "queue_throughput": [(48, 4)],
        "sharded_sweep": [(200, 8)],
    },
}

_COUNTER_KEYS = (
    "ilp.bnb.nodes",
    "ilp.bnb.lp_iterations",
    "ilp.bnb.warm_lp_solves",
    "ilp.bnb.cold_lp_solves",
    "ilp.simplex.solves",
    "ilp.simplex.warm_starts",
    "ilp.simplex.phase1_skips",
    "ilp.simplex.refactorizations",
    "ilp.simplex.dual_pivots",
)


def _counter_values() -> Dict[str, int]:
    snap = obs.snapshot()
    return {
        k: snap[k]["value"] for k in _COUNTER_KEYS
        if k in snap and snap[k]["kind"] == "counter"
    }


def _counters_since(before: Dict[str, int]) -> Dict[str, int]:
    after = _counter_values()
    return {k: after.get(k, 0) - before.get(k, 0) for k in _COUNTER_KEYS}


def _measure_ilp_mr(gens: int, target: float, backend: str, warm: bool) -> dict:
    spec = eps_spec(
        build_eps_template(num_generators=gens), reliability_target=target
    )
    before = _counter_values()
    start = time.perf_counter()
    result = synthesize_ilp_mr(spec, backend=backend, warm=warm)
    wall = time.perf_counter() - start
    counters = _counters_since(before)
    solves = counters["ilp.bnb.warm_lp_solves"] + counters["ilp.bnb.cold_lp_solves"]
    return {
        "wall_seconds": wall,
        "status": result.status,
        "cost": result.cost,
        "iterations": len(result.iterations),
        "solver_seconds": result.solver_time,
        "analysis_seconds": result.analysis_time,
        "bnb_nodes": counters["ilp.bnb.nodes"],
        "lp_iterations": counters["ilp.bnb.lp_iterations"],
        "warm_lp_solves": counters["ilp.bnb.warm_lp_solves"],
        "cold_lp_solves": counters["ilp.bnb.cold_lp_solves"],
        "phase1_skips": counters["ilp.simplex.phase1_skips"],
        "refactorizations": counters["ilp.simplex.refactorizations"],
        "warm_hit_rate": (
            counters["ilp.bnb.warm_lp_solves"] / solves if solves else 0.0
        ),
    }


def _ilp_mr_row(gens: int, target: float, backend: str) -> dict:
    cold = _measure_ilp_mr(gens, target, backend, warm=False)
    warm = _measure_ilp_mr(gens, target, backend, warm=True)
    return {
        "kind": "ilp_mr",
        "instance": f"eps-g{gens}",
        "num_nodes": 10 * gens,
        "reliability_target": target,
        "backend": backend,
        "cold": cold,
        "warm": warm,
        "speedup": (
            cold["wall_seconds"] / warm["wall_seconds"]
            if warm["wall_seconds"] > 0 else float("inf")
        ),
        "costs_identical": cold["cost"] == warm["cost"],
    }


def _make_cover(n_vars: int, n_rows: int, seed: int) -> Model:
    """Random set-cover-shaped 0-1 ILP (the scaling-sweep workload)."""
    rng = np.random.default_rng(seed)
    m = Model(f"cover{n_vars}x{n_rows}")
    xs = [m.add_binary(f"x{i}") for i in range(n_vars)]
    cost = rng.integers(1, 20, n_vars)
    for _ in range(n_rows):
        picks = rng.choice(n_vars, size=max(2, n_vars // 8), replace=False)
        m.add_constr(lin_sum([xs[i] for i in picks]) >= 2)
    m.minimize(lin_sum([int(c) * x for c, x in zip(cost, xs)]))
    return m


def _lp_scaling_row(n_vars: int, n_rows: int) -> dict:
    form = _make_cover(n_vars, n_rows, seed=n_vars).to_matrix_form()
    start = time.perf_counter()
    bnb = solve_milp(form, BnBOptions())
    bnb_seconds = time.perf_counter() - start
    row = {
        "kind": "lp_scaling",
        "instance": f"cover-{n_vars}x{n_rows}",
        "num_vars": n_vars,
        "num_constrs": n_rows,
        "bnb_seconds": bnb_seconds,
        "bnb_status": bnb.status,
        "bnb_nodes": bnb.stats.nodes,
        "bnb_lp_iterations": bnb.stats.lp_iterations,
        "bnb_objective": bnb.objective,
    }
    if scipy_milp_available():
        start = time.perf_counter()
        ref = solve_with_scipy(form)
        row["scipy_seconds"] = time.perf_counter() - start
        row["scipy_objective"] = ref.objective
        row["objectives_agree"] = abs(bnb.objective - ref.objective) <= 1e-6
    return row


#: Solves per arm of a ``warm_lp`` row; the row reports their median. A
#: warm re-solve takes a few milliseconds, so one timed call is mostly
#: noise. Every repeat is the same deterministic solve.
_WARM_LP_REPEATS = 7


def _warm_lp_row(gens: int) -> dict:
    """Bound-tightening re-solve: the per-node saving inside B&B.

    ``cold_seconds`` and ``warm_seconds`` are medians over
    :data:`_WARM_LP_REPEATS` solves; ``first_solve_seconds`` is the one
    solve of the untightened relaxation that records the warm basis.
    """
    spec = eps_spec(
        build_eps_template(num_generators=gens), reliability_target=1e-4
    )
    form = spec.build_encoder().model.to_matrix_form()
    # Each solve gets its own equality form, built outside the timer: a
    # shared one would hand the repeats of the warm solve the basis
    # factors the first one kept, overstating the per-node saving.
    lp_form = EqualityForm(form.A, form.senses)
    start = time.perf_counter()
    base = solve_lp(
        form.c, lp_form, form.senses, form.b, form.lb, form.ub, want_basis=True
    )
    cold_first = time.perf_counter() - start

    # Tighten one fractional binary to 0 — a typical down-branch.
    lb, ub = form.lb.copy(), form.ub.copy()
    frac = [
        j for j in range(form.num_vars)
        if form.integrality[j] and abs(base.x[j] - round(base.x[j])) > 1e-6
    ]
    j = frac[0] if frac else int(np.argmax(form.integrality))
    ub[j] = 0.0

    def timed(warm_basis):
        times = []
        for _ in range(_WARM_LP_REPEATS):
            lp_form = EqualityForm(form.A, form.senses)
            start = time.perf_counter()
            res = solve_lp(
                form.c, lp_form, form.senses, form.b, lb, ub,
                warm_basis=warm_basis,
            )
            times.append(time.perf_counter() - start)
        return res, statistics.median(times)

    cold, cold_seconds = timed(None)
    warm, warm_seconds = timed(base.basis)
    return {
        "kind": "warm_lp",
        "instance": f"eps-g{gens}-relaxation",
        "num_vars": form.num_vars,
        "num_constrs": form.num_constrs,
        "first_solve_seconds": cold_first,
        "cold_seconds": cold_seconds,
        "cold_iterations": cold.iterations,
        "warm_seconds": warm_seconds,
        "warm_iterations": warm.iterations,
        "warm_dual_pivots": warm.dual_pivots,
        "warm_started": warm.warm_started,
        "objectives_agree": (
            abs(cold.objective - warm.objective)
            <= 1e-6 * max(1.0, abs(cold.objective))
        ),
        "speedup": cold_seconds / warm_seconds if warm_seconds > 0 else float("inf"),
    }


def _queue_throughput_row(n_jobs: int, workers: int) -> dict:
    from .engine import BatchSpec, Job, run_batch

    batch = BatchSpec(f"bench-queue-{n_jobs}", [
        Job(job_id=f"q{i}", kind="noop", payload={"value": i})
        for i in range(n_jobs)
    ])
    start = time.perf_counter()
    outcome = run_batch(batch, jobs=workers, executor="queue")
    wall = time.perf_counter() - start
    return {
        "kind": "queue_throughput",
        "instance": f"noop-{n_jobs}x{workers}",
        "num_jobs": n_jobs,
        "workers": workers,
        "wall_seconds": wall,
        "jobs_per_second": n_jobs / wall if wall > 0 else float("inf"),
        "failed": outcome.num_failed,
    }


def _sweep_problems(n: int):
    """``n`` distinct closed-form reliability problems, all cheap."""
    from .verify.corpus import parallel_case, series_case

    cases = []
    for i in range(n):
        if i % 2 == 0:
            cases.append(series_case(p=0.01 + 3e-4 * i, n=2 + (i // 2) % 4))
        else:
            cases.append(parallel_case(p=0.02 + 3e-4 * i, k=2 + (i // 2) % 3))
    return cases


def _sharded_sweep_row(n_jobs: int, workers: int) -> dict:
    from .engine import BatchSpec, Job, run_batch

    cases = _sweep_problems(n_jobs)

    def make_batch() -> "BatchSpec":
        return BatchSpec(f"bench-sweep-{n_jobs}", [
            Job(job_id=f"s{i}", kind="reliability",
                payload={"problem": case.problem, "method": "bdd"})
            for i, case in enumerate(cases)
        ])

    with tempfile.TemporaryDirectory(prefix="repro-bench-sweep-") as td:
        root = Path(td)
        start = time.perf_counter()
        serial = run_batch(make_batch(), jobs=1,
                           cache_dir=str(root / "serial"))
        serial_wall = time.perf_counter() - start
        start = time.perf_counter()
        # retries=3: with many worker processes time-slicing few cores, a
        # transient OSError can recur within the default budget of 1 and
        # turn a benchmark row into a spurious failure.
        queued = run_batch(make_batch(), jobs=workers, executor="queue",
                           cache_dir=str(root / "queue"), retries=3)
        queue_wall = time.perf_counter() - start
    serial_values = {r.job_id: r.value for r in serial.results if r.ok}
    queued_values = {r.job_id: r.value for r in queued.results if r.ok}
    identical = (
        not serial.num_failed and not queued.num_failed
        and set(serial_values) == set(queued_values)
        and all(queued_values[k].hex() == v.hex()
                for k, v in serial_values.items())
    )
    return {
        "kind": "sharded_sweep",
        "instance": f"bdd-{n_jobs}x{workers}",
        "num_jobs": n_jobs,
        "workers": workers,
        "serial_seconds": serial_wall,
        "queue_seconds": queue_wall,
        "queue_jobs_per_second": (
            n_jobs / queue_wall if queue_wall > 0 else float("inf")
        ),
        "values_identical": identical,
        "failed": serial.num_failed + queued.num_failed,
    }


def run_bench(
    profile: str = "smoke",
    out: Optional[str] = "BENCH_ilp.json",
    backends: Sequence[str] = ("bnb", "scipy"),
    log=print,
) -> dict:
    """Run the suite and (optionally) write the JSON document to ``out``."""
    if profile not in PROFILES:
        raise ValueError(
            f"unknown profile {profile!r}; choose from {sorted(PROFILES)}"
        )
    plan = PROFILES[profile]
    # Counters only tick while a tracer is installed.
    previous_tracer = obs.get_tracer()
    obs.set_tracer(obs.Tracer())
    rows: List[dict] = []
    try:
        if "bnb" in backends:
            for gens, target in plan["ilp_mr_bnb"]:
                log(f"[bench] ilp_mr bnb eps-g{gens} target={target} ...")
                rows.append(_ilp_mr_row(gens, target, "bnb"))
        if "scipy" in backends and scipy_milp_available():
            for gens, target in plan["ilp_mr_scipy"]:
                log(f"[bench] ilp_mr scipy eps-g{gens} target={target} ...")
                rows.append(_ilp_mr_row(gens, target, "scipy"))
        for n_vars, n_rows in plan["lp_scaling"]:
            log(f"[bench] lp_scaling cover-{n_vars}x{n_rows} ...")
            rows.append(_lp_scaling_row(n_vars, n_rows))
        for gens in plan["warm_lp"]:
            log(f"[bench] warm_lp eps-g{gens} ...")
            rows.append(_warm_lp_row(gens))
        for n_jobs, workers in plan.get("queue_throughput", []):
            log(f"[bench] queue_throughput noop-{n_jobs}x{workers} ...")
            rows.append(_queue_throughput_row(n_jobs, workers))
        for n_jobs, workers in plan.get("sharded_sweep", []):
            log(f"[bench] sharded_sweep bdd-{n_jobs}x{workers} ...")
            rows.append(_sharded_sweep_row(n_jobs, workers))
    finally:
        obs.set_tracer(previous_tracer)

    mr_bnb = [r for r in rows if r["kind"] == "ilp_mr" and r["backend"] == "bnb"]
    doc = {
        "schema": BENCH_SCHEMA,
        "profile": profile,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
        },
        "rows": rows,
        "summary": {
            "ilp_mr_min_speedup": (
                min(r["speedup"] for r in mr_bnb) if mr_bnb else None
            ),
            "ilp_mr_max_speedup": (
                max(r["speedup"] for r in mr_bnb) if mr_bnb else None
            ),
            "all_costs_identical": all(
                r["costs_identical"] for r in rows if r["kind"] == "ilp_mr"
            ),
            "all_objectives_agree": all(
                r.get("objectives_agree", True) for r in rows
            ),
            "sweep_values_identical": all(
                r["values_identical"] for r in rows
                if r["kind"] == "sharded_sweep"
            ),
        },
    }
    if out:
        with open(out, "w") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
        log(f"[bench] wrote {out} ({len(rows)} rows)")
    return doc


_ROW_REQUIRED = {
    "ilp_mr": {
        "instance", "backend", "reliability_target", "cold", "warm",
        "speedup", "costs_identical",
    },
    "lp_scaling": {
        "instance", "num_vars", "num_constrs", "bnb_seconds", "bnb_status",
        "bnb_nodes", "bnb_objective",
    },
    "warm_lp": {
        "instance", "cold_seconds", "cold_iterations", "warm_seconds",
        "warm_dual_pivots", "warm_started", "objectives_agree", "speedup",
    },
    "queue_throughput": {
        "instance", "num_jobs", "workers", "wall_seconds",
        "jobs_per_second", "failed",
    },
    "sharded_sweep": {
        "instance", "num_jobs", "workers", "serial_seconds",
        "queue_seconds", "values_identical", "failed",
    },
}

_ARM_REQUIRED = {
    "wall_seconds", "status", "cost", "iterations", "bnb_nodes",
    "lp_iterations", "warm_lp_solves", "cold_lp_solves", "warm_hit_rate",
}


def validate_bench_document(doc: dict) -> List[str]:
    """Schema check for a ``BENCH_ilp.json`` document; returns problems."""
    problems: List[str] = []
    if doc.get("schema") != BENCH_SCHEMA:
        problems.append(f"schema is {doc.get('schema')!r}, want {BENCH_SCHEMA!r}")
    for key in ("profile", "rows", "summary", "environment"):
        if key not in doc:
            problems.append(f"missing top-level key {key!r}")
    rows = doc.get("rows", [])
    if not isinstance(rows, list) or not rows:
        problems.append("rows must be a non-empty list")
        rows = []
    for i, row in enumerate(rows):
        kind = row.get("kind")
        required = _ROW_REQUIRED.get(kind)
        if required is None:
            problems.append(f"rows[{i}]: unknown kind {kind!r}")
            continue
        missing = required - set(row)
        if missing:
            problems.append(f"rows[{i}] ({kind}): missing {sorted(missing)}")
        if kind == "ilp_mr":
            for arm in ("cold", "warm"):
                arm_missing = _ARM_REQUIRED - set(row.get(arm, {}))
                if arm_missing:
                    problems.append(
                        f"rows[{i}].{arm}: missing {sorted(arm_missing)}"
                    )
    summary = doc.get("summary", {})
    for key in ("ilp_mr_min_speedup", "all_costs_identical"):
        if key not in summary:
            problems.append(f"summary: missing {key!r}")
    return problems


# ---------------------------------------------------------------------------
# Regression sentinel: the BENCH_history.jsonl time series


def _entry_metrics(doc: dict) -> Dict[str, float]:
    """Flatten a bench document into scalar time-series metrics.

    Keys are ``kind/instance[/backend]/metric``; an ``ilp_mr`` row's
    instance carries its target (``eps-g2@0.0005``), so two targets on
    one template keep separate series. ``*_seconds`` metrics are
    lower-is-better; ``*/speedup`` is higher-is-better (the comparator
    keys direction off the suffix).
    """
    metrics: Dict[str, float] = {}
    for row in doc.get("rows", []):
        kind = row.get("kind")
        if kind == "ilp_mr":
            base = (f"ilp_mr/{row['instance']}@{row['reliability_target']:g}"
                    f"/{row['backend']}")
            metrics[f"{base}/warm_wall_seconds"] = row["warm"]["wall_seconds"]
            metrics[f"{base}/cold_wall_seconds"] = row["cold"]["wall_seconds"]
            metrics[f"{base}/speedup"] = row["speedup"]
        elif kind == "lp_scaling":
            base = f"lp_scaling/{row['instance']}"
            metrics[f"{base}/bnb_seconds"] = row["bnb_seconds"]
            if "scipy_seconds" in row:
                metrics[f"{base}/scipy_seconds"] = row["scipy_seconds"]
        elif kind == "warm_lp":
            base = f"warm_lp/{row['instance']}"
            metrics[f"{base}/warm_seconds"] = row["warm_seconds"]
            metrics[f"{base}/cold_seconds"] = row["cold_seconds"]
            metrics[f"{base}/speedup"] = row["speedup"]
        elif kind == "queue_throughput":
            base = f"queue_throughput/{row['instance']}"
            metrics[f"{base}/jobs_per_second"] = row["jobs_per_second"]
        elif kind == "sharded_sweep":
            base = f"sharded_sweep/{row['instance']}"
            metrics[f"{base}/serial_seconds"] = row["serial_seconds"]
            metrics[f"{base}/queue_seconds"] = row["queue_seconds"]
            metrics[f"{base}/queue_jobs_per_second"] = (
                row["queue_jobs_per_second"]
            )
    return {k: float(v) for k, v in metrics.items() if v == v}  # drop NaN


def history_entry(doc: dict) -> dict:
    """One compact, appendable time-series record for a bench document."""
    return {
        "schema": HISTORY_SCHEMA,
        "generated_at": doc.get("generated_at"),
        "profile": doc.get("profile"),
        "environment": doc.get("environment", {}),
        "metrics": _entry_metrics(doc),
    }


def append_history(
    doc: dict, path: Union[str, Path] = "BENCH_history.jsonl"
) -> dict:
    """Append ``doc``'s :func:`history_entry` to the JSONL series."""
    entry = history_entry(doc)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a", encoding="utf-8") as fh:
        fh.write(json.dumps(entry, sort_keys=True) + "\n")
    return entry


def read_history(
    path: Union[str, Path], profile: Optional[str] = None
) -> List[dict]:
    """Read the history series (optionally only one profile's entries).

    Unknown schemas and truncated lines are skipped — the sentinel must
    keep working across history format evolution.
    """
    path = Path(path)
    if not path.exists():
        return []
    entries: List[dict] = []
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            entry = json.loads(line)
        except json.JSONDecodeError:
            continue
        if entry.get("schema") != HISTORY_SCHEMA:
            continue
        if profile is not None and entry.get("profile") != profile:
            continue
        entries.append(entry)
    return entries


def _metric_direction(name: str) -> str:
    return (
        "higher" if name.endswith(("speedup", "per_second")) else "lower"
    )


def compare_history(
    doc: dict,
    history: Sequence[dict],
    threshold: float = 0.5,
    min_runs: int = 2,
    mad_factor: float = 4.0,
    min_seconds: float = 0.02,
) -> List[Dict[str, Any]]:
    """Robust-statistic verdicts for ``doc`` against past history entries.

    For each metric the baseline is the **median** of past values and the
    noise scale the **MAD** (median absolute deviation). A lower-is-better
    metric regresses only when the current value clears *both* gates::

        current > median * (1 + threshold)          # relative slowdown
        current > median + mad_factor * MAD         # outside normal noise

    and the absolute excess is at least ``min_seconds`` (micro-benchmarks
    jitter by milliseconds; a 60% slowdown on a 2 ms solve is not a
    finding). ``*/speedup`` metrics mirror the gates downward. Metrics
    with fewer than ``min_runs`` past samples report ``no-history`` and
    never fail the gate.

    Returns one verdict dict per metric: ``metric``, ``current``,
    ``median``, ``mad``, ``runs``, ``ratio`` (current/median) and
    ``status`` in ``{"ok", "regression", "improved", "no-history"}``.
    """
    current = _entry_metrics(doc)
    verdicts: List[Dict[str, Any]] = []
    for name in sorted(current):
        value = current[name]
        past = [
            e["metrics"][name]
            for e in history
            if isinstance(e.get("metrics"), dict) and name in e["metrics"]
        ]
        if len(past) < min_runs:
            verdicts.append({
                "metric": name, "current": value, "median": None,
                "mad": None, "runs": len(past), "ratio": None,
                "status": "no-history",
            })
            continue
        med = statistics.median(past)
        mad = statistics.median(abs(x - med) for x in past)
        ratio = value / med if med else float("inf")
        direction = _metric_direction(name)
        if direction == "lower":
            regressed = (
                value > med * (1.0 + threshold)
                and value > med + mad_factor * mad
                and value - med > min_seconds
            )
            improved = value < med * (1.0 - threshold)
        else:
            regressed = (
                value < med * (1.0 - min(threshold, 0.99))
                and value < med - mad_factor * mad
            )
            improved = value > med * (1.0 + threshold)
        status = "regression" if regressed else (
            "improved" if improved else "ok"
        )
        verdicts.append({
            "metric": name, "current": value, "median": med, "mad": mad,
            "runs": len(past), "ratio": ratio, "status": status,
        })
    return verdicts
