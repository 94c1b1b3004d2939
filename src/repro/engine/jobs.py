"""Declarative batch descriptions for the exploration engine.

A :class:`Job` is one picklable unit of work — a synthesis run, an exact
reliability query, a Monte-Carlo estimate, or a budget bisection — and a
:class:`BatchSpec` is an ordered set of them. Builders cover the sweeps
the paper's evaluation is made of:

* :func:`requirement_sweep` — one synthesis per requirement level
  (Fig. 3 / the ``tradeoff`` command);
* :func:`scaling_sweep` — one synthesis per template size (Table II/III /
  the ``scaling`` command);
* :func:`contingency_sweep` — re-synthesize with each listed component
  knocked out (N-1 style design studies);
* :func:`reliability_map` — exact or Monte-Carlo analysis per sink of a
  fixed architecture;
* :func:`budget_bisection` — the dual question (most reliable design
  under each cost budget) as one bisection job per budget.

Builders only *describe* work; :func:`repro.engine.run_batch` executes it,
serially, across a process pool, or through the file work queue.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from ..synthesis.pareto import TradeoffPoint
from ..synthesis.spec import ForbidEdge, SynthesisSpec

__all__ = [
    "Job",
    "JobResult",
    "BatchSpec",
    "requirement_sweep",
    "scaling_sweep",
    "contingency_sweep",
    "reliability_map",
    "budget_bisection",
    "tradeoff_points",
]

#: Algorithms a synthesis job accepts (mirrors the CLI's ``--algorithm``).
SYNTHESIS_ALGORITHMS = ("ar", "mr", "mr-lazy", "tse")


@dataclass
class Job:
    """One picklable unit of work.

    ``kind`` selects the runner (see :mod:`repro.engine.executor`);
    ``payload`` is everything the runner needs, and must pickle cleanly
    so the job can cross a process boundary; ``meta`` is free-form
    caller context echoed back on the result (sweep coordinates, labels).
    """

    job_id: str
    kind: str
    payload: Dict[str, Any]
    meta: Dict[str, Any] = field(default_factory=dict)


@dataclass
class JobResult:
    """Outcome of one job, streamed back as the batch executes."""

    job_id: str
    ok: bool
    value: Any = None
    error: Optional[str] = None
    error_type: Optional[str] = None
    attempts: int = 1
    wall_time: float = 0.0
    worker_pid: Optional[int] = None
    cache_hits: int = 0
    cache_misses: int = 0
    meta: Dict[str, Any] = field(default_factory=dict)

    def unwrap(self) -> Any:
        """The job's value, re-raising its recorded failure if it has one."""
        if self.ok:
            return self.value
        raise RuntimeError(
            f"job {self.job_id!r} failed after {self.attempts} attempt(s): "
            f"{self.error_type}: {self.error}"
        )


@dataclass
class BatchSpec:
    """An ordered, named set of jobs submitted as one unit."""

    name: str
    jobs: List[Job] = field(default_factory=list)
    meta: Dict[str, Any] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.jobs)

    def job_ids(self) -> List[str]:
        return [job.job_id for job in self.jobs]


def _check_algorithm(algorithm: str) -> str:
    if algorithm not in SYNTHESIS_ALGORITHMS:
        raise ValueError(
            f"unknown algorithm {algorithm!r} (use one of {SYNTHESIS_ALGORITHMS})"
        )
    return algorithm


def _level_spec(spec: SynthesisSpec, r_star: Optional[float]) -> SynthesisSpec:
    return SynthesisSpec(
        template=spec.template,
        requirements=list(spec.requirements),
        reliability_target=r_star,
        sinks_of_interest=spec.sinks_of_interest,
    )


def requirement_sweep(
    spec: SynthesisSpec,
    levels: Sequence[float],
    algorithm: str = "ar",
    name: str = "requirement-sweep",
    **options: Any,
) -> BatchSpec:
    """One synthesis job per requirement level, loose -> tight.

    ``options`` (``backend``, ``mip_rel_gap``, ``strategy``,
    ``rel_method``, ...) are forwarded verbatim to the synthesis call so
    sweep jobs use exactly the solver configuration a single
    ``synthesize`` run would.
    """
    _check_algorithm(algorithm)
    jobs = [
        Job(
            job_id=f"r_star={r_star:.6g}",
            kind="synthesize",
            payload={
                "spec": _level_spec(spec, r_star),
                "algorithm": algorithm,
                "options": dict(options),
            },
            meta={"r_star": r_star},
        )
        for r_star in sorted(levels, reverse=True)
    ]
    return BatchSpec(name=name, jobs=jobs, meta={"algorithm": algorithm})


def scaling_sweep(
    labeled_specs: Sequence[tuple],
    algorithm: str = "mr",
    name: str = "scaling-sweep",
    **options: Any,
) -> BatchSpec:
    """One synthesis job per ``(label, spec)`` pair (Table II style)."""
    _check_algorithm(algorithm)
    jobs = [
        Job(
            job_id=f"size={label}",
            kind="synthesize",
            payload={
                "spec": spec,
                "algorithm": algorithm,
                "options": dict(options),
            },
            meta={"label": label},
        )
        for label, spec in labeled_specs
    ]
    return BatchSpec(name=name, jobs=jobs, meta={"algorithm": algorithm})


def contingency_sweep(
    spec: SynthesisSpec,
    outages: Sequence[str],
    algorithm: str = "mr",
    name: str = "contingency-sweep",
    include_baseline: bool = True,
    **options: Any,
) -> BatchSpec:
    """Re-synthesize with each listed component unavailable.

    Knocking a component out is expressed declaratively: every template
    edge incident to it is forbidden, so the optimizer must route around
    the outage (or report infeasibility — itself the interesting answer).
    """
    _check_algorithm(algorithm)
    template = spec.template
    jobs: List[Job] = []
    if include_baseline:
        jobs.append(
            Job(
                job_id="outage=none",
                kind="synthesize",
                payload={
                    "spec": _level_spec(spec, spec.reliability_target),
                    "algorithm": algorithm,
                    "options": dict(options),
                },
                meta={"outage": None},
            )
        )
    for outage in outages:
        idx = template.index_of(outage)
        forbidden = [
            ForbidEdge(template.name_of(i), template.name_of(j))
            for (i, j) in template.allowed_edges
            if idx in (i, j)
        ]
        out_spec = SynthesisSpec(
            template=template,
            requirements=list(spec.requirements) + forbidden,
            reliability_target=spec.reliability_target,
            sinks_of_interest=spec.sinks_of_interest,
        )
        jobs.append(
            Job(
                job_id=f"outage={outage}",
                kind="synthesize",
                payload={
                    "spec": out_spec,
                    "algorithm": algorithm,
                    "options": dict(options),
                },
                meta={"outage": outage},
            )
        )
    return BatchSpec(name=name, jobs=jobs, meta={"algorithm": algorithm})


def reliability_map(
    architecture,
    sinks: Optional[Sequence[str]] = None,
    method: str = "bdd",
    samples: int = 100_000,
    seed: int = 0,
    name: str = "reliability-map",
) -> BatchSpec:
    """One reliability query per sink of a fixed architecture.

    ``method="mc"`` uses the Monte-Carlo sampler; each sink's job carries
    its own derived seed (``seed + job index``) so parallel workers draw
    independent, reproducible streams.
    """
    names = list(sinks) if sinks is not None else architecture.sink_names()
    jobs = []
    for i, sink in enumerate(names):
        payload: Dict[str, Any] = {
            "architecture": architecture,
            "sink": sink,
            "method": method,
        }
        if method == "mc":
            payload["samples"] = samples
            payload["seed"] = seed + i
        jobs.append(
            Job(
                job_id=f"sink={sink}",
                kind="reliability",
                payload=payload,
                meta={"sink": sink, "method": method},
            )
        )
    return BatchSpec(name=name, jobs=jobs, meta={"method": method})


def budget_bisection(
    spec: SynthesisSpec,
    budgets: Sequence[float],
    algorithm: str = "ar",
    name: str = "budget-bisection",
    **options: Any,
) -> BatchSpec:
    """One ``most_reliable_under_budget`` bisection per cost budget."""
    _check_algorithm(algorithm)
    jobs = [
        Job(
            job_id=f"budget={budget:.6g}",
            kind="budget",
            payload={
                "spec": _level_spec(spec, None),
                "budget": budget,
                "algorithm": algorithm,
                "options": dict(options),
            },
            meta={"budget": budget},
        )
        for budget in budgets
    ]
    return BatchSpec(name=name, jobs=jobs, meta={"algorithm": algorithm})


def tradeoff_points(results: Sequence[JobResult]) -> List[TradeoffPoint]:
    """Convert a requirement-sweep batch back into sorted tradeoff points.

    Results are ordered loose -> tight exactly like the serial
    :func:`repro.synthesis.explore_tradeoff`; a failed job re-raises its
    recorded error so batch and serial call sites fail identically.
    """
    points = [
        TradeoffPoint(r_star=res.meta["r_star"], result=res.unwrap())
        for res in results
    ]
    points.sort(key=lambda p: p.r_star, reverse=True)
    return points
