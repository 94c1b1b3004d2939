"""ILP Modulo Reliability — Algorithm 1 of the paper.

The lazy loop: solve the ILP for interconnection constraints only, run the
*exact* reliability analysis on the candidate (RELANALYSIS), and when the
requirement is missed, learn interconnection constraints (Algorithm 2 /
:mod:`repro.synthesis.learncons`) that force redundancy, then re-solve.
Reliability analysis runs only a handful of times, on concrete graphs —
never symbolically over the whole configuration space. When LEARNCONS
can add no row, the loop stops ``infeasible`` only if the architecture
with every allowed edge misses the requirement too; otherwise it asks
for one allowed edge the candidate lacks.
"""

from __future__ import annotations

import time
from typing import Optional

from .. import obs
from ..arch import Architecture
from ..ilp import BnBOptions, WarmStartContext, lin_sum
from ..reliability import worst_case_failure
from .learncons import learn_constraints
from .result import IterationRecord, SynthesisResult
from .spec import SynthesisSpec

__all__ = ["synthesize_ilp_mr"]


def synthesize_ilp_mr(
    spec: SynthesisSpec,
    strategy: str = "learncons",
    backend: str = "auto",
    rel_method: str = "bdd",
    max_iterations: int = 60,
    time_limit: Optional[float] = None,
    mip_rel_gap: Optional[float] = None,
    warm: bool = True,
) -> SynthesisResult:
    """Run ILP-MR on a synthesis spec.

    Parameters
    ----------
    strategy:
        ``"learncons"`` — Algorithm 2 with ESTPATH inference (Table II top);
        ``"lazy"`` — the one-path-per-iteration baseline (Table II bottom).
    backend:
        MILP backend for SOLVEILP (see :func:`repro.ilp.solve`).
    rel_method:
        Exact engine for RELANALYSIS (see :mod:`repro.reliability.exact`).
    mip_rel_gap:
        Optional relative MIP gap passed to the solver; the learned-path
        models are highly symmetric (interchangeable buses/rectifiers), so a
        small gap (e.g. 1e-3) speeds large instances up considerably at a
        bounded cost-optimality loss.
    warm:
        Reuse work across iterations (default on): the encoded model is
        exported incrementally as LEARNCONS appends rows, and with the
        from-scratch backend each SOLVEILP re-optimizes from the previous
        iteration's optimal basis (dual simplex) with the previous
        candidate offered as incumbent. ``False`` restores the original
        re-encode-and-cold-start-everything behavior — the cold baseline in
        ``BENCH_ilp.json``.
    """
    if spec.reliability_target is None:
        raise ValueError("ILP-MR needs spec.reliability_target (r*)")
    r_star = spec.reliability_target
    ctx: Optional[WarmStartContext] = WarmStartContext() if warm else None
    # warm=False is the measured cold baseline: node-level basis inheritance
    # inside branch-and-bound is switched off too, restoring the original
    # two-phase cold start at every node.
    bnb_options = None if warm else BnBOptions(warm_start=False)

    live = obs.run_registry().start(
        "ilp_mr", strategy=strategy, backend=backend, target=r_star,
        iteration=0,
    )
    result = None
    try:
        with obs.log_context(run=live.run_id):
            result = _synthesize_ilp_mr(
                spec, strategy, backend, rel_method, max_iterations,
                time_limit, mip_rel_gap, r_star, ctx, bnb_options, live,
            )
            return result
    finally:
        live.finish(
            status=result.status if result is not None else "error",
            cost=None if result is None or result.architecture is None
            else result.cost,
        )


def _synthesize_ilp_mr(
    spec: SynthesisSpec,
    strategy: str,
    backend: str,
    rel_method: str,
    max_iterations: int,
    time_limit: Optional[float],
    mip_rel_gap: Optional[float],
    r_star: float,
    ctx: Optional[WarmStartContext],
    bnb_options: Optional[BnBOptions],
    live: "obs.RunHandle",
) -> SynthesisResult:
    warm = ctx is not None
    with obs.span(
        "ilp_mr", strategy=strategy, backend=backend, rel_method=rel_method,
        warm=warm,
    ) as run_span:
        with obs.span("ilp_mr.setup"):
            setup_start = time.perf_counter()
            enc = spec.build_encoder()
            setup_time = time.perf_counter() - setup_start

        result = SynthesisResult(
            status="limit",
            architecture=None,
            cost=float("inf"),
            reliability=None,
            algorithm=f"ILP-MR[{strategy}]",
            setup_time=setup_time,
        )

        r_all_edges: Optional[float] = None
        for iteration in range(1, max_iterations + 1):
            with obs.span("ilp_mr.iteration", index=iteration) as it_span:
                with obs.span("ilp_mr.solve"):
                    solve_start = time.perf_counter()
                    solved = enc.solve(
                        backend=backend, time_limit=time_limit,
                        mip_rel_gap=mip_rel_gap, warm=ctx,
                        options=bnb_options,
                    )
                    solver_time = time.perf_counter() - solve_start
                result.solver_time += solver_time

                if not solved.is_optimal:
                    result.status = (
                        "infeasible" if solved.status == "infeasible"
                        else solved.status
                    )
                    result.model_stats = enc.model.stats()
                    it_span.set_attr("status", result.status)
                    run_span.set_attr("iterations", iteration)
                    return result

                arch = enc.decode(solved)
                with obs.span("ilp_mr.analysis"):
                    analysis_start = time.perf_counter()
                    r, worst_sink = worst_case_failure(
                        arch, spec.sinks(), method=rel_method
                    )
                    analysis_time = time.perf_counter() - analysis_start
                result.analysis_time += analysis_time

                record = IterationRecord(
                    index=iteration,
                    architecture=arch,
                    cost=arch.cost(),
                    reliability=r,
                    worst_sink=worst_sink,
                    solver_time=solver_time,
                    analysis_time=analysis_time,
                )
                result.iterations.append(record)
                it_span.set_attr("cost", record.cost)
                it_span.set_attr("reliability", r)
                it_span.set_attr("worst_sink", worst_sink)
                live.update(
                    iteration=iteration, cost=record.cost, reliability=r,
                    worst_sink=worst_sink,
                )
                obs.log(
                    "ilp_mr.iteration", iteration=iteration, cost=record.cost,
                    reliability=r, worst_sink=worst_sink,
                    solver_time=round(solver_time, 6),
                    analysis_time=round(analysis_time, 6),
                )

                if r <= r_star:
                    result.status = "optimal"
                    result.architecture = arch
                    result.cost = arch.cost()
                    result.reliability = r
                    result.model_stats = enc.model.stats()
                    run_span.set_attr("iterations", iteration)
                    run_span.set_attr("status", "optimal")
                    run_span.set_attr("cost", result.cost)
                    return result

                with obs.span("ilp_mr.learncons"):
                    outcome = learn_constraints(
                        enc, spec, arch, r, r_star, strategy=strategy
                    )
                record.learned_constraints = outcome.added_constraints
                record.estimated_k = outcome.estimated_k
                it_span.set_attr(
                    "learned_constraints", outcome.added_constraints
                )
                it_span.set_attr("estimated_k", outcome.estimated_k)
                if outcome.saturated:
                    # ADDPATH counts components, so once all are connected
                    # it asks for nothing, though an edge may add a path.
                    # Failure never rises when an edge is added: if every
                    # allowed edge misses r*, so does every architecture;
                    # else so does every subset of this candidate's edges.
                    if r_all_edges is None:
                        template = spec.template
                        r_all_edges, _ = worst_case_failure(
                            Architecture(template, template.allowed_edges),
                            spec.sinks(), method=rel_method,
                        )
                    if r_all_edges > r_star:
                        result.status = "infeasible"
                        result.model_stats = enc.model.stats()
                        run_span.set_attr("iterations", iteration)
                        run_span.set_attr("status", "infeasible")
                        return result
                    missing = (
                        v for e, v in enc.edge.items() if e not in arch.edges
                    )
                    enc.model.add_constr(lin_sum(missing) >= 1,
                                         tag="learned.edge")
                    record.learned_constraints = 1
                    it_span.set_attr("learned_constraints", 1)

        result.model_stats = enc.model.stats()
        run_span.set_attr("iterations", max_iterations)
        run_span.set_attr("status", result.status)
        return result
