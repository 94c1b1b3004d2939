"""Cost/reliability design-space exploration.

ARCHEX stands for *architecture exploration*: beyond single-target
synthesis, a designer wants the whole cost-versus-reliability trade-off
curve (the paper's Fig. 3 is three points of it). This module sweeps the
requirement axis, prunes dominated designs, and answers the dual question
— the most reliable architecture under a cost budget — by bisecting the
requirement against the synthesized cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from .algorithms import synthesize
from .result import SynthesisResult
from .spec import SynthesisSpec

__all__ = ["TradeoffPoint", "explore_tradeoff", "pareto_front", "cheapest_under_target",
           "most_reliable_under_budget"]

#: Relative tolerance under which two front points count as the same
#: design, applied to cost and reliability alike.
_DEDUP_REL_TOL = 1e-9


@dataclass
class TradeoffPoint:
    """One synthesized design on the requirement sweep."""

    r_star: float
    result: SynthesisResult

    @property
    def cost(self) -> float:
        return self.result.cost

    @property
    def reliability(self) -> Optional[float]:
        return self.result.reliability

    @property
    def feasible(self) -> bool:
        return self.result.feasible


def explore_tradeoff(
    spec: SynthesisSpec,
    levels: Sequence[float],
    algorithm: str = "ar",
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    telemetry: Optional[str] = None,
    **options,
) -> List[TradeoffPoint]:
    """Synthesize once per requirement level.

    Levels are sorted loose -> tight (descending failure-probability
    target) by :func:`repro.engine.requirement_sweep` before submission,
    regardless of the caller's ordering, and the returned points follow
    that same sorted order.

    Routed through :mod:`repro.engine`: ``jobs`` fans the levels out over
    a process pool, ``cache_dir`` enables the persistent reliability
    cache, ``telemetry`` appends the batch's JSONL event stream. The
    defaults reproduce the original serial in-process behaviour exactly.

    Infeasible levels are kept in the output (with their infeasible
    results) so callers can see where the template's redundancy runs out.
    """
    # Imported lazily: repro.engine itself imports from repro.synthesis.
    from ..engine import requirement_sweep, run_batch, tradeoff_points

    batch = requirement_sweep(spec, levels, algorithm=algorithm, **options)
    outcome = run_batch(
        batch, jobs=jobs, cache_dir=cache_dir, telemetry=telemetry
    )
    return tradeoff_points(outcome.results)


def pareto_front(points: Sequence[TradeoffPoint]) -> List[TradeoffPoint]:
    """Non-dominated (cost, exact reliability) designs, cheapest first.

    A point dominates another when it is no more expensive *and* no less
    reliable (strictly better in at least one). Points without an exact
    reliability (unverified or infeasible) are excluded.
    """
    candidates = [
        p for p in points if p.feasible and p.reliability is not None
    ]
    front: List[TradeoffPoint] = []
    for p in candidates:
        dominated = any(
            (q.cost <= p.cost and q.reliability <= p.reliability)
            and (q.cost < p.cost or q.reliability < p.reliability)
            for q in candidates
            if q is not p
        )
        if not dominated:
            front.append(p)
    front.sort(key=lambda p: (p.cost, p.reliability))
    # Collapse duplicates (same cost and reliability, both compared at the
    # same relative tolerance so near-identical designs coalesce
    # symmetrically in either coordinate).
    deduped: List[TradeoffPoint] = []
    for p in front:
        if deduped and math.isclose(
            deduped[-1].cost, p.cost, rel_tol=_DEDUP_REL_TOL
        ) and math.isclose(
            deduped[-1].reliability, p.reliability, rel_tol=_DEDUP_REL_TOL
        ):
            continue
        deduped.append(p)
    return deduped


def cheapest_under_target(
    points: Sequence[TradeoffPoint], r_star: float
) -> Optional[TradeoffPoint]:
    """Cheapest explored design whose *exact* reliability meets ``r_star``."""
    eligible = [
        p for p in points
        if p.feasible and p.reliability is not None and p.reliability <= r_star
    ]
    return min(eligible, key=lambda p: p.cost) if eligible else None


def most_reliable_under_budget(
    spec: SynthesisSpec,
    budget: float,
    algorithm: str = "ar",
    r_bounds: Tuple[float, float] = (1e-14, 1e-1),
    iterations: int = 20,
    **options,
) -> Optional[TradeoffPoint]:
    """Most reliable design with cost <= ``budget`` (bisection on ``r*``).

    Cost is monotone non-increasing in the requirement ``r*``, so bisecting
    ``log r*`` finds the tightest affordable requirement. Returns None when
    even the loosest requirement exceeds the budget.
    """
    lo, hi = (math.log10(r_bounds[0]), math.log10(r_bounds[1]))

    def attempt(log_r: float) -> TradeoffPoint:
        level_spec = SynthesisSpec(
            template=spec.template,
            requirements=list(spec.requirements),
            reliability_target=10.0**log_r,
            sinks_of_interest=spec.sinks_of_interest,
        )
        result = synthesize(level_spec, algorithm, **options)
        return TradeoffPoint(r_star=10.0**log_r, result=result)

    best: Optional[TradeoffPoint] = None
    loosest = attempt(hi)
    if not loosest.feasible or loosest.cost > budget:
        return None
    best = loosest

    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        point = attempt(mid)
        if point.feasible and point.cost <= budget:
            best = point
            hi = mid  # afford a tighter requirement
        else:
            lo = mid
        if hi - lo < 0.05:
            break
    return best
