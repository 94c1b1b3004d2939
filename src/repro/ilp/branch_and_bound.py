"""Branch-and-bound solver for mixed-integer linear programs.

This module supplies the optimizer role that CPLEX played in the paper's
ARCHEX prototype. It is a textbook LP-relaxation branch-and-bound:

* each node solves an LP relaxation with the from-scratch bounded simplex
  of :mod:`repro.ilp.simplex`, over one sparse equality form built per
  search;
* every node inherits its parent's optimal basis and re-optimizes with the
  dual simplex — branching only tightens one variable bound, which leaves
  the parent basis dual feasible — so child LPs skip phase 1 entirely
  (``BnBOptions.warm_start``). Both children install the same basis, and
  the search's equality form keeps the factors of the last few bases
  installed, so the second child usually skips the factorization;
* an initial incumbent can be seeded (:func:`solve_milp`'s ``incumbent``)
  so bound pruning is active from node zero — ILP-MR passes the previous
  iteration's optimum when it is still feasible;
* the fractional integer variable with the highest pseudocost score is
  branched on; the first branch on a variable solves both children to
  seed its pseudocosts, and each child keeps that LP result, so opening
  it later costs no second solve;
* node selection is best-bound with depth-first plunging, which finds
  incumbents early while keeping the global dual bound tight.

The solver is exact: on termination without hitting a limit, the incumbent
is optimal within the requested gap. The time and node limits are checked
before every node LP, so a limited search overshoots by at most one node.
A node LP left unresolved (iteration cap or numerical failure) keeps its
subtree open with its inherited bound, and the search ends in ``limit``,
never in ``infeasible`` or ``optimal``.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .. import obs
from .model import MatrixForm
from .search_events import SearchEventEmitter
from .simplex import EqualityForm, LPBasis, LPResult, LPStatus, solve_lp

__all__ = ["BnBOptions", "BnBStats", "solve_milp", "MilpOutcome", "exit_gap"]

_INT_TOL = 1e-6


@dataclass
class BnBOptions:
    """Tuning knobs for the branch-and-bound search."""

    time_limit: Optional[float] = None
    node_limit: Optional[int] = None
    gap: float = 1e-9
    plunge_depth: int = 8  # depth-first plunges between best-bound picks
    #: Warm-start node LPs from the parent's optimal basis via dual simplex.
    #: Off = the original cold two-phase start per node.
    warm_start: bool = True


@dataclass
class BnBStats:
    nodes: int = 0
    lp_iterations: int = 0
    incumbent_updates: int = 0
    wall_time: float = 0.0
    best_bound: float = -math.inf
    #: Node LPs that re-optimized from an inherited basis (phase 1 skipped).
    warm_lp_solves: int = 0
    #: Node LPs that ran the two-phase cold start.
    cold_lp_solves: int = 0
    dual_pivots: int = 0
    #: True when a caller-supplied incumbent passed validation and seeded
    #: the search (pruning active from node zero).
    seeded_incumbent: bool = False
    #: Nodes fathomed by the bound test while the seeded incumbent was
    #: still the best known solution — prunes attributable to the seed.
    seed_pruned_nodes: int = 0


@dataclass
class MilpOutcome:
    status: str  # "optimal", "infeasible", "unbounded", "limit"
    objective: float
    x: Optional[np.ndarray]
    stats: BnBStats = field(default_factory=BnBStats)
    #: Optimal basis of the root LP relaxation — the seed for cross-solve
    #: warm starts after appending constraints.
    root_basis: Optional[LPBasis] = None


@dataclass(order=True)
class _Node:
    bound: float
    tie: int
    depth: int = field(compare=False)
    lb: np.ndarray = field(compare=False, default=None)
    ub: np.ndarray = field(compare=False, default=None)
    basis: Optional[LPBasis] = field(compare=False, default=None)
    #: This node's LP result, when pseudocost seeding has already solved it.
    lp: Optional[LPResult] = field(compare=False, default=None)


class _Pseudocosts:
    """Per-variable average objective degradation per unit of fractionality."""

    def __init__(self, n: int) -> None:
        self.up_sum = np.zeros(n)
        self.up_count = np.zeros(n)
        self.down_sum = np.zeros(n)
        self.down_count = np.zeros(n)

    def update(self, var: int, direction: str, frac: float, degradation: float) -> None:
        rate = degradation / max(frac, 1e-9)
        if direction == "up":
            self.up_sum[var] += rate
            self.up_count[var] += 1
        else:
            self.down_sum[var] += rate
            self.down_count[var] += 1

    def score(self, var: int, frac: float) -> float:
        up = self.up_sum[var] / self.up_count[var] if self.up_count[var] else 1.0
        down = self.down_sum[var] / self.down_count[var] if self.down_count[var] else 1.0
        up_est = up * (1.0 - frac)
        down_est = down * frac
        # Standard product score with small linear stabilizer.
        return max(up_est, 1e-6) * max(down_est, 1e-6) + 1e-3 * (up_est + down_est)


def exit_gap(outcome: MilpOutcome) -> Optional[float]:
    """Relative optimality gap at termination.

    0.0 for a proven optimum, ``(incumbent - best_bound) / |incumbent|``
    when the search stopped on a limit with both sides finite, ``None``
    when no meaningful gap exists (infeasible/unbounded, or no bound).
    """
    if outcome.status == "optimal":
        return 0.0
    if outcome.status != "limit" or not math.isfinite(outcome.objective):
        return None
    bound = outcome.stats.best_bound
    if not math.isfinite(bound):
        return None
    return max(0.0, outcome.objective - bound) / max(1.0, abs(outcome.objective))


def _record_bnb_observations(outcome: MilpOutcome) -> None:
    """BnBStats -> process metrics + attributes on the active span."""
    stats = outcome.stats
    obs.counter("ilp.bnb.solves").inc()
    obs.counter("ilp.bnb.nodes").inc(stats.nodes)
    obs.counter("ilp.bnb.lp_iterations").inc(stats.lp_iterations)
    obs.counter("ilp.bnb.incumbents").inc(stats.incumbent_updates)
    obs.counter("ilp.bnb.warm_lp_solves").inc(stats.warm_lp_solves)
    obs.counter("ilp.bnb.cold_lp_solves").inc(stats.cold_lp_solves)
    if stats.seeded_incumbent:
        obs.counter("ilp.bnb.seeded_incumbents").inc()
        obs.counter("ilp.bnb.seed_pruned_nodes").inc(stats.seed_pruned_nodes)
    obs.histogram("ilp.bnb.seconds").observe(stats.wall_time)
    gap = exit_gap(outcome)
    if gap is not None:
        obs.gauge("ilp.bnb.gap_at_exit").set(gap)
    s = obs.current_span()
    if s is not None:
        s.set_attr("bnb_nodes", stats.nodes)
        s.set_attr("bnb_incumbents", stats.incumbent_updates)
        s.set_attr("bnb_warm_lp_solves", stats.warm_lp_solves)
        if gap is not None:
            s.set_attr("bnb_gap_at_exit", gap)


def solve_milp(
    form: MatrixForm,
    options: Optional[BnBOptions] = None,
    incumbent: Optional[np.ndarray] = None,
    basis: Optional[LPBasis] = None,
) -> MilpOutcome:
    """Minimize ``form.c @ x`` over the mixed-integer feasible set.

    ``incumbent`` optionally seeds the search with a known feasible point
    (e.g. the previous CEGIS iteration's optimum); it is validated against
    the current constraints and silently ignored when infeasible or stale.
    ``basis`` warm-starts the *root* LP from a previous solve of a related
    model (extended over any appended rows via
    :func:`repro.ilp.incremental.extend_basis`); a stale basis simply falls
    back to a cold root solve.
    """
    outcome = _solve_milp_search(form, options, incumbent, basis)
    if obs.enabled():
        _record_bnb_observations(outcome)
    return outcome


def _validate_incumbent(form: MatrixForm, x: np.ndarray) -> Optional[float]:
    """Objective of a seed point, or None when it is not MILP-feasible."""
    if x is None or len(x) != form.num_vars:
        return None
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        return None
    if np.any(x < form.lb - _INT_TOL) or np.any(x > form.ub + _INT_TOL):
        return None
    frac = np.abs(x[form.integrality] - np.round(x[form.integrality]))
    if frac.size and frac.max(initial=0.0) > _INT_TOL:
        return None
    if form.num_constrs:
        lhs = form.A @ x
        scale = 1.0 + np.abs(form.b)
        for i, sense in enumerate(form.senses):
            resid = lhs[i] - form.b[i]
            if sense == "<=" and resid > 1e-7 * scale[i]:
                return None
            if sense == ">=" and resid < -1e-7 * scale[i]:
                return None
            if sense == "==" and abs(resid) > 1e-7 * scale[i]:
                return None
    return float(form.c @ x)


def _solve_milp_search(
    form: MatrixForm,
    options: Optional[BnBOptions] = None,
    incumbent: Optional[np.ndarray] = None,
    basis: Optional[LPBasis] = None,
) -> MilpOutcome:
    opts = options or BnBOptions()
    start = time.perf_counter()
    stats = BnBStats()
    emitter = SearchEventEmitter.for_active_sink()
    pruned_nodes = 0
    n = form.num_vars
    int_mask = form.integrality
    int_idx = np.flatnonzero(int_mask)
    counter = itertools.count()

    # Shared by every node LP, with the basis factors it keeps.
    lp_form = EqualityForm(form.A, form.senses)

    def lp_solve(
        lb: np.ndarray, ub: np.ndarray, basis: Optional[LPBasis] = None
    ) -> LPResult:
        # A warm solve that hits its cap already restarts cold inside
        # solve_lp, so ITERATION_LIMIT here is final for this node.
        res = solve_lp(
            form.c, lp_form, form.senses, form.b, lb, ub,
            warm_basis=basis if opts.warm_start else None,
            want_basis=opts.warm_start,
        )
        if res.warm_started:
            stats.warm_lp_solves += 1
        else:
            stats.cold_lp_solves += 1
        stats.dual_pivots += res.dual_pivots
        stats.lp_iterations += res.iterations
        return res

    root = _Node(bound=-math.inf, tie=next(counter), depth=0,
                 lb=form.lb.copy(), ub=form.ub.copy(), basis=basis)
    heap: List[_Node] = [root]
    incumbent_x: Optional[np.ndarray] = None
    incumbent_obj = math.inf
    if incumbent is not None:
        seed_obj = _validate_incumbent(form, incumbent)
        if seed_obj is not None:
            incumbent_x = _snap(np.asarray(incumbent, dtype=float), int_mask)
            incumbent_obj = seed_obj
            stats.seeded_incumbent = True
            stats.incumbent_updates += 1
    pseudo = _Pseudocosts(n)
    seed_active = stats.seeded_incumbent
    hit_limit = False
    # Bounds of nodes whose LP stayed unresolved: their subtrees are never
    # explored, so the search can end in a limit at best.
    unresolved: List[float] = []
    root_status: Optional[LPStatus] = None
    root_basis: Optional[LPBasis] = None

    while heap:
        node = heapq.heappop(heap)
        if node.bound >= incumbent_obj - opts.gap:
            if seed_active:
                stats.seed_pruned_nodes += 1
            pruned_nodes += 1
            if emitter is not None:
                emitter.emit("prune", reason="bound", depth=node.depth,
                             bound=node.bound, incumbent=incumbent_obj)
            continue  # pruned by bound

        # Depth-first plunge from this node.
        plunge: Optional[_Node] = node
        for _ in range(max(1, opts.plunge_depth)):
            if plunge is None:
                break
            if (opts.node_limit is not None and stats.nodes >= opts.node_limit) or (
                opts.time_limit is not None
                and time.perf_counter() - start > opts.time_limit
            ):
                hit_limit = True
                break
            stats.nodes += 1
            res = plunge.lp  # solved already if pseudocost seeding did
            if res is None:
                res = lp_solve(plunge.lb, plunge.ub, plunge.basis)
            if emitter is not None:
                emitter.emit(
                    "open", node=stats.nodes, depth=plunge.depth,
                    bound=res.objective if res.is_optimal else None,
                )
            if stats.nodes == 1:
                root_status = res.status
                root_basis = res.basis
            if res.status is LPStatus.UNBOUNDED:
                if stats.nodes == 1:
                    if emitter is not None:
                        emitter.close(nodes=stats.nodes, pruned=pruned_nodes,
                                      incumbents=stats.incumbent_updates,
                                      status="unbounded")
                    return MilpOutcome("unbounded", -math.inf, None, stats)
                plunge = None
                continue
            if res.status is LPStatus.ITERATION_LIMIT:
                unresolved.append(plunge.bound)
                pruned_nodes += 1
                if emitter is not None:
                    emitter.emit("prune", reason="unresolved", node=stats.nodes,
                                 depth=plunge.depth, bound=plunge.bound,
                                 incumbent=incumbent_obj)
                plunge = None
                continue
            if not res.is_optimal or res.objective >= incumbent_obj - opts.gap:
                if seed_active and res.is_optimal:
                    stats.seed_pruned_nodes += 1
                pruned_nodes += 1
                if emitter is not None:
                    emitter.emit(
                        "prune",
                        reason="relaxation" if res.is_optimal
                        else "infeasible",
                        node=stats.nodes, depth=plunge.depth,
                        bound=res.objective if res.is_optimal else None,
                        incumbent=incumbent_obj,
                    )
                plunge = None
                continue

            var = _branch_var(res.x, int_idx, pseudo)
            if var is None:
                # Integer-feasible: new incumbent.
                if res.objective < incumbent_obj - opts.gap:
                    incumbent_obj = res.objective
                    incumbent_x = _snap(res.x, int_mask)
                    stats.incumbent_updates += 1
                    seed_active = False
                    if emitter is not None:
                        emitter.emit(
                            "incumbent", node=stats.nodes,
                            depth=plunge.depth, objective=incumbent_obj,
                        )
                plunge = None
                continue

            value = res.x[var]
            frac = value - math.floor(value)
            down = _Node(bound=res.objective, tie=next(counter), depth=plunge.depth + 1,
                         lb=plunge.lb.copy(), ub=plunge.ub.copy(), basis=res.basis)
            down.ub[var] = math.floor(value)
            up = _Node(bound=res.objective, tie=next(counter), depth=plunge.depth + 1,
                       lb=plunge.lb.copy(), ub=plunge.ub.copy(), basis=res.basis)
            up.lb[var] = math.ceil(value)
            if emitter is not None:
                emitter.emit(
                    "branch", node=stats.nodes, depth=plunge.depth,
                    var=var, frac=round(frac, 6), bound=res.objective,
                )
            _record_pseudocost(pseudo, var, frac, res.objective, down, up, lp_solve)

            # Continue the plunge in the more promising child, queue the other.
            if frac <= 0.5:
                heapq.heappush(heap, up)
                plunge = down
            else:
                heapq.heappush(heap, down)
                plunge = up
        if plunge is not None:
            heapq.heappush(heap, plunge)

        # Re-check incumbent-based pruning cheaply between plunges.
        if incumbent_x is not None and heap:
            best = min(heap[0].bound, min(unresolved, default=math.inf))
            stats.best_bound = max(stats.best_bound, best)
            if incumbent_obj - best <= opts.gap * max(1.0, abs(incumbent_obj)):
                hit_limit = False  # the bound closed the gap: proven optimal
                break
        if hit_limit:
            break

    stats.wall_time = time.perf_counter() - start
    if emitter is not None:
        emitter.close(
            nodes=stats.nodes, pruned=pruned_nodes,
            incumbents=stats.incumbent_updates,
            best_bound=stats.best_bound,
            objective=incumbent_obj if incumbent_x is not None else None,
            wall_time=round(stats.wall_time, 9),
        )
    if incumbent_x is None:
        if hit_limit or unresolved:
            return MilpOutcome("limit", math.inf, None, stats, root_basis=root_basis)
        if root_status is LPStatus.UNBOUNDED:
            return MilpOutcome("unbounded", -math.inf, None, stats,
                               root_basis=root_basis)
        return MilpOutcome("infeasible", math.inf, None, stats, root_basis=root_basis)
    status = "limit" if (hit_limit and heap) or unresolved else "optimal"
    return MilpOutcome(status, incumbent_obj, incumbent_x, stats,
                       root_basis=root_basis)


# -- helpers -----------------------------------------------------------------


def _branch_var(
    x: np.ndarray, int_idx: np.ndarray, pseudo: _Pseudocosts
) -> Optional[int]:
    """The fractional integer variable with the highest pseudocost score.

    None when every integer variable is integral within ``_INT_TOL``.
    """
    xi = x[int_idx]
    fractional = int_idx[np.abs(xi - np.round(xi)) > _INT_TOL]
    if not fractional.size:
        return None

    def score(j: int) -> float:
        return pseudo.score(j, x[j] - math.floor(x[j]))

    return int(max(fractional, key=score))


def _snap(x: np.ndarray, int_mask: np.ndarray) -> np.ndarray:
    snapped = x.copy()
    snapped[int_mask] = np.round(snapped[int_mask])
    return snapped


def _record_pseudocost(pseudo, var, frac, parent_obj, down, up, lp_solve) -> None:
    """Cheap pseudocost seeding: note the LP degradation of each child once.

    For a variable never branched on before, both children's LPs are solved
    here to bootstrap its pseudocost scores. Each child keeps its result
    (``_Node.lp``), so opening it later costs no second solve.
    """
    if pseudo.up_count[var] or pseudo.down_count[var]:
        return
    for child, direction, f in ((down, "down", frac), (up, "up", 1.0 - frac)):
        res = child.lp = lp_solve(child.lb, child.ub, child.basis)
        if res.is_optimal:
            pseudo.update(var, direction, f, max(0.0, res.objective - parent_obj))
            child.bound = max(child.bound, res.objective)
        else:
            pseudo.update(var, direction, f, 1e6)
