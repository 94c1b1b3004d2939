"""Solver front-end: dispatch a model to a MILP backend and wrap the result.

Backends
--------
``"bnb"``
    The from-scratch branch-and-bound of :mod:`repro.ilp.branch_and_bound`
    over the from-scratch simplex. No third-party optimizer involved.
``"scipy"``
    scipy's bundled HiGHS MILP (closest available stand-in for the paper's
    CPLEX).
``"auto"``
    HiGHS when available and the model has more than
    :data:`AUTO_SCIPY_VARS` variables or :data:`AUTO_SCIPY_CONSTRS`
    constraints; otherwise branch-and-bound.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import Dict, Optional

import numpy as np

from .. import obs
from .branch_and_bound import BnBOptions, BnBStats, MilpOutcome, solve_milp
from .expr import LinExpr, Var
from .incremental import WarmStartContext
from .model import Model
from .scipy_backend import scipy_milp_available, solve_with_scipy

__all__ = ["SolveResult", "Status", "solve"]

#: Dispatch thresholds of the ``"auto"`` backend: HiGHS when the model
#: exceeds *either* one and scipy is importable, else the from-scratch
#: branch-and-bound. Calibrated from the ``BENCH_ilp.json`` scaling sweep
#: after the warm-start work: with basis inheritance the from-scratch
#: solver beats HiGHS up to roughly 80 binaries / 150 rows on the
#: set-cover-shaped models this project produces, and falls behind
#: quickly after.
AUTO_SCIPY_VARS = 80
AUTO_SCIPY_CONSTRS = 200


class Status:
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    LIMIT = "limit"


@dataclass
class SolveResult:
    """Outcome of a model solve.

    ``objective`` is reported in the model's own sense (flipped back for
    maximization). ``values`` maps every model variable to its value; integer
    variables are snapped to exact integers.
    """

    status: str
    objective: float
    values: Dict[Var, float] = field(default_factory=dict)
    backend: str = ""
    wall_time: float = 0.0
    stats: BnBStats = field(default_factory=BnBStats)

    @property
    def is_optimal(self) -> bool:
        return self.status == Status.OPTIMAL

    def __getitem__(self, key) -> float:
        if isinstance(key, Var):
            return self.values[key]
        if isinstance(key, LinExpr):
            return key.value(self.values)
        raise KeyError(key)

    def value(self, expr) -> float:
        """Evaluate a variable or expression under this solution."""
        return self[expr]


def solve(
    model: Model,
    backend: str = "auto",
    time_limit: Optional[float] = None,
    mip_rel_gap: Optional[float] = None,
    options: Optional[BnBOptions] = None,
    warm: Optional[WarmStartContext] = None,
) -> SolveResult:
    """Solve ``model`` and return a :class:`SolveResult`.

    ``time_limit`` and ``mip_rel_gap`` override the matching fields of
    ``options`` for this call only; the caller's object is not modified.

    ``warm`` carries state across repeated solves of a growing model
    (ILP-MR's loop): the export is incremental, and with the ``bnb``
    backend the root LP re-optimizes from the previous optimal basis and
    the previous optimum seeds the incumbent. Scipy/HiGHS has no warm
    interface, so there the context only accelerates the export.
    """
    start = time.perf_counter()
    form = warm.refresh(model) if warm is not None else model.to_matrix_form()

    if form.num_vars == 0:
        # Degenerate model: every row's lhs is the constant 0.
        feasible = all(
            (0.0 <= rhs + 1e-9 if sense == "<=" else
             0.0 >= rhs - 1e-9 if sense == ">=" else abs(rhs) <= 1e-9)
            for sense, rhs in zip(form.senses, form.b)
        )
        outcome = MilpOutcome(
            "optimal" if feasible else "infeasible",
            0.0 if feasible else math.inf,
            np.zeros(0) if feasible else None,
        )
        return _wrap(model, form, outcome, "const", time.perf_counter() - start)

    chosen = backend
    if backend == "auto":
        big = (form.num_vars > AUTO_SCIPY_VARS
               or form.num_constrs > AUTO_SCIPY_CONSTRS)
        chosen = "scipy" if big and scipy_milp_available() else "bnb"

    if chosen == "bnb":
        opts = replace(options or BnBOptions())
        if time_limit is not None:
            opts.time_limit = time_limit
        if mip_rel_gap is not None:
            opts.gap = mip_rel_gap
    elif chosen != "scipy":
        raise ValueError(f"unknown backend {backend!r}")

    with obs.span(
        "ilp.solve",
        backend=chosen,
        variables=form.num_vars,
        constraints=form.num_constrs,
    ) as s:
        if chosen == "scipy":
            outcome = solve_with_scipy(
                form, time_limit=time_limit, mip_rel_gap=mip_rel_gap
            )
        elif warm is not None:
            outcome = solve_milp(
                form, opts, incumbent=warm.incumbent, basis=warm.basis
            )
            warm.absorb(outcome)
        else:
            outcome = solve_milp(form, opts)
        s.set_attr("status", outcome.status)

    wall = time.perf_counter() - start
    return _wrap(model, form, outcome, chosen, wall)


def _wrap(model: Model, form, outcome: MilpOutcome, backend: str, wall: float) -> SolveResult:
    values: Dict[Var, float] = {}
    objective = outcome.objective
    if outcome.x is not None:
        x = np.asarray(outcome.x, dtype=float)
        for var in form.variables:
            val = float(x[var.index])
            if var.is_integer:
                val = float(round(val))
            values[var] = val
        objective = model.objective.value(values)
    elif math.isfinite(objective) and model.sense == "max":
        objective = -objective
    return SolveResult(
        status=outcome.status,
        objective=objective,
        values=values,
        backend=backend,
        wall_time=wall,
        stats=outcome.stats,
    )
