"""ILP substrate: modeling API and exact MILP solvers.

This package stands in for the YALMIP + CPLEX stack used by the paper's
ARCHEX prototype. It provides:

* an algebraic modeling layer (:class:`Model`, :class:`Var`,
  :class:`LinExpr`, :class:`Constraint`);
* linearization helpers for the Boolean operations appearing in the paper's
  constraint formulations (:mod:`repro.ilp.logic`);
* two exact MILP backends — a from-scratch bounded-variable simplex with
  pseudocost branch-and-bound, and scipy's HiGHS.
"""

from .branch_and_bound import BnBOptions, BnBStats, solve_milp
from .constraint import Constraint
from .expr import LinExpr, Var, as_expr, lin_sum
from .logic import (
    and_,
    at_least,
    at_most,
    count_indicators,
    exactly,
    iff,
    implies,
    not_,
    or_,
)
from .incremental import WarmStartContext, extend_basis
from .model import MatrixForm, Model
from .search_events import (
    SearchEventEmitter,
    capture_search_events,
    search_sink,
    set_search_sink,
)
from .simplex import LPBasis, LPResult, LPStatus, bland_cutover, solve_lp
from .solver import AutoTuning, SolveResult, Status, solve

__all__ = [
    "Model",
    "MatrixForm",
    "Var",
    "LinExpr",
    "Constraint",
    "as_expr",
    "lin_sum",
    "or_",
    "and_",
    "not_",
    "implies",
    "iff",
    "at_least",
    "at_most",
    "exactly",
    "count_indicators",
    "solve",
    "solve_lp",
    "solve_milp",
    "SolveResult",
    "Status",
    "LPResult",
    "LPStatus",
    "LPBasis",
    "BnBOptions",
    "BnBStats",
    "WarmStartContext",
    "extend_basis",
    "AutoTuning",
    "bland_cutover",
    "SearchEventEmitter",
    "capture_search_events",
    "search_sink",
    "set_search_sink",
]
