"""Bounded-variable revised simplex over a sparse, factorized basis.

This is the from-scratch LP engine that backs the branch-and-bound MILP
solver in :mod:`repro.ilp.branch_and_bound` (the role CPLEX's LP relaxation
played in the paper's experiments). It implements the revised primal simplex
method with explicit variable bounds, a two-phase cold start, and — the
pieces that make CEGIS-style re-solving cheap — a *warm* start path:

* the constraint matrix stays sparse from :attr:`MatrixForm.A` down to the
  basis: ``[A | slack | artificial]`` is one CSC matrix (:class:`EqualityForm`,
  built once per branch-and-bound search), its transpose is a CSR view of
  the same arrays, so pricing a row (reduced costs, the dual pivot row) is
  one sparse product and an entering column is scattered straight from the
  CSC arrays. Once the artificials are pinned at zero (a warm start, or
  phase 2) they can never enter, so pricing reads only the structural and
  slack rows of the transpose;
* the basis columns are LU-factorized with SuperLU
  (``scipy.sparse.linalg.splu``) and maintained across pivots with
  product-form *eta* updates; every solve of ``B x = b`` (FTRAN) or
  ``B^T y = c`` (BTRAN) runs against the factors. The factorization is
  rebuilt every ``_REFACTOR_EVERY`` pivots to bound eta-file growth and
  drift. The form keeps the factors of the last ``_FACTOR_CACHE_SIZE``
  warm-installed bases, so the second child of a branching usually
  installs its parent's basis without a second ``splu``. No dense BLAS
  runs on the pivot path, so the pivot sequence does not depend on the
  BLAS thread count;
* :func:`solve_lp` accepts a starting :class:`LPBasis` and re-optimizes from
  it with a bounded-variable **dual simplex** — the textbook move after
  tightening bounds (branch-and-bound children) or appending rows (learned
  interconnection constraints), both of which leave the parent basis dual
  feasible. Warm solves skip phase 1 entirely. The dual updates its
  reduced costs from the pivot row it already holds and recomputes them
  only after a refactorization, so a dual pivot prices one row, not two;
* nonbasic variables rest at a finite bound; the ratio test supports the
  *bound flip* move required for bounded variables;
* the per-column pricing state is kept, not rebuilt per call: the basis
  as an integer array, a signed direction per column (+1 at the lower
  bound, -1 at the upper bound, 0 for basic, fixed and free columns), a
  mask of the nonbasic free columns and the bounds of the basic columns
  by basis position. It is built when a solve starts and when phase 1
  pins the artificials; each pivot (and each primal bound flip) updates
  the entries of the two columns it moves. Pricing, both ratio tests and
  the feasibility checks read it directly;
* Dantzig pricing with an automatic switch to Bland's rule — scaled with
  problem size, see :func:`bland_cutover` — to guarantee termination on
  degenerate instances.

Every fallback is graceful: a stale/singular/dual-infeasible warm basis
degrades to the cold two-phase start, and a numerical failure the cold
start cannot get past is reported as ``ITERATION_LIMIT``, never as an
infeasibility.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .. import obs

__all__ = [
    "LPStatus", "LPResult", "LPBasis", "EqualityForm", "NO_SLACK", "solve_lp",
    "bland_cutover",
]

_TOL = 1e-9
_FEAS_TOL = 1e-7
_PIVOT_TOL = 1e-8
_SINGULAR_TOL = 1e-11
_BLAND_BASE = 2000
_BLAND_FACTOR = 10
_MAX_ITER_FACTOR = 200
_REFACTOR_EVERY = 64
#: Warm-installed bases whose SuperLU factors an :class:`EqualityForm`
#: keeps, oldest out first. Kept factors stay resident while the form
#: lives, and more entries add memory faster than they add reuse.
_FACTOR_CACHE_SIZE = 2

#: Sentinel in :attr:`LPBasis.row_status` for rows without a slack column
#: (equality rows) or rows whose basis information is unusable.
NO_SLACK = -1


def bland_cutover(m: int, n: int) -> int:
    """Iteration count after which pricing switches to Bland's rule.

    The cutover scales with problem size: an absolute threshold flips large
    models into (slow, but cycle-proof) Bland pricing almost immediately,
    long before degeneracy is a realistic risk.
    """
    return max(_BLAND_BASE, _BLAND_FACTOR * (m + n))


class LPStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ITERATION_LIMIT = "iteration_limit"


# Internal nonbasic status markers (also the LPBasis encoding).
_AT_LOWER = 0
_AT_UPPER = 1
_BASIC = 2


@dataclass
class LPBasis:
    """Layout-independent snapshot of an optimal simplex basis.

    ``var_status[j]`` is the status of structural column ``j`` and
    ``row_status[i]`` the status of row ``i``'s slack column
    (:data:`NO_SLACK` for equality rows). Stored per-variable rather than as
    column indices so it survives the model growing new columns and rows:
    see :func:`repro.ilp.incremental.extend_basis`.
    """

    var_status: np.ndarray
    row_status: np.ndarray

    def copy(self) -> "LPBasis":
        return LPBasis(self.var_status.copy(), self.row_status.copy())


@dataclass
class LPResult:
    status: LPStatus
    objective: float
    x: Optional[np.ndarray]
    iterations: int
    basis: Optional[LPBasis] = None
    #: True when the solve started from an installed basis (phase 1 skipped).
    warm_started: bool = False
    dual_pivots: int = 0

    @property
    def is_optimal(self) -> bool:
        return self.status is LPStatus.OPTIMAL


class EqualityForm:
    """``A x (senses) b`` as the CSC matrix ``[A | slack | artificial]``.

    Column ``n + k`` is the slack of row ``slack_rows[k]`` (``+1`` for
    ``<=``, ``-1`` for ``>=``; equality rows have none), and the last ``m``
    columns are one artificial per row. ``at`` is the CSR transpose over
    the same arrays, and ``at_priced`` the CSR of its structural and slack
    rows: the columns that can enter once the artificials are pinned at
    zero. Branch and bound builds one per search and passes it to
    :func:`solve_lp` as ``a`` for every node LP; a cold start rewrites the
    artificial signs in place, so one form serves one solve at a time.
    """

    def __init__(self, a, senses: Sequence[str]) -> None:
        a = sparse.csc_matrix(a, dtype=float)
        a.sum_duplicates()
        m, n = a.shape
        slack_rows = np.array(
            [i for i, s in enumerate(senses) if s != "=="], dtype=np.int64
        )
        slack_signs = np.array(
            [1.0 if senses[i] == "<=" else -1.0 for i in slack_rows]
        )
        n_slack = len(slack_rows)
        extra = np.arange(1, n_slack + m + 1)
        self.a = sparse.csc_matrix(
            (
                np.concatenate([a.data, slack_signs, np.ones(m)]),
                np.concatenate([a.indices, slack_rows, np.arange(m)]),
                np.concatenate([a.indptr, a.nnz + extra]),
            ),
            shape=(m, n + n_slack + m),
        )
        self.at = self.a.T
        self.at_priced = self.at[: n + n_slack]
        self.m, self.n = m, n
        self.slack_rows = slack_rows
        #: Positions of the artificial columns' values in ``a.data``.
        self.artificial_data = slice(a.nnz + n_slack, a.nnz + n_slack + m)
        self._kept: Dict[bytes, _BasisFactors] = {}

    def factorize(self, basis: np.ndarray) -> Tuple["_BasisFactors", bool]:
        """Factors of the basis columns ``basis`` with an empty eta file,
        and whether ``splu`` ran for them.

        The factors of the last :data:`_FACTOR_CACHE_SIZE` bases factored
        here are kept, keyed by their columns: in branch and bound both
        children of a node install their parent's basis, so the second
        reuses the first's factors. ``splu`` of the same matrix gives the
        same factors, so a kept entry changes no float. A singular basis
        raises :class:`_SingularBasis` and is not kept.
        """
        key = basis.tobytes()
        kept = self._kept.get(key)
        if kept is not None:
            return kept.restart(), False
        kept = self._kept[key] = _BasisFactors(self.a[:, basis])
        while len(self._kept) > _FACTOR_CACHE_SIZE:
            del self._kept[next(iter(self._kept))]  # the oldest
        return kept.restart(), True


def solve_lp(
    c: np.ndarray,
    a: Union[np.ndarray, "sparse.spmatrix", EqualityForm],
    senses: Sequence[str],
    b: np.ndarray,
    lb: np.ndarray,
    ub: np.ndarray,
    max_iterations: Optional[int] = None,
    warm_basis: Optional[LPBasis] = None,
    want_basis: bool = False,
) -> LPResult:
    """Minimize ``c @ x`` subject to ``A x (senses) b`` and ``lb <= x <= ub``.

    Parameters mirror :class:`repro.ilp.model.MatrixForm`. ``a`` may be
    dense, scipy-sparse, or an :class:`EqualityForm` already built from
    ``(A, senses)``. Bounds may be infinite; rows may mix ``<=``, ``>=``
    and ``==``.

    ``warm_basis`` (from a previous :class:`LPResult` with ``want_basis``)
    re-optimizes via dual simplex instead of the two-phase cold start; it is
    safe to pass a basis recorded under different bounds — the standard
    branch-and-bound warm start — or one extended over newly appended
    rows/columns. An unusable basis silently falls back to the cold start.
    """
    c = np.asarray(c, dtype=float)
    b = np.asarray(b, dtype=float)
    lb = np.asarray(lb, dtype=float)
    ub = np.asarray(ub, dtype=float)
    if len(b) == 0:
        # Pure bound-constrained minimization.
        x = _bound_only_solution(c, lb, ub)
        if x is None:
            return LPResult(LPStatus.UNBOUNDED, -math.inf, None, 0)
        return LPResult(LPStatus.OPTIMAL, float(c @ x), x, 0)
    if not isinstance(a, EqualityForm):
        a = EqualityForm(a, senses)
    n, m = a.n, a.m

    warm_flags = (
        _flags_from_basis(warm_basis, n, m, a.slack_rows)
        if warm_basis is not None
        else None
    )
    solver = _BoundedSimplex(a, b.copy(), lb, ub, max_iterations)
    status, iterations = solver.solve(c, warm_flags=warm_flags)
    _record_lp_observations(solver)
    if status is not LPStatus.OPTIMAL:
        return LPResult(
            status, math.nan, None, iterations,
            warm_started=solver.warm_started, dual_pivots=solver.dual_pivots,
        )
    x = solver.solution()[:n]
    basis = solver.export_basis(n, m, a.slack_rows) if want_basis else None
    return LPResult(
        LPStatus.OPTIMAL,
        float(c @ x),
        x,
        iterations,
        basis=basis,
        warm_started=solver.warm_started,
        dual_pivots=solver.dual_pivots,
    )


def _record_lp_observations(solver: "_BoundedSimplex") -> None:
    if not obs.enabled():
        return
    obs.counter("ilp.simplex.solves").inc()
    if solver.warm_started:
        obs.counter("ilp.simplex.warm_starts").inc()
        obs.counter("ilp.simplex.phase1_skips").inc()
    else:
        obs.counter("ilp.simplex.cold_starts").inc()
    obs.counter("ilp.simplex.refactorizations").inc(solver.refactorizations)
    obs.counter("ilp.simplex.dual_pivots").inc(solver.dual_pivots)
    eta_len = solver.max_eta_len
    if solver.factors is not None:
        eta_len = max(eta_len, solver.factors.eta_len)
    obs.histogram("ilp.simplex.eta_len").observe(eta_len)


def _flags_from_basis(
    basis: LPBasis, n: int, m: int, slack_rows: np.ndarray
) -> Optional[np.ndarray]:
    """Expand an :class:`LPBasis` into per-column flags, or None if stale."""
    if len(basis.var_status) != n or len(basis.row_status) != m:
        return None
    slack_status = basis.row_status[slack_rows]
    if np.any(slack_status == NO_SLACK):
        return None  # basis predates a row and was not extended
    # Equality rows carry no slack; any non-sentinel status there is ignored.
    return np.concatenate([basis.var_status, slack_status]).astype(np.int8)


def _bound_only_solution(
    c: np.ndarray, lb: np.ndarray, ub: np.ndarray
) -> Optional[np.ndarray]:
    x = np.zeros(len(c))
    for j, coeff in enumerate(c):
        if coeff > 0:
            if not math.isfinite(lb[j]):
                return None
            x[j] = lb[j]
        elif coeff < 0:
            if not math.isfinite(ub[j]):
                return None
            x[j] = ub[j]
        else:
            x[j] = lb[j] if math.isfinite(lb[j]) else (ub[j] if math.isfinite(ub[j]) else 0.0)
    return x


class _SingularBasis(Exception):
    pass


class _BasisFactors:
    """SuperLU factors of the basis matrix plus a product-form eta file.

    After a pivot replacing basic position ``pos`` with a column whose FTRAN
    image is ``alpha`` (= B^-1 a_entering), the inverse is updated as
    ``B_new^-1 = E^-1 B_old^-1`` where ``E^-1`` is the identity with column
    ``pos`` replaced by the eta vector. FTRAN applies the LU solve then the
    etas oldest-first; BTRAN applies the transposed etas newest-first then
    the LU back-solve.
    """

    def __init__(self, basis_matrix: "sparse.csc_matrix") -> None:
        try:
            self._lu = splu(basis_matrix)
        except RuntimeError as exc:  # "Factor is exactly singular"
            raise _SingularBasis from exc
        diag = np.abs(self._lu.U.diagonal())
        scale = diag.max(initial=0.0)
        if scale == 0.0 or diag.min() < _SINGULAR_TOL * max(1.0, scale):
            raise _SingularBasis
        self.etas: List[Tuple[int, np.ndarray]] = []

    def restart(self) -> "_BasisFactors":
        """The same LU factors with an empty eta file."""
        fresh = copy.copy(self)
        fresh.etas = []
        return fresh

    @property
    def eta_len(self) -> int:
        return len(self.etas)

    @property
    def stale(self) -> bool:
        return len(self.etas) >= _REFACTOR_EVERY

    def ftran(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``B x = rhs``."""
        x = self._lu.solve(rhs)
        for pos, eta in self.etas:
            t = x.item(pos)  # a Python float: the same product, less dispatch
            if t != 0.0:
                x += eta * t
                x[pos] = eta.item(pos) * t
        return x

    def btran(self, y: np.ndarray) -> np.ndarray:
        """Solve ``B^T x = y``, overwriting the float array ``y``."""
        for pos, eta in reversed(self.etas):
            y[pos] = eta.dot(y)  # the kernel ``@`` calls, less dispatch
        return self._lu.solve(y, trans="T")

    def btran_row(self, pos: int) -> np.ndarray:
        """Row ``pos`` of ``B^-1``: solve ``B^T x = e_pos``."""
        y = np.zeros(self._lu.shape[0])
        y[pos] = 1.0
        return self.btran(y)

    def update(self, alpha: np.ndarray, pos: int) -> None:
        """Record the pivot replacing basic position ``pos``.

        ``alpha`` is the FTRAN image of the entering column against the
        *current* factors. Raises :class:`_SingularBasis` on a pivot element
        too small to divide by — the caller refactorizes.
        """
        pivot = alpha[pos]
        if abs(pivot) < _PIVOT_TOL:
            raise _SingularBasis
        eta = -alpha / pivot
        eta[pos] = 1.0 / pivot
        self.etas.append((pos, eta))


class _BoundedSimplex:
    """Two-phase revised simplex over ``A x = b, lb <= x <= ub``.

    ``lb``/``ub`` bound the structural columns of ``form``; the tableau
    columns are laid out as ``[structural+slack | artificial]``;
    the artificial block only participates in cold starts and is pinned at
    zero afterwards (and from the beginning on warm starts). Reduced costs,
    pricing and the dual ratio test run over the first ``priced`` columns:
    all of them in phase 1, the structural and slack ones once the
    artificials are pinned.
    """

    def __init__(
        self,
        form: EqualityForm,
        b: np.ndarray,
        lb: np.ndarray,
        ub: np.ndarray,
        max_iterations: Optional[int],
    ) -> None:
        self.form = form
        self.a = form.a
        self._artificial_data = form.artificial_data
        self.m = form.m
        self.n = self.a.shape[1] - self.m
        self.max_iterations = max_iterations or max(
            5000, _MAX_ITER_FACTOR * (self.m + self.n)
        )
        self.b = b
        # Slacks are nonnegative; artificials too (pinned at 0 when unused).
        added = self.n + self.m - form.n
        self.lb = np.concatenate([lb, np.zeros(added)])
        self.ub = np.concatenate([ub, np.full(added, math.inf)])
        self.n_total = self.n + self.m
        self.n_structural = self.n

        self.warm_started = False
        self.refactorizations = 0
        self.dual_pivots = 0
        self.max_eta_len = 0
        self._bland_after = bland_cutover(self.m, self.n)

    # -- main driver ---------------------------------------------------------

    def solve(self, c: np.ndarray, warm_flags: Optional[np.ndarray] = None):
        if warm_flags is not None and self._install(warm_flags):
            self.warm_started = True
            outcome = self._warm_solve(c)
            if outcome is not None:
                return outcome
            # Warm start went nowhere (stale numerics); restart cold.
            self.warm_started = False
            self.dual_pivots = 0
        self._cold_start()

        # Phase 1: minimize sum of artificials.
        c1 = np.zeros(self.n_total)
        c1[self.n_structural :] = 1.0
        status, iterations = self._primal(c1)
        if status is not LPStatus.OPTIMAL and status is not LPStatus.UNBOUNDED:
            return status, iterations
        phase1_obj = float(c1 @ self._values())
        if phase1_obj > _FEAS_TOL * max(1.0, np.abs(self.b).max(initial=1.0)):
            return LPStatus.INFEASIBLE, iterations
        self._pin_artificials()
        self._index_columns()
        self._evict_artificials()

        # Phase 2: real objective on structural columns only.
        status, it2 = self._primal(self._full_cost(c))
        return status, iterations + it2

    def solution(self) -> np.ndarray:
        return self._values()[: self.n_structural]

    def export_basis(
        self, n: int, m: int, slack_rows: np.ndarray
    ) -> Optional[LPBasis]:
        """Snapshot the current basis, or None if an artificial is basic."""
        flags = self.status_flags
        if np.any(flags[self.n_structural :] == _BASIC):
            return None  # degenerate leftover: not a clean structural basis
        var_status = flags[:n].astype(np.int8).copy()
        row_status = np.full(m, NO_SLACK, dtype=np.int8)
        row_status[slack_rows] = flags[n : self.n_structural]
        return LPBasis(var_status, row_status)

    # -- warm start ----------------------------------------------------------

    def _install(self, flags: np.ndarray) -> bool:
        """Adopt an external basis; True on success (factors + xb ready)."""
        if len(flags) != self.n_structural:
            return False
        full = np.concatenate(
            [flags.astype(np.int8), np.full(self.m, _AT_LOWER, dtype=np.int8)]
        )
        basis = np.flatnonzero(full == _BASIC)
        if len(basis) != self.m:
            return False
        # Artificials never participate in a warm solve.
        self._pin_artificials()
        # Normalize nonbasic statuses against the *current* bounds (they may
        # have changed since the basis was recorded: branching tightens them).
        lb, ub = self.lb, self.ub
        nonbasic = full != _BASIC
        at_upper = nonbasic & (full == _AT_UPPER) & ~np.isfinite(ub)
        full[at_upper] = _AT_LOWER
        at_lower = nonbasic & (full == _AT_LOWER) & ~np.isfinite(lb)
        flip = at_lower & np.isfinite(ub)
        full[flip] = _AT_UPPER
        xn = np.where(full == _AT_UPPER, ub, np.where(np.isfinite(lb), lb, 0.0))
        try:
            factors, factored = self.form.factorize(basis)
        except _SingularBasis:
            return False
        self.refactorizations += factored
        self.status_flags = full
        self.basis = basis
        self.xn = xn
        self.factors = factors
        self._index_columns()
        self._recompute_xb()
        return True

    def _cold_start(self) -> None:
        """The artificial starting basis, every other column at a bound."""
        lb, ub = self.lb[: self.n], self.ub[: self.n]
        # Start every structural variable at a finite bound (0 for free vars).
        xn = np.where(np.isfinite(lb), lb, np.where(np.isfinite(ub), ub, 0.0))
        flags = np.where(
            np.isfinite(lb), _AT_LOWER, np.where(np.isfinite(ub), _AT_UPPER, _AT_LOWER)
        ).astype(np.int8)
        xn = np.concatenate([xn, np.zeros(self.m)])
        residual = self.b - self.a @ xn
        # One artificial per row, signed so its value is |residual| >= 0.
        self.a.data[self._artificial_data] = np.where(residual >= 0, 1.0, -1.0)
        self.ub[self.n_structural :] = math.inf
        self.priced, self.priced_at = self.n_total, self.form.at
        xn[self.n :] = np.abs(residual)
        self.xn = xn
        self.status_flags = np.concatenate(
            [flags, np.full(self.m, _BASIC, dtype=np.int8)]
        )
        self.basis = np.arange(self.n, self.n + self.m)
        self.factors: Optional[_BasisFactors] = None
        self.xb: Optional[np.ndarray] = None
        self._index_columns()

    def _pin_artificials(self) -> None:
        """Fix the artificials at zero, so they never (re-)enter and
        pricing skips them."""
        self.ub[self.n_structural :] = 0.0
        self.priced, self.priced_at = self.n_structural, self.form.at_priced

    def _index_columns(self) -> None:
        """Derive the pricing state from the flags, bounds and basis.

        ``direction[j]`` is +1 for a movable nonbasic column at its lower
        bound, -1 for one at its upper bound, and 0 for basic, fixed and
        free columns; ``free`` marks the nonbasic free columns (None when
        the model has no free column); ``basic_lb``/``basic_ub`` are the
        bounds of the basic columns by basis position. Built here whenever
        the bounds change; :meth:`_pivot` and the primal bound flip keep it
        current.
        """
        flags, lb, ub = self.status_flags, self.lb, self.ub
        movable = (flags != _BASIC) & (lb != ub)
        free = ~np.isfinite(lb) & ~np.isfinite(ub)
        bounded = movable & ~free
        self.direction = np.zeros(self.n_total)
        self.direction[bounded & (flags == _AT_LOWER)] = 1.0
        self.direction[bounded & (flags == _AT_UPPER)] = -1.0
        self.free = movable & free if free.any() else None
        self.basic_lb = lb[self.basis]
        self.basic_ub = ub[self.basis]

    def _warm_solve(self, c: np.ndarray):
        """Dual (or primal phase-2) re-optimization from the installed basis.

        Returns ``(status, iterations)``, or None to request a cold restart.
        """
        c_full = self._full_cost(c)
        reduced = self._reduced_costs(c_full)
        if self._dual_feasible(reduced):
            status, its = self._dual(c_full, reduced)
            if status is LPStatus.OPTIMAL:
                # Polish with primal phase 2 (usually 0 iterations): bound
                # flips during the dual pass can leave tiny residuals.
                status, its2 = self._primal(c_full)
                its += its2
        elif self._primal_feasible():
            # Basis is primal feasible but not dual feasible (e.g. the
            # objective changed): plain phase 2, still no phase 1.
            status, its = self._primal(c_full)
        else:
            return None
        if status is LPStatus.ITERATION_LIMIT:
            return None  # iteration cap / numerics: cold restart
        return status, its

    def _full_cost(self, c: np.ndarray) -> np.ndarray:
        if len(c) == self.n_total:
            return c
        full = np.zeros(self.n_total)
        full[: len(c)] = c
        return full

    # -- factorization-backed state ------------------------------------------

    def _refactorize(self) -> None:
        self.factors = _BasisFactors(self.a[:, self.basis])
        self.refactorizations += 1

    def _ensure_factors(self) -> bool:
        """Refactorize if the factors are missing or stale; True if it did."""
        if self.factors is None or self.factors.stale:
            if self.factors is not None:
                self.max_eta_len = max(self.max_eta_len, self.factors.eta_len)
            self._refactorize()
            self._recompute_xb()
            return True
        return False

    def _recompute_xb(self) -> None:
        nonbasic_contrib = np.where(self.status_flags == _BASIC, 0.0, self.xn)
        rhs = self.b - self.a @ nonbasic_contrib
        self.xb = self.factors.ftran(rhs)

    def _column(self, j: int) -> np.ndarray:
        """Column ``j`` of the tableau, scattered from the CSC arrays."""
        a = self.a
        start, stop = a.indptr[j], a.indptr[j + 1]
        col = np.zeros(self.m)
        col[a.indices[start:stop]] = a.data[start:stop]
        return col

    def _values(self) -> np.ndarray:
        values = self.xn.copy()
        if self.xb is None:
            self._ensure_factors()
        values[self.basis] = self.xb
        return values

    def _reduced_costs(self, c: np.ndarray) -> np.ndarray:
        """Reduced costs of the priced columns."""
        y = self.factors.btran(c[self.basis])
        return c[: self.priced] - self.priced_at @ y

    def _dual_feasible(self, reduced: np.ndarray, tol: float = 1e-7) -> bool:
        k = self.priced
        free = self.free
        if free is not None and np.any(np.abs(reduced[free[:k]]) > tol):
            return False
        return not np.any(self.direction[:k] * reduced < -tol)

    def _primal_feasible(self, tol: float = _FEAS_TOL) -> bool:
        return bool(
            np.all(self.xb >= self.basic_lb - tol)
            and np.all(self.xb <= self.basic_ub + tol)
        )

    def _evict_artificials(self) -> None:
        """Pivot basic artificials (at value ~0) out of the basis when possible."""
        changed = False
        flags = self.status_flags[: self.n_structural]
        for pos in range(self.m):
            if self.basis[pos] < self.n_structural:
                continue
            try:
                self._ensure_factors()
            except _SingularBasis:
                break
            # Row ``pos`` of B^-1 A: a structural nonbasic column with a
            # nonzero element there can replace the artificial.
            row = self.priced_at @ self.factors.btran_row(pos)
            candidates = np.flatnonzero(
                (np.abs(row) > 1e-7) & (flags != _BASIC)
            )
            if not candidates.size:
                continue
            j = int(candidates[0])
            try:
                self.factors.update(self.factors.ftran(self._column(j)), pos)
            except _SingularBasis:
                self.factors = None
            self._pivot(entering=j, leaving_pos=pos, t=0.0, entering_to=None)
            changed = True
        if changed:
            self.factors = None
            self.xb = None

    # -- primal simplex ------------------------------------------------------

    def _primal(self, c: np.ndarray):
        iteration = 0
        while iteration < self.max_iterations:
            try:
                self._ensure_factors()
                reduced = self._reduced_costs(c)
            except _SingularBasis:
                return LPStatus.ITERATION_LIMIT, iteration

            use_bland = iteration > self._bland_after
            entering = self._price(reduced, use_bland)
            if entering is None:
                return LPStatus.OPTIMAL, iteration

            direction = self.direction[entering]
            if direction == 0.0:
                # Free nonbasic variable: move against its reduced cost.
                direction = -1.0 if reduced[entering] > 0 else 1.0
            col = self.factors.ftran(self._column(entering)) * direction

            best_t, leaving_pos, leaving_to = self._ratio_test(
                entering, col, use_bland
            )
            if leaving_pos is None and not math.isfinite(best_t):
                return LPStatus.UNBOUNDED, iteration

            best_t = max(best_t, 0.0)
            if leaving_pos is None:
                # Bound flip: entering variable jumps to its other bound.
                if self.status_flags[entering] == _AT_LOWER:
                    self.status_flags[entering] = _AT_UPPER
                    self.xn[entering] = self.ub[entering]
                else:
                    self.status_flags[entering] = _AT_LOWER
                    self.xn[entering] = self.lb[entering]
                self.direction[entering] = -direction
                self.xb -= best_t * col
            else:
                entering_value = self.xn[entering] + best_t * direction
                self.xb -= best_t * col
                self.xb[leaving_pos] = entering_value
                try:
                    self.factors.update(col * direction, leaving_pos)
                except _SingularBasis:
                    self.factors = None  # refactorize next round
                self._pivot(entering, leaving_pos, best_t * direction, leaving_to)
            iteration += 1
        return LPStatus.ITERATION_LIMIT, iteration

    def _ratio_test(self, entering: int, col: np.ndarray, use_bland: bool):
        """Max step for the entering variable; vectorized over basic rows.

        A row whose bound in the step's direction is infinite gets an
        infinite step, the same as a row the step leaves unchanged.
        """
        xb = self.xb
        t = np.full(self.m, math.inf)
        pos_rows = col > _TOL
        t[pos_rows] = np.maximum(
            0.0, (xb[pos_rows] - self.basic_lb[pos_rows]) / col[pos_rows]
        )
        neg_rows = col < -_TOL
        t[neg_rows] = np.maximum(
            0.0, (self.basic_ub[neg_rows] - xb[neg_rows]) / (-col[neg_rows])
        )

        limit = self.ub[entering] - self.lb[entering]
        row_min = t.min(initial=math.inf)
        if row_min >= limit:
            # Bound flip (or unbounded when the limit is infinite too).
            return limit, None, None
        ties = np.flatnonzero(t <= row_min + _TOL)
        if use_bland:
            # Bland: smallest leaving variable index for termination.
            pos = int(ties[np.argmin(self.basis[ties])])
        else:
            # Stability: largest pivot magnitude among the tied rows.
            pos = int(ties[np.argmax(np.abs(col[ties]))])
        return float(t[pos]), pos, _AT_UPPER if neg_rows[pos] else _AT_LOWER

    def _price(self, reduced: np.ndarray, use_bland: bool) -> Optional[int]:
        """Pick the entering variable (Dantzig, or Bland when anti-cycling)."""
        k = self.priced
        score = -self.direction[:k] * reduced
        free = self.free
        if free is not None:
            free = free[:k]
            score[free] = np.abs(reduced[free])
        candidates = score > _TOL
        if not np.any(candidates):
            return None
        if use_bland:
            return int(np.argmax(candidates))  # first candidate index
        return int(np.argmax(score))

    # -- dual simplex --------------------------------------------------------

    def _dual(self, c: np.ndarray, reduced: np.ndarray):
        """Bounded-variable dual simplex from a dual-feasible basis.

        ``reduced`` holds the reduced costs of ``c`` for the installed basis.
        Each pivot updates them from the pivot row; they are computed afresh
        only after a refactorization, so their drift is bounded by the same
        ``_REFACTOR_EVERY`` window as the eta file's.

        Pivots until the basics are back inside their bounds (OPTIMAL), no
        entering column exists (primal INFEASIBLE), or the iteration cap
        trips (caller falls back to a cold start).
        """
        iteration = 0
        while iteration < self.max_iterations:
            try:
                if self._ensure_factors():
                    reduced = self._reduced_costs(c)
            except _SingularBasis:
                return LPStatus.ITERATION_LIMIT, iteration
            # An infinite bound gives -inf here: never the leaving row.
            below = self.basic_lb - self.xb
            above = self.xb - self.basic_ub
            viol = np.maximum(below, above)
            r = int(viol.argmax())
            if viol[r] <= _FEAS_TOL:
                return LPStatus.OPTIMAL, iteration
            to_lower = below[r] >= above[r]

            alpha = self.priced_at @ self.factors.btran_row(r)

            entering = self._dual_ratio_test(reduced, alpha, to_lower)
            if entering is None:
                return LPStatus.INFEASIBLE, iteration

            reduced -= (reduced[entering] / alpha[entering]) * alpha
            reduced[entering] = 0.0
            alpha_q = self.factors.ftran(self._column(entering))
            bound_r = self.basic_lb[r] if to_lower else self.basic_ub[r]
            step = (self.xb[r] - bound_r) / alpha[entering]
            self.xb -= step * alpha_q
            self.xb[r] = self.xn[entering] + step
            try:
                self.factors.update(alpha_q, r)
            except _SingularBasis:
                self.factors = None
            self._pivot(
                entering, r, step, _AT_LOWER if to_lower else _AT_UPPER
            )
            iteration += 1
            self.dual_pivots += 1
        return LPStatus.ITERATION_LIMIT, iteration

    def _dual_ratio_test(
        self, reduced: np.ndarray, alpha: np.ndarray, to_lower: bool
    ) -> Optional[int]:
        """Entering column keeping the reduced costs dual feasible."""
        # Leaving variable sits below its lower bound (to_lower): its row
        # value must increase, so entering-at-lower needs alpha < 0 and
        # entering-at-upper needs alpha > 0; mirrored when above the upper.
        k = self.priced
        signed = self.direction[:k] * alpha
        if to_lower:
            candidates = signed < -_PIVOT_TOL
        else:
            candidates = signed > _PIVOT_TOL
        free = self.free
        if free is not None:
            candidates |= free[:k] & (np.abs(alpha) > _PIVOT_TOL)
        idx = candidates.nonzero()[0]
        if not idx.size:
            return None
        pivots = np.abs(alpha[idx])
        ratios = np.abs(reduced[idx]) / pivots
        ties = ratios <= ratios.min() + _TOL
        # Prefer the largest pivot among the tied ratios for stability.
        return int(idx[ties][pivots[ties].argmax()])

    # -- pivot bookkeeping ---------------------------------------------------

    def _pivot(
        self,
        entering: int,
        leaving_pos: int,
        t: float,
        entering_to: Optional[int],
    ) -> None:
        """Swap ``entering`` into the basis at row ``leaving_pos``.

        ``t`` is the signed step of the entering variable from its resting
        bound; ``entering_to`` is the bound status the *leaving* variable
        lands on (None when evicting a zero-valued artificial in place).
        Keeps the state :meth:`_index_columns` built current.
        """
        leaving = self.basis[leaving_pos]
        lo, hi = self.lb[leaving], self.ub[leaving]
        self.basis[leaving_pos] = entering
        self.basic_lb[leaving_pos] = self.lb[entering]
        self.basic_ub[leaving_pos] = self.ub[entering]
        self.status_flags[entering] = _BASIC
        self.direction[entering] = 0.0
        self.xn[entering] += t
        if entering_to is None:
            # Artificial eviction at degenerate step: leaving var rests at 0.
            entering_to = _AT_LOWER
            self.xn[leaving] = lo if math.isfinite(lo) else 0.0
        else:
            self.xn[leaving] = lo if entering_to == _AT_LOWER else hi
        self.status_flags[leaving] = entering_to
        free = not (math.isfinite(lo) or math.isfinite(hi))
        if free or lo == hi:
            self.direction[leaving] = 0.0
        else:
            self.direction[leaving] = 1.0 if entering_to == _AT_LOWER else -1.0
        if self.free is not None:
            self.free[entering] = False
            self.free[leaving] = free
