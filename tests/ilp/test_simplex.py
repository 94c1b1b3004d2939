"""Unit and property tests for the bounded-variable simplex engine."""

import math
from collections import Counter
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from repro.bench import _make_cover
from repro.eps import build_eps_template, eps_spec
from repro.ilp import BnBOptions, LPStatus, solve_lp, solve_milp
from repro.ilp.simplex import (
    _AT_LOWER, _AT_UPPER, _BASIC, _PIVOT_TOL, _TOL, _BoundedSimplex,
)

INF = math.inf


def _solve(c, a, senses, b, lb, ub):
    return solve_lp(
        np.asarray(c, float),
        np.asarray(a, float).reshape(len(senses), len(c)) if senses else np.zeros((0, len(c))),
        list(senses),
        np.asarray(b, float),
        np.asarray(lb, float),
        np.asarray(ub, float),
    )


class TestBasicLPs:
    def test_simple_maximization_as_min(self):
        # min -x - 2y ; x + y <= 4, x <= 3, x,y >= 0  -> (0,4), obj -8
        res = _solve([-1, -2], [[1, 1], [1, 0]], ["<=", "<="], [4, 3], [0, 0], [INF, INF])
        assert res.status is LPStatus.OPTIMAL
        assert res.objective == pytest.approx(-8.0)
        assert res.x == pytest.approx([0.0, 4.0])

    def test_equality_row(self):
        res = _solve([1, 1], [[1, 1]], ["=="], [2], [0, 0], [INF, INF])
        assert res.status is LPStatus.OPTIMAL
        assert res.objective == pytest.approx(2.0)

    def test_ge_row(self):
        res = _solve([1, 2], [[1, 1]], [">="], [3], [0, 0], [INF, INF])
        assert res.status is LPStatus.OPTIMAL
        assert res.objective == pytest.approx(3.0)
        assert res.x == pytest.approx([3.0, 0.0])

    def test_infeasible(self):
        res = _solve([1], [[1], [1]], ["<=", ">="], [1, 2], [0], [INF])
        assert res.status is LPStatus.INFEASIBLE

    def test_unbounded(self):
        res = _solve([-1], [[0]], ["<="], [1], [0], [INF])
        assert res.status is LPStatus.UNBOUNDED

    def test_bound_only_problem(self):
        res = _solve([1, -1], np.zeros((0, 2)), [], [], [1, 0], [5, 3])
        assert res.status is LPStatus.OPTIMAL
        assert res.x == pytest.approx([1.0, 3.0])

    def test_bound_only_unbounded(self):
        res = _solve([-1], np.zeros((0, 1)), [], [], [0], [INF])
        assert res.status is LPStatus.UNBOUNDED

    def test_upper_bounds_respected(self):
        # min -x - y ; x + y <= 10 ; x <= 2, y <= 3 (variable bounds)
        res = _solve([-1, -1], [[1, 1]], ["<="], [10], [0, 0], [2, 3])
        assert res.objective == pytest.approx(-5.0)

    def test_bound_flip_path(self):
        # Optimum forces a nonbasic variable to its upper bound.
        res = _solve([-5, -1], [[1, 1]], ["<="], [10], [0, 0], [4, 20])
        assert res.objective == pytest.approx(-26.0)
        assert res.x == pytest.approx([4.0, 6.0])

    def test_fixed_variable(self):
        res = _solve([1, 1], [[1, 1]], [">="], [3], [2, 0], [2, INF])
        assert res.status is LPStatus.OPTIMAL
        assert res.x == pytest.approx([2.0, 1.0])

    def test_negative_rhs(self):
        # x - y <= -1 with minimize x  => x=0, y>=1
        res = _solve([1, 1], [[1, -1]], ["<="], [-1], [0, 0], [INF, INF])
        assert res.status is LPStatus.OPTIMAL
        assert res.objective == pytest.approx(1.0)

    def test_degenerate_constraints_terminate(self):
        # Many redundant rows (classic cycling bait) must still terminate.
        a = [[1, 1], [2, 2], [1, 1], [0.5, 0.5]]
        res = _solve([-1, -1], a, ["<="] * 4, [2, 4, 2, 1], [0, 0], [INF, INF])
        assert res.status is LPStatus.OPTIMAL
        assert res.objective == pytest.approx(-2.0)


@st.composite
def random_lp(draw):
    """Small random bounded LPs with box constraints — always feasible at 0."""
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, 5))
    coef = st.integers(-5, 5)
    c = [draw(coef) for _ in range(n)]
    a = [[draw(coef) for _ in range(n)] for _ in range(m)]
    # b >= 0 with <= rows ensures x = 0 is feasible: no infeasible noise.
    b = [draw(st.integers(0, 10)) for _ in range(m)]
    ub = [draw(st.integers(1, 6)) for _ in range(n)]
    return c, a, b, ub


@given(random_lp())
@settings(max_examples=120, deadline=None)
def test_matches_scipy_on_random_lps(problem):
    c, a, b, ub = problem
    n = len(c)
    ours = _solve(c, a, ["<="] * len(b), b, [0] * n, ub)
    ref = linprog(c, A_ub=np.array(a, float), b_ub=np.array(b, float),
                  bounds=[(0, u) for u in ub], method="highs")
    assert ref.status == 0, "reference should be feasible by construction"
    assert ours.status is LPStatus.OPTIMAL
    assert ours.objective == pytest.approx(ref.fun, abs=1e-6)
    # Our solution must itself be feasible.
    ax = np.array(a, float) @ ours.x
    assert np.all(ax <= np.array(b, float) + 1e-6)
    assert np.all(ours.x >= -1e-9) and np.all(ours.x <= np.array(ub, float) + 1e-9)


@st.composite
def random_eq_lp(draw):
    """Random LPs with one equality row derived from a known feasible point."""
    n = draw(st.integers(2, 5))
    coef = st.integers(-4, 4)
    c = [draw(coef) for _ in range(n)]
    row = [draw(coef) for _ in range(n)]
    x0 = [draw(st.integers(0, 3)) for _ in range(n)]
    rhs = sum(r * x for r, x in zip(row, x0))
    ub = [max(x, 1) + draw(st.integers(0, 3)) for x in x0]
    return c, row, rhs, ub


@given(random_eq_lp())
@settings(max_examples=80, deadline=None)
def test_matches_scipy_with_equality(problem):
    c, row, rhs, ub = problem
    n = len(c)
    ours = _solve(c, [row], ["=="], [rhs], [0] * n, ub)
    ref = linprog(c, A_eq=np.array([row], float), b_eq=[rhs],
                  bounds=[(0, u) for u in ub], method="highs")
    assert ref.status == 0
    assert ours.status is LPStatus.OPTIMAL
    assert ours.objective == pytest.approx(ref.fun, abs=1e-6)


class TestLimitsAndEdgeCases:
    def test_iteration_limit_reported(self):
        # A nontrivial LP with a 1-iteration budget must hit the limit.
        res = solve_lp(
            np.array([-1.0, -1.0, -1.0]),
            np.array([[1.0, 2.0, 1.0], [2.0, 1.0, 3.0]]),
            ["<=", "<="],
            np.array([10.0, 12.0]),
            np.zeros(3),
            np.full(3, INF),
            max_iterations=1,
        )
        assert res.status in (LPStatus.ITERATION_LIMIT, LPStatus.OPTIMAL)

    def test_all_variables_fixed(self):
        res = solve_lp(
            np.array([1.0, 1.0]),
            np.array([[1.0, 1.0]]),
            ["<="],
            np.array([5.0]),
            np.array([2.0, 3.0]),
            np.array([2.0, 3.0]),
        )
        assert res.status is LPStatus.OPTIMAL
        assert res.x == pytest.approx([2.0, 3.0])

    def test_fixed_variables_infeasible_row(self):
        res = solve_lp(
            np.array([0.0, 0.0]),
            np.array([[1.0, 1.0]]),
            ["=="],
            np.array([99.0]),
            np.array([2.0, 3.0]),
            np.array([2.0, 3.0]),
        )
        assert res.status is LPStatus.INFEASIBLE

    def test_free_variable_negative_optimum(self):
        # x free in [-inf, inf]: min x s.t. x >= -5 -> -5.
        res = solve_lp(
            np.array([1.0]),
            np.array([[1.0]]),
            [">="],
            np.array([-5.0]),
            np.array([-INF]),
            np.array([INF]),
        )
        assert res.status is LPStatus.OPTIMAL
        assert res.objective == pytest.approx(-5.0)

    def test_dense_and_sparse_matrices_agree(self):
        from scipy import sparse

        c = np.array([-1.0, -2.0, 0.5])
        a = np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 2.0], [0.0, 1.0, 1.0]])
        args = (["<=", ">=", "=="], np.array([4.0, 1.0, 3.0]),
                np.zeros(3), np.full(3, INF))
        dense = solve_lp(c, a, *args)
        sparse_res = solve_lp(c, sparse.csr_matrix(a), *args)
        assert dense.status is sparse_res.status is LPStatus.OPTIMAL
        assert dense.x == pytest.approx(sparse_res.x)
        assert dense.iterations == sparse_res.iterations


class TestNumericalFailures:
    """A numerical failure is reported as unresolved, never as infeasible."""

    def test_singular_refactorization_is_not_infeasible(self, monkeypatch):
        from repro.ilp import simplex

        real = simplex._BasisFactors
        calls = []

        def flaky(basis_matrix):
            calls.append(basis_matrix)
            if len(calls) == 1:
                raise simplex._SingularBasis
            return real(basis_matrix)

        # min x + y  s.t.  x + y >= 1,  x - y <= 0.5  (optimum 1.0)
        lp = ([1, 1], [[1, 1], [1, -1]], [">=", "<="], [1, 0.5],
              [0, 0], [INF, INF])
        monkeypatch.setattr(simplex, "_BasisFactors", flaky)
        res = _solve(*lp)
        assert calls, "the injected factorization was never reached"
        assert res.status is LPStatus.ITERATION_LIMIT
        monkeypatch.undo()
        clean = _solve(*lp)
        assert clean.status is LPStatus.OPTIMAL
        assert clean.objective == pytest.approx(1.0)


# -- the pricing state the simplex keeps current at each pivot ---------------
#
# The reference formulas below rebuild the per-column masks from the status
# flags and bounds on every call, as the simplex did before it kept them.


def _reference_masks(s):
    flags, lb, ub = s.status_flags, s.lb, s.ub
    movable = (flags != _BASIC) & (lb != ub)
    free = movable & ~np.isfinite(lb) & ~np.isfinite(ub)
    low = movable & (flags == _AT_LOWER) & ~free
    up = movable & (flags == _AT_UPPER)
    return movable, free, low, up


def _reference_price(s, reduced, use_bland):
    _, free, low, up = _reference_masks(s)
    score = np.zeros(s.n_total)
    if np.any(free):
        score[free] = np.abs(reduced[free])
    score[low] = -reduced[low]
    score[up] = reduced[up]
    candidates = score > _TOL
    if not np.any(candidates):
        return None
    if use_bland:
        return int(np.argmax(candidates))
    return int(np.argmax(score))


def _reference_dual_feasible(s, reduced, tol):
    _, free, low, up = _reference_masks(s)
    return not (np.any(np.abs(reduced[free]) > tol)
                or np.any(reduced[low] < -tol)
                or np.any(reduced[up] > tol))


def _reference_dual_ratio_test(s, reduced, alpha, to_lower):
    movable, free, _, _ = _reference_masks(s)
    flags = s.status_flags
    if to_lower:
        ok_low = movable & (flags == _AT_LOWER) & (alpha < -_PIVOT_TOL)
        ok_up = movable & (flags == _AT_UPPER) & (alpha > _PIVOT_TOL)
    else:
        ok_low = movable & (flags == _AT_LOWER) & (alpha > _PIVOT_TOL)
        ok_up = movable & (flags == _AT_UPPER) & (alpha < -_PIVOT_TOL)
    candidates = ok_low | ok_up | (free & (np.abs(alpha) > _PIVOT_TOL))
    if not np.any(candidates):
        return None
    idx = np.flatnonzero(candidates)
    ratios = np.abs(reduced[idx]) / np.abs(alpha[idx])
    ties = idx[ratios <= ratios.min() + _TOL]
    return int(ties[np.argmax(np.abs(alpha[ties]))])


def _assert_kept_state_is_current(s, seen):
    """The kept state equals a rebuild from flags, bounds and basis."""
    _, free, low, up = _reference_masks(s)
    direction = np.zeros(s.n_total)
    direction[low] = 1.0
    direction[up] = -1.0
    assert isinstance(s.basis, np.ndarray) and s.basis.dtype.kind == "i"
    assert np.all(s.status_flags[s.basis] == _BASIC)
    assert np.array_equal(s.direction, direction)
    has_free = np.any(~np.isfinite(s.lb) & ~np.isfinite(s.ub))
    assert (s.free is None) == (not has_free)
    if s.free is not None:
        assert np.array_equal(s.free, free)
    assert np.array_equal(s.basic_lb, s.lb[s.basis])
    assert np.array_equal(s.basic_ub, s.ub[s.basis])
    seen["checks"] += 1
    seen["free"] += int(free.any())
    seen["at_upper"] += int(up.any())


@contextmanager
def _kept_state_check():
    """At every pricing, dual ratio test and dual feasibility call, check
    the kept state and the answer against the reference formulas; yields
    a Counter of the checks made and of the cases they covered."""
    seen = Counter()
    real_price = _BoundedSimplex._price
    real_dual_feasible = _BoundedSimplex._dual_feasible
    real_dual_ratio_test = _BoundedSimplex._dual_ratio_test
    real_ratio_test = _BoundedSimplex._ratio_test
    real_pivot = _BoundedSimplex._pivot

    def price(self, reduced, use_bland):
        _assert_kept_state_is_current(self, seen)
        choice = real_price(self, reduced, use_bland)
        assert choice == _reference_price(self, reduced, use_bland)
        return choice

    def dual_feasible(self, reduced, tol=1e-7):
        _assert_kept_state_is_current(self, seen)
        verdict = real_dual_feasible(self, reduced, tol)
        assert verdict == _reference_dual_feasible(self, reduced, tol)
        return verdict

    def dual_ratio_test(self, reduced, alpha, to_lower):
        _assert_kept_state_is_current(self, seen)
        choice = real_dual_ratio_test(self, reduced, alpha, to_lower)
        assert choice == _reference_dual_ratio_test(
            self, reduced, alpha, to_lower)
        return choice

    def ratio_test(self, entering, col, use_bland):
        step, leaving_pos, leaving_to = real_ratio_test(
            self, entering, col, use_bland)
        if leaving_pos is None and math.isfinite(step):
            seen["bound_flip"] += 1
        return step, leaving_pos, leaving_to

    def pivot(self, entering, leaving_pos, t, entering_to):
        if entering_to is None:
            seen["eviction"] += 1
        return real_pivot(self, entering, leaving_pos, t, entering_to)

    with mock.patch.multiple(
        _BoundedSimplex, _price=price, _dual_feasible=dual_feasible,
        _dual_ratio_test=dual_ratio_test, _ratio_test=ratio_test,
        _pivot=pivot,
    ):
        yield seen


@st.composite
def mixed_lp(draw):
    """An LP with <=, >= and == rows, free and upper-bounded columns,
    feasible at an integer point, plus one bound to tighten after the
    first solve."""
    n = draw(st.integers(2, 6))
    m = draw(st.integers(1, 4))
    coef = st.integers(-4, 4)
    kinds = [draw(st.sampled_from(["box", "box", "upper", "free"]))
             for _ in range(n)]
    lb = np.array([-INF if k in ("upper", "free") else 0.0 for k in kinds])
    ub = np.array([INF if k == "free" else float(draw(st.integers(1, 5)))
                   for k in kinds])
    x0 = np.array([draw(st.integers(-3, 0)) if k == "upper"
                   else draw(st.integers(-3, 3)) if k == "free"
                   else draw(st.integers(0, int(u)))
                   for k, u in zip(kinds, ub)], dtype=float)
    a = np.array([[draw(coef) for _ in range(n)] for _ in range(m)], float)
    senses = [draw(st.sampled_from(["<=", ">=", "=="])) for _ in range(m)]
    slack = np.array([draw(st.integers(0, 3)) for _ in range(m)], float)
    sign = np.array([{"<=": 1.0, ">=": -1.0, "==": 0.0}[s] for s in senses])
    b = a @ x0 + sign * slack
    c = np.array([draw(coef) for _ in range(n)], float)
    var = draw(st.integers(0, n - 1))
    return c, a, senses, b, lb, ub, var


#: A ``mixed_lp()`` draw whose cold-then-warm solve reaches all four
#: cases ``test_mixed_lps_cold_then_warm`` asserts (a free column, a
#: column at its upper bound, a bound flip and an eviction pivot), found
#: once by a hypothesis search and frozen so the assertion holds for
#: every seed, not only for the draws that happen to reach each case.
_ALL_CASES_LP = (
    np.array([0.0, 0.0, 0.0, 0.0]),
    np.array([[0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0],
              [0.0, 0.0, 0.0, 0.0], [0.0, -1.0, 0.0, 0.0]]),
    ["<=", "<=", "<=", "<="],
    np.array([0.0, 0.0, 0.0, -1.0]),
    np.array([0.0, 0.0, 0.0, -INF]),
    np.array([1.0, 1.0, 1.0, INF]),
    0,
)


class TestKeptPricingState:
    """The state ``_pivot`` keeps current equals a rebuild from the flags,
    bounds and basis at every pricing, dual ratio test and dual
    feasibility call, and each call chooses what the rebuilt masks do."""

    def test_eps_bnb_search(self):
        spec = eps_spec(build_eps_template(num_generators=2),
                        reliability_target=1e-4)
        form = spec.build_encoder().model.to_matrix_form()
        with _kept_state_check() as seen:
            out = solve_milp(form, BnBOptions())
        assert out.status == "optimal"
        assert seen["checks"] > 0

    def test_cover_bnb_search(self):
        form = _make_cover(40, 60, seed=40).to_matrix_form()
        with _kept_state_check() as seen:
            out = solve_milp(form, BnBOptions())
        assert out.status == "optimal"
        assert seen["checks"] > 0

    def test_mixed_lps_cold_then_warm(self):
        @given(mixed_lp())
        @example(_ALL_CASES_LP)
        @settings(max_examples=150, deadline=None)
        def cold_then_warm(problem):
            c, a, senses, b, lb, ub, var = problem
            base = solve_lp(c, a, senses, b, lb, ub, want_basis=True)
            if base.basis is None:
                return
            tight_ub = ub.copy()
            tight_ub[var] = max(lb[var], math.floor(base.x[var]) - 1.0)
            solve_lp(c, a, senses, b, lb, tight_ub, warm_basis=base.basis)

        with _kept_state_check() as seen:
            cold_then_warm()
        for case in ("free", "bound_flip", "at_upper", "eviction"):
            assert seen[case] > 0, (case, seen)
