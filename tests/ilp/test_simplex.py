"""Unit and property tests for the bounded-variable simplex engine."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from repro.ilp import LPStatus, solve_lp

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
