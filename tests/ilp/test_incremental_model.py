"""Incremental export, basis extension, and cross-solve warm contexts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ilp import (
    AutoTuning,
    BnBOptions,
    Model,
    WarmStartContext,
    extend_basis,
    lin_sum,
    solve,
)
from repro.ilp.branch_and_bound import solve_milp
from repro.ilp.incremental import AT_LOWER, BASIC
from repro.ilp.simplex import LPBasis


def grown_model(extra_rows=0):
    m = Model("grow")
    xs = [m.add_binary(f"x{i}") for i in range(6)]
    m.add_constr(lin_sum(xs) >= 2, tag="base")
    m.add_constr(xs[0] + xs[1] <= 1, tag="base")
    m.minimize(lin_sum([(i + 1) * x for i, x in enumerate(xs)]))
    for r in range(extra_rows):
        m.add_constr(lin_sum(xs[r % 3:]) >= 1, tag="learned")
    return m, xs


class TestIncrementalExport:
    def test_incremental_matches_full(self):
        m, xs = grown_model()
        base = m.to_matrix_form()
        m.add_constr(xs[2] + xs[3] + xs[4] >= 2)
        m.add_constr(lin_sum(xs) >= 3)
        inc = m.to_matrix_form(base=base)
        full = m.to_matrix_form()
        np.testing.assert_array_equal(inc.A.toarray(), full.A.toarray())
        np.testing.assert_array_equal(inc.b, full.b)
        np.testing.assert_array_equal(inc.c, full.c)
        assert inc.senses == full.senses
        np.testing.assert_array_equal(inc.lb, full.lb)
        np.testing.assert_array_equal(inc.ub, full.ub)
        np.testing.assert_array_equal(inc.integrality, full.integrality)

    def test_incremental_with_new_variables(self):
        m, xs = grown_model()
        base = m.to_matrix_form()
        y = m.add_binary("y")
        m.add_constr(y + xs[0] >= 1)
        inc = m.to_matrix_form(base=base)
        full = m.to_matrix_form()
        np.testing.assert_array_equal(inc.A.toarray(), full.A.toarray())
        assert inc.num_vars == full.num_vars == 7

    def test_foreign_base_falls_back_to_full(self):
        m1, _ = grown_model()
        m2, _ = grown_model(extra_rows=1)
        foreign = m1.to_matrix_form()
        out = m2.to_matrix_form(base=foreign)
        full = m2.to_matrix_form()
        np.testing.assert_array_equal(out.A.toarray(), full.A.toarray())

    def test_objective_changes_are_picked_up(self):
        m, xs = grown_model()
        base = m.to_matrix_form()
        m.maximize(lin_sum(xs))
        inc = m.to_matrix_form(base=base)
        # maximize is normalized to min of the negation
        assert inc.c == pytest.approx(-np.ones(6))


@st.composite
def growing_model(draw):
    n = draw(st.integers(2, 6))
    rows = draw(st.integers(1, 4))
    extra = draw(st.integers(1, 4))
    coef = st.integers(-3, 3)
    return (
        n,
        [[draw(coef) for _ in range(n)] for _ in range(rows + extra)],
        [draw(st.integers(0, 6)) for _ in range(rows + extra)],
        rows,
    )


@given(growing_model())
@settings(max_examples=60, deadline=None)
def test_incremental_export_equals_full_property(problem):
    n, rows, rhs, split = problem
    m = Model("prop")
    xs = [m.add_binary(f"x{i}") for i in range(n)]
    m.minimize(lin_sum(xs))
    for row, r in zip(rows[:split], rhs[:split]):
        m.add_constr(lin_sum([c * x for c, x in zip(row, xs)]) <= r)
    base = m.to_matrix_form()
    for row, r in zip(rows[split:], rhs[split:]):
        m.add_constr(lin_sum([c * x for c, x in zip(row, xs)]) <= r)
    inc = m.to_matrix_form(base=base)
    full = m.to_matrix_form()
    np.testing.assert_array_equal(inc.A.toarray(), full.A.toarray())
    np.testing.assert_array_equal(inc.b, full.b)
    assert inc.senses == full.senses


class TestExtendBasis:
    def test_new_rows_get_basic_slacks(self):
        m, xs = grown_model()
        old = m.to_matrix_form()
        basis = LPBasis(
            var_status=np.zeros(old.num_vars, dtype=np.int8),
            row_status=np.full(old.num_constrs, BASIC, dtype=np.int8),
        )
        m.add_constr(lin_sum(xs) >= 3)
        new = m.to_matrix_form(base=old)
        ext = extend_basis(basis, old, new)
        assert ext is not None
        assert len(ext.row_status) == new.num_constrs
        assert ext.row_status[-1] == BASIC
        np.testing.assert_array_equal(
            ext.var_status, basis.var_status
        )

    def test_new_variables_enter_at_lower(self):
        m, xs = grown_model()
        old = m.to_matrix_form()
        basis = LPBasis(
            var_status=np.zeros(old.num_vars, dtype=np.int8),
            row_status=np.full(old.num_constrs, BASIC, dtype=np.int8),
        )
        y = m.add_binary("y")
        m.add_constr(y + xs[0] >= 1)
        new = m.to_matrix_form(base=old)
        ext = extend_basis(basis, old, new)
        assert ext is not None
        assert ext.var_status[-1] == AT_LOWER

    def test_appended_equality_row_invalidates(self):
        m, xs = grown_model()
        old = m.to_matrix_form()
        basis = LPBasis(
            var_status=np.zeros(old.num_vars, dtype=np.int8),
            row_status=np.full(old.num_constrs, BASIC, dtype=np.int8),
        )
        m.add_constr(lin_sum(xs) == 3)
        new = m.to_matrix_form(base=old)
        assert extend_basis(basis, old, new) is None

    def test_mismatched_shapes_invalidate(self):
        m, _ = grown_model()
        form = m.to_matrix_form()
        wrong = LPBasis(
            var_status=np.zeros(2, dtype=np.int8),
            row_status=np.zeros(1, dtype=np.int8),
        )
        assert extend_basis(wrong, form, form) is None


class TestWarmStartContext:
    def test_grown_model_resolves_to_cold_optimum(self):
        m, xs = grown_model()
        ctx = WarmStartContext()
        first = solve(m, backend="bnb", warm=ctx)
        assert first.is_optimal
        assert ctx.basis is not None
        assert ctx.incumbent is not None

        m.add_constr(lin_sum(xs) >= 4)  # cuts off the previous optimum
        warm = solve(m, backend="bnb", warm=ctx)
        cold = solve_milp(m.to_matrix_form(), BnBOptions())
        assert warm.is_optimal
        assert warm.objective == pytest.approx(cold.objective)

    def test_context_survives_repeated_growth(self):
        m, xs = grown_model()
        ctx = WarmStartContext()
        reference = None
        for k in (2, 3, 4, 5):
            # replace target: grow one constraint per round
            m.add_constr(lin_sum(xs) >= k)
            warm = solve(m, backend="bnb", warm=ctx)
            cold = solve_milp(m.to_matrix_form(), BnBOptions())
            assert warm.objective == pytest.approx(cold.objective)
            if reference is not None:
                assert warm.objective >= reference - 1e-9  # tightening
            reference = warm.objective

    def test_incumbent_padded_for_new_variables(self):
        m, xs = grown_model()
        ctx = WarmStartContext()
        solve(m, backend="bnb", warm=ctx)
        y = m.add_binary("y")
        m.add_constr(y + xs[0] >= 1)
        solve(m, backend="bnb", warm=ctx)
        assert len(ctx.incumbent) == m.num_vars


class TestAutoTuningKnobs:
    def make(self, n):
        m = Model()
        xs = [m.add_binary(f"x{i}") for i in range(n)]
        m.add_constr(lin_sum(xs) >= 1)
        m.minimize(lin_sum(xs))
        return m

    def test_per_call_override(self):
        res = solve(self.make(10), backend="auto", tuning=AutoTuning(scipy_vars=5))
        assert res.backend == "scipy"
        res = solve(
            self.make(10), backend="auto",
            tuning=AutoTuning(scipy_vars=500, scipy_constrs=500),
        )
        assert res.backend == "bnb"
