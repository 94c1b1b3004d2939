"""Backend dispatch and limit-handling tests."""

import numpy as np
import pytest

from repro.ilp import BnBOptions, Model, lin_sum, solve_milp
from repro.ilp.scipy_backend import scipy_milp_available, solve_with_scipy


def hard_model(n=26):
    """A small knapsack-ish instance with an awkward LP relaxation."""
    m = Model()
    xs = [m.add_binary(f"x{i}") for i in range(n)]
    weights = [(7 * i) % 13 + 3 for i in range(n)]
    values = [(5 * i) % 11 + 1 for i in range(n)]
    m.add_constr(lin_sum(w * x for w, x in zip(weights, xs)) <= sum(weights) // 3)
    m.maximize(lin_sum(v * x for v, x in zip(values, xs)))
    return m


class TestScipyBackend:
    def test_available(self):
        assert scipy_milp_available()

    def test_unbounded(self):
        m = Model()
        x = m.add_integer("x")
        m.maximize(x)
        out = solve_with_scipy(m.to_matrix_form())
        assert out.status == "unbounded"

    def test_infeasible(self):
        m = Model()
        x = m.add_binary("x")
        m.add_constr(x >= 1)
        m.add_constr(x <= 0)
        out = solve_with_scipy(m.to_matrix_form())
        assert out.status == "infeasible"

    def test_integer_values_snapped(self):
        m = hard_model(10)
        res = m.solve(backend="scipy")
        assert res.is_optimal
        for var, value in res.values.items():
            assert value in (0.0, 1.0)

    def test_mip_rel_gap_accepted(self):
        m = hard_model(10)
        out = solve_with_scipy(m.to_matrix_form(), mip_rel_gap=0.5)
        assert out.status == "optimal"  # loose gap still reports optimal here

    def test_no_constraints_model(self):
        m = Model()
        x = m.add_binary("x")
        m.minimize(-x)
        out = solve_with_scipy(m.to_matrix_form())
        assert out.status == "optimal"
        assert out.objective == pytest.approx(-1.0)


class TestBnBLimits:
    def test_time_limit_status(self):
        m = hard_model(26)
        out = solve_milp(m.to_matrix_form(), BnBOptions(time_limit=1e-6))
        assert out.status == "limit"

    def test_node_limit_may_return_incumbent(self):
        m = hard_model(20)
        out = solve_milp(m.to_matrix_form(), BnBOptions(node_limit=50))
        assert out.status in ("optimal", "limit")
        if out.x is not None:
            # Whatever incumbent exists must be feasible.
            values = {
                var: out.x[var.index] for var in m.to_matrix_form().variables
            }
            assert m.violated_constraints(values) == []

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_node_limit_is_never_exceeded(self, n):
        # The limits are checked before every node LP, so a depth-first
        # plunge cannot run past them.
        out = solve_milp(hard_model(20).to_matrix_form(), BnBOptions(node_limit=n))
        assert out.status == "limit"
        assert out.stats.nodes == n

    def test_solve_leaves_caller_options_unchanged(self):
        opts = BnBOptions()
        hard_model(12).solve(
            backend="bnb", options=opts, time_limit=5.0, mip_rel_gap=0.5
        )
        assert opts == BnBOptions()

    def test_plunge_depth_one(self):
        m = hard_model(12)
        out = solve_milp(m.to_matrix_form(), BnBOptions(plunge_depth=1))
        ref = m.solve(backend="scipy")
        assert out.status == "optimal"
        # maximize normalized to min internally; compare via model resolve
        res = m.solve(backend="bnb", options=BnBOptions(plunge_depth=1))
        assert res.objective == pytest.approx(ref.objective)


class TestAutoDispatch:
    def test_small_model_uses_bnb(self):
        m = Model()
        x = m.add_binary("x")
        m.minimize(x)
        res = m.solve(backend="auto")
        assert res.backend == "bnb"

    def test_large_model_uses_scipy(self):
        m = Model()
        xs = [m.add_binary(f"x{i}") for i in range(100)]
        m.add_constr(lin_sum(xs) >= 10)
        m.minimize(lin_sum(xs))
        res = m.solve(backend="auto")
        assert res.backend == "scipy"
        assert res.objective == pytest.approx(10.0)

    def test_wall_time_recorded(self):
        m = hard_model(8)
        res = m.solve(backend="scipy")
        assert res.wall_time > 0.0
