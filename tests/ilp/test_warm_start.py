"""Warm-start machinery: dual-simplex reseeding, incumbent seeding, obs.

The acceptance contract for the incremental MILP core:

* a warm re-solve reaches the same optimum as a cold solve (bit-identical
  costs on the integer models) in fewer iterations;
* warm-started node LPs skip phase 1, observable through the
  ``ilp.simplex.phase1_skips`` counter;
* Bland's-rule cutover scales with problem size instead of kicking in at
  an absolute iteration count.
"""

import math
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.eps import build_eps_template, eps_spec
from repro.ilp import BnBOptions, LPStatus, bland_cutover, solve_lp
from repro.ilp.branch_and_bound import solve_milp
from repro.ilp.simplex import _BASIC, _BoundedSimplex

INF = math.inf


def eps_form(gens=2):
    spec = eps_spec(
        build_eps_template(num_generators=gens), reliability_target=1e-4
    )
    return spec.build_encoder().model.to_matrix_form()


class TestWarmLP:
    def test_resolve_same_problem_is_free(self):
        form = eps_form()
        a = form.A
        base = solve_lp(
            form.c, a, form.senses, form.b, form.lb, form.ub, want_basis=True
        )
        assert base.status is LPStatus.OPTIMAL
        assert base.basis is not None
        again = solve_lp(
            form.c, a, form.senses, form.b, form.lb, form.ub,
            warm_basis=base.basis,
        )
        assert again.warm_started
        assert again.iterations == 0
        assert again.objective == pytest.approx(base.objective)

    def test_bound_tightening_reoptimizes_dually(self):
        form = eps_form()
        a = form.A
        base = solve_lp(
            form.c, a, form.senses, form.b, form.lb, form.ub, want_basis=True
        )
        frac = [
            j for j in range(form.num_vars)
            if form.integrality[j] and abs(base.x[j] - round(base.x[j])) > 1e-6
        ]
        assert frac, "EPS relaxation should be fractional"
        ub = form.ub.copy()
        ub[frac[0]] = 0.0

        cold = solve_lp(form.c, a, form.senses, form.b, form.lb, ub)
        warm = solve_lp(
            form.c, a, form.senses, form.b, form.lb, ub,
            warm_basis=base.basis,
        )
        assert warm.warm_started
        assert warm.status is cold.status is LPStatus.OPTIMAL
        assert warm.objective == pytest.approx(cold.objective, rel=1e-7)
        assert warm.iterations < cold.iterations
        assert warm.dual_pivots > 0

    def test_stale_basis_falls_back_to_cold(self):
        form = eps_form()
        a = form.A
        base = solve_lp(
            form.c, a, form.senses, form.b, form.lb, form.ub, want_basis=True
        )
        # A basis for a different shape must be ignored, not crash.
        res = solve_lp(
            form.c[:-1], a[:, :-1], form.senses, form.b,
            form.lb[:-1], form.ub[:-1], warm_basis=base.basis,
        )
        assert not res.warm_started
        assert res.status in (LPStatus.OPTIMAL, LPStatus.INFEASIBLE)

    def test_capped_warm_solve_is_the_cold_solve(self):
        # Branch-and-bound does not retry an ITERATION_LIMIT node LP cold:
        # solve_lp already restarts a capped warm attempt cold, with a
        # fresh budget, so its answer is the cold call's.
        form = eps_form()
        a = form.A
        base = solve_lp(
            form.c, a, form.senses, form.b, form.lb, form.ub, want_basis=True
        )
        frac = [
            j for j in range(form.num_vars)
            if form.integrality[j] and abs(base.x[j] - round(base.x[j])) > 1e-6
        ]
        ub = form.ub.copy()
        ub[frac[0]] = 0.0
        uncapped = solve_lp(form.c, a, form.senses, form.b, form.lb, ub,
                            warm_basis=base.basis)
        assert uncapped.warm_started and uncapped.iterations >= 2
        cap = uncapped.iterations - 1
        warm = solve_lp(form.c, a, form.senses, form.b, form.lb, ub,
                        max_iterations=cap, warm_basis=base.basis,
                        want_basis=True)
        cold = solve_lp(form.c, a, form.senses, form.b, form.lb, ub,
                        max_iterations=cap, want_basis=True)
        assert warm.status is cold.status is LPStatus.ITERATION_LIMIT
        assert not warm.warm_started
        for field in ("iterations", "dual_pivots", "x", "basis",
                      "warm_started"):
            assert getattr(warm, field) == getattr(cold, field), field
        assert math.isnan(warm.objective) and math.isnan(cold.objective)


@st.composite
def tightened_lp(draw):
    """A bounded LP plus one variable bound to tighten after the first solve."""
    n = draw(st.integers(2, 5))
    m = draw(st.integers(1, 4))
    coef = st.integers(-5, 5)
    c = [draw(coef) for _ in range(n)]
    a = [[draw(coef) for _ in range(n)] for _ in range(m)]
    b = [draw(st.integers(1, 10)) for _ in range(m)]
    ub = [draw(st.integers(2, 6)) for _ in range(n)]
    var = draw(st.integers(0, n - 1))
    return c, a, b, ub, var


@given(tightened_lp())
@settings(max_examples=80, deadline=None)
def test_warm_equals_cold_after_tightening(problem):
    c, a, b, ub, var = problem
    n = len(c)
    c = np.asarray(c, float)
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    lb = np.zeros(n)
    ub = np.asarray(ub, float)
    senses = ["<="] * len(b)

    base = solve_lp(c, a, senses, b, lb, ub, want_basis=True)
    assert base.status is LPStatus.OPTIMAL  # x=0 feasible by construction
    tight_ub = ub.copy()
    tight_ub[var] = max(lb[var], math.floor(base.x[var] / 2.0))

    cold = solve_lp(c, a, senses, b, lb, tight_ub)
    warm = solve_lp(c, a, senses, b, lb, tight_ub, warm_basis=base.basis)
    assert cold.status is LPStatus.OPTIMAL
    assert warm.status is LPStatus.OPTIMAL
    assert warm.objective == pytest.approx(cold.objective, abs=1e-6)


@contextmanager
def _fresh_reduced_cost_check():
    """Compare, at every dual pivot, the reduced costs the dual ratio test
    receives with a fresh ``_reduced_costs`` on the movable nonbasic
    columns; yields the list of relative drifts checked."""
    real_dual = _BoundedSimplex._dual
    real_ratio_test = _BoundedSimplex._dual_ratio_test
    costs, drifts = [], []

    def dual(self, c, *args, **kwargs):
        costs.append(c)
        try:
            return real_dual(self, c, *args, **kwargs)
        finally:
            costs.pop()

    def dual_ratio_test(self, reduced, alpha, to_lower):
        c = costs[-1]
        fresh = self._reduced_costs(c)
        k = self.priced
        movable = (self.status_flags[:k] != _BASIC) & (self.lb[:k] != self.ub[:k])
        drift = np.abs(reduced[movable] - fresh[movable]).max(initial=0.0)
        drifts.append(drift / max(1.0, np.abs(c).max()))
        assert drifts[-1] <= 1e-9
        return real_ratio_test(self, reduced, alpha, to_lower)

    with mock.patch.object(_BoundedSimplex, "_dual", dual), \
            mock.patch.object(_BoundedSimplex, "_dual_ratio_test",
                              dual_ratio_test):
        yield drifts


class TestDualReducedCosts:
    """The dual simplex updates its reduced costs from the pivot row; they
    must track a fresh computation up to round-off."""

    def test_tightened_lps(self):
        @given(tightened_lp())
        @settings(max_examples=80, deadline=None)
        def warm_resolve(problem):
            c, a, b, ub, var = problem
            c, a, b = (np.asarray(v, float) for v in (c, a, b))
            lb, ub = np.zeros(len(c)), np.asarray(ub, float)
            senses = ["<="] * len(b)
            base = solve_lp(c, a, senses, b, lb, ub, want_basis=True)
            tight_ub = ub.copy()
            tight_ub[var] = max(lb[var], math.floor(base.x[var] / 2.0))
            solve_lp(c, a, senses, b, lb, tight_ub, warm_basis=base.basis)

        with _fresh_reduced_cost_check() as drifts:
            warm_resolve()
        assert drifts

    def test_eps_bnb_search(self):
        with _fresh_reduced_cost_check() as drifts:
            out = solve_milp(eps_form(), BnBOptions())
        assert out.status == "optimal"
        assert drifts


class TestWarmBnB:
    def test_warm_and_cold_reach_identical_optimum(self):
        form = eps_form()
        cold = solve_milp(form, BnBOptions(warm_start=False))
        warm = solve_milp(form, BnBOptions(warm_start=True))
        assert cold.status == warm.status == "optimal"
        assert warm.objective == cold.objective  # bit-identical cost
        assert warm.stats.warm_lp_solves > 0
        assert warm.stats.lp_iterations < cold.stats.lp_iterations

    def test_incumbent_seeding_prunes(self):
        form = eps_form()
        first = solve_milp(form, BnBOptions())
        seeded = solve_milp(form, BnBOptions(), incumbent=first.x)
        assert seeded.stats.seeded_incumbent
        assert seeded.objective == first.objective
        assert seeded.stats.nodes <= first.stats.nodes
        # Prunes attributable to the seed are tracked separately.
        assert seeded.stats.seed_pruned_nodes > 0

    def test_invalid_incumbent_is_ignored(self):
        form = eps_form()
        bad = np.full(form.num_vars, 0.5)  # fractional: not MILP-feasible
        out = solve_milp(form, BnBOptions(), incumbent=bad)
        assert not out.stats.seeded_incumbent
        assert out.status == "optimal"
        short = np.zeros(3)  # wrong length: stale from an older model
        out2 = solve_milp(form, BnBOptions(), incumbent=short)
        assert not out2.stats.seeded_incumbent
        assert out2.objective == out.objective

    def test_root_basis_exported(self):
        form = eps_form()
        out = solve_milp(form, BnBOptions())
        assert out.root_basis is not None
        assert len(out.root_basis.var_status) == form.num_vars
        assert len(out.root_basis.row_status) == form.num_constrs


class TestInstrumentation:
    def test_warm_node_solves_skip_phase1(self):
        """Acceptance check: warm hits show up in the obs counters."""
        form = eps_form()
        previous = obs.get_tracer()
        obs.set_tracer(obs.Tracer())
        try:
            before = obs.snapshot()
            solve_milp(form, BnBOptions(warm_start=True))
            after = obs.snapshot()
        finally:
            obs.set_tracer(previous)

        def delta(name):
            prev = before.get(name, {}).get("value", 0)
            return after.get(name, {}).get("value", 0) - prev

        assert delta("ilp.bnb.warm_lp_solves") > 0
        assert delta("ilp.simplex.warm_starts") > 0
        # Every warm start that kept its basis skipped phase 1.
        assert delta("ilp.simplex.phase1_skips") >= delta(
            "ilp.bnb.warm_lp_solves"
        )
        assert delta("ilp.simplex.cold_starts") >= 1  # the root

    def test_counters_silent_without_tracer(self):
        form = eps_form()
        before = obs.snapshot()
        solve_milp(form, BnBOptions(warm_start=True))
        assert obs.snapshot() == before


class TestBlandCutover:
    def test_scales_with_problem_size(self):
        assert bland_cutover(1, 1) == 2000  # floor for tiny problems
        assert bland_cutover(500, 500) == 10000
        assert bland_cutover(2000, 1000) == 30000

    def test_degenerate_stack_still_terminates(self):
        # Heavily degenerate LP (many duplicate active rows) large enough
        # that the old absolute cutover (2000) would have flipped mid-solve:
        # termination + the right optimum is the regression contract.
        rng = np.random.default_rng(3)
        n, m = 60, 240
        a = np.repeat(rng.integers(0, 3, size=(m // 4, n)), 4, axis=0).astype(float)
        b = np.repeat(np.full(m // 4, 30.0), 4)
        c = -np.ones(n)
        res = solve_lp(
            c, a, ["<="] * m, b, np.zeros(n), np.full(n, 10.0)
        )
        assert res.status is LPStatus.OPTIMAL
        from scipy.optimize import linprog
        ref = linprog(c, A_ub=a, b_ub=b, bounds=[(0, 10)] * n, method="highs")
        assert res.objective == pytest.approx(ref.fun, abs=1e-6)
