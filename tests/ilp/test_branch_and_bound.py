"""Branch-and-bound MILP solver: unit tests plus property-based
cross-checking against scipy's HiGHS on random instances."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import _make_cover
from repro.eps import build_eps_template, eps_spec
from repro.ilp import BnBOptions, LPResult, LPStatus, Model, lin_sum, solve_milp
from repro.ilp import branch_and_bound
from repro.ilp.branch_and_bound import _branch_var, _Pseudocosts
from repro.synthesis import synthesize_ilp_mr


def _solve_both(m: Model, warm_start: bool = True):
    ours = m.solve(backend="bnb", options=BnBOptions(warm_start=warm_start))
    ref = m.solve(backend="scipy")
    return ours, ref


class TestKnownInstances:
    def test_knapsack(self):
        m = Model()
        values = [10, 13, 7, 8, 6]
        weights = [3, 4, 2, 3, 2]
        xs = [m.add_binary(f"x{i}") for i in range(5)]
        m.add_constr(lin_sum(w * x for w, x in zip(weights, xs)) <= 7)
        m.maximize(lin_sum(v * x for v, x in zip(values, xs)))
        res = m.solve(backend="bnb")
        assert res.is_optimal
        assert res.objective == pytest.approx(23.0)  # items 0 and 1

    def test_set_cover(self):
        m = Model()
        xs = [m.add_binary(f"s{i}") for i in range(4)]
        # elements covered by subsets: e1:{0,1}, e2:{1,2}, e3:{2,3}
        m.add_constr(xs[0] + xs[1] >= 1)
        m.add_constr(xs[1] + xs[2] >= 1)
        m.add_constr(xs[2] + xs[3] >= 1)
        m.minimize(lin_sum(xs))
        res = m.solve(backend="bnb")
        assert res.objective == pytest.approx(2.0)  # {1, 2}

    def test_integer_rounding_gap(self):
        # LP relaxation is fractional; MILP optimum differs from LP.
        m = Model()
        x = m.add_integer("x", ub=10)
        y = m.add_integer("y", ub=10)
        m.add_constr(2 * x + 3 * y <= 7)
        m.maximize(x + 2 * y)
        res = m.solve(backend="bnb")
        assert res.is_optimal
        # LP relaxation gives x=0, y=7/3 (obj 14/3); the MILP optimum is 4.
        assert res.objective == pytest.approx(4.0)
        ref = m.solve(backend="scipy")
        assert res.objective == pytest.approx(ref.objective)

    def test_infeasible_integrality(self):
        # Feasible as LP (x = 0.5) but infeasible as pure integer problem.
        m = Model()
        x = m.add_integer("x", ub=1)
        m.add_constr(2 * x == 1)
        res = m.solve(backend="bnb")
        assert res.status == "infeasible"

    def test_unbounded(self):
        m = Model()
        x = m.add_integer("x")
        m.maximize(x)
        res = m.solve(backend="bnb")
        assert res.status == "unbounded"

    def test_mixed_integer_continuous(self):
        m = Model()
        x = m.add_integer("x", ub=5)
        y = m.add_continuous("y", ub=5)
        m.add_constr(x + y <= 4.5)
        m.maximize(2 * x + y)
        ours, ref = _solve_both(m)
        assert ours.objective == pytest.approx(ref.objective)
        assert float(ours[x]).is_integer()

    def test_equality_constrained(self):
        m = Model()
        xs = [m.add_binary(f"x{i}") for i in range(6)]
        m.add_constr(lin_sum(xs) == 3)
        m.minimize(lin_sum((i + 1) * x for i, x in enumerate(xs)))
        res = m.solve(backend="bnb")
        assert res.objective == pytest.approx(6.0)  # 1+2+3

    def test_node_limit_reports_limit(self):
        m = Model()
        xs = [m.add_binary(f"x{i}") for i in range(30)]
        m.add_constr(lin_sum(xs) >= 15)
        # Intricate parity-ish constraints to keep the tree alive briefly.
        for i in range(0, 28, 2):
            m.add_constr(xs[i] + xs[i + 1] <= 1)
        m.minimize(lin_sum((1 + (i % 7)) * x for i, x in enumerate(xs)))
        out = solve_milp(m.to_matrix_form(), BnBOptions(node_limit=1))
        assert out.status in ("limit", "optimal")


@st.composite
def random_milp(draw):
    n = draw(st.integers(2, 7))
    m_rows = draw(st.integers(1, 5))
    coef = st.integers(-4, 4)
    c = [draw(coef) for _ in range(n)]
    a = [[draw(coef) for _ in range(n)] for _ in range(m_rows)]
    b = [draw(st.integers(0, 8)) for _ in range(m_rows)]  # x=0 feasible
    return c, a, b


@pytest.mark.parametrize("warm_start", [True, False])
@given(problem=random_milp())
@settings(max_examples=60, deadline=None)
def test_bnb_matches_highs_on_random_binaries(problem, warm_start):
    c, a, b = problem
    m = Model()
    xs = [m.add_binary(f"x{i}") for i in range(len(c))]
    for row, rhs in zip(a, b):
        m.add_constr(lin_sum(coef * x for coef, x in zip(row, xs)) <= rhs)
    m.minimize(lin_sum(coef * x for coef, x in zip(c, xs)))
    ours, ref = _solve_both(m, warm_start)
    assert ours.is_optimal and ref.is_optimal
    assert ours.objective == pytest.approx(ref.objective, abs=1e-6)
    # Our incumbent must satisfy every constraint exactly.
    assert m.violated_constraints(ours.values) == []


@pytest.mark.parametrize("warm_start", [True, False])
@given(problem=random_milp())
@settings(max_examples=30, deadline=None)
def test_bnb_matches_highs_on_random_general_integers(problem, warm_start):
    c, a, b = problem
    m = Model()
    xs = [m.add_integer(f"x{i}", ub=3) for i in range(len(c))]
    for row, rhs in zip(a, b):
        m.add_constr(lin_sum(coef * x for coef, x in zip(row, xs)) <= rhs)
    m.minimize(lin_sum(coef * x for coef, x in zip(c, xs)))
    ours, ref = _solve_both(m, warm_start)
    assert ours.is_optimal and ref.is_optimal
    assert ours.objective == pytest.approx(ref.objective, abs=1e-6)


def _branch_var_loop(x, int_mask, pseudo):
    """Reference: a per-variable loop over the integer columns."""
    fractional = [
        int(j) for j in np.flatnonzero(int_mask) if abs(x[j] - round(x[j])) > 1e-6
    ]
    if not fractional:
        return None
    return max(fractional, key=lambda j: pseudo.score(j, x[j] - math.floor(x[j])))


@given(
    x=st.lists(
        st.sampled_from([0.0, 1.0, 2.0, 0.5, 1.5, 0.25, 3e-7, 1 - 3e-7, 1e-5])
        | st.floats(-4, 4),
        min_size=1, max_size=10,
    ),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_branch_var_matches_loop_reference(x, data):
    x = np.array(x)
    int_mask = np.array(data.draw(st.lists(st.booleans(), min_size=len(x),
                                           max_size=len(x))))
    pseudo = _Pseudocosts(len(x))
    for _ in range(data.draw(st.integers(0, 6))):
        pseudo.update(
            data.draw(st.integers(0, len(x) - 1)),
            data.draw(st.sampled_from(["up", "down"])),
            data.draw(st.floats(0.01, 0.99)),
            data.draw(st.sampled_from([0.0, 1.0, 2.5, 1e6])),
        )
    assert _branch_var(x, np.flatnonzero(int_mask), pseudo) == _branch_var_loop(
        x, int_mask, pseudo
    )


def _two_triangles() -> Model:
    """Six binaries covering two triangles: LP bound 3.0, optimum 4.0."""
    m = Model("two-triangles")
    xs = [m.add_binary(f"x{i}") for i in range(6)]
    for t in (0, 3):
        a, b, c = xs[t], xs[t + 1], xs[t + 2]
        m.add_constr(a + b >= 1)
        m.add_constr(b + c >= 1)
        m.add_constr(a + c >= 1)
    m.minimize(lin_sum(xs))
    return m


class TestUnresolvedNodeLPs:
    """A node LP that hits its iteration cap must not prune its subtree."""

    def test_unresolvable_lps_end_in_limit(self, monkeypatch):
        monkeypatch.setattr(
            branch_and_bound, "solve_lp",
            lambda *args, **kwargs: LPResult(LPStatus.ITERATION_LIMIT,
                                             math.nan, None, 7),
        )
        out = solve_milp(_two_triangles().to_matrix_form())
        assert out.status == "limit"
        assert out.x is None
        assert out.stats.lp_iterations == 7  # one attempt, no retry


class TestNodeLPsSolvedOnce:
    """A child LP solved for pseudocost seeding is not solved again when
    the search opens that child."""

    @staticmethod
    def _record_searches(monkeypatch):
        real_lp = branch_and_bound.solve_lp
        real_search = branch_and_bound._solve_milp_search
        searches = []

        def solve_lp(c, a, senses, b, lb, ub, **kwargs):
            res = real_lp(c, a, senses, b, lb, ub, **kwargs)
            basis = kwargs.get("warm_basis")
            warm = None if basis is None else (
                basis.var_status.tobytes(), basis.row_status.tobytes()
            )
            searches[-1]["keys"].append((lb.tobytes(), ub.tobytes(), warm))
            searches[-1]["iterations"] += res.iterations
            return res

        def search(*args, **kwargs):
            searches.append({"keys": [], "iterations": 0})
            out = real_search(*args, **kwargs)
            searches[-1]["stats"] = out.stats
            return out

        monkeypatch.setattr(branch_and_bound, "solve_lp", solve_lp)
        monkeypatch.setattr(branch_and_bound, "_solve_milp_search", search)
        return searches

    @staticmethod
    def _assert_no_repeats(searches):
        assert searches
        for s in searches:
            # Same bounds and warm basis on the same equality form: solve_lp
            # is deterministic in its arguments, so a repeat is wasted work.
            assert len(set(s["keys"])) == len(s["keys"])
            assert s["stats"].lp_iterations == s["iterations"]

    def test_cover_search(self, monkeypatch):
        searches = self._record_searches(monkeypatch)
        out = solve_milp(_make_cover(40, 60, seed=40).to_matrix_form())
        assert out.status == "optimal"
        assert out.objective == pytest.approx(121.0)
        assert len(searches) == 1
        self._assert_no_repeats(searches)

    def test_ilp_mr_searches(self, monkeypatch):
        searches = self._record_searches(monkeypatch)
        spec = eps_spec(build_eps_template(num_generators=2),
                        reliability_target=6.5e-4)
        result = synthesize_ilp_mr(spec, backend="bnb")
        assert result.cost == 12012.0
        assert len(searches) == len(result.iterations) >= 2
        self._assert_no_repeats(searches)
