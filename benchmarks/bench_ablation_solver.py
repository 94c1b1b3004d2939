"""Ablation — MILP backends on synthesis models.

Compares the from-scratch branch-and-bound (DESIGN.md's "no external
optimizer" path) against HiGHS on the paper-template GENILP model and
checks that both reach the same optimum. Also quantifies what the
symmetry-breaking requirement buys on a learned-constraint model (DESIGN.md
decision: EPS packs declare interchangeable orbits).
"""

import pytest

from conftest import emit
from repro.eps import build_eps_template, eps_requirements, eps_spec
from repro.ilp import solve_milp
from repro.synthesis import SymmetryBreaking, SynthesisSpec, synthesize_ilp_mr


def base_model(num_generators: int = 2):
    """The iteration-1 GENILP model of a small EPS template.

    The from-scratch solver refactorizes a dense basis per simplex
    iteration, so its ablation runs at |V| = 10 (2 generators); HiGHS gets
    the same instance for an apples-to-apples optimum check and is
    additionally timed at |V| = 20.
    """
    spec = eps_spec(
        build_eps_template(num_generators=num_generators), reliability_target=None
    )
    enc = spec.build_encoder()
    return enc.model.to_matrix_form()


@pytest.mark.benchmark(group="ablation-solver")
def test_own_bnb_on_genilp(benchmark):
    form = base_model()
    out = benchmark.pedantic(
        lambda: solve_milp(form),
        rounds=1, iterations=1,
    )
    assert out.status == "optimal"


@pytest.mark.benchmark(group="ablation-solver")
@pytest.mark.parametrize("gens", [2, 4])
def test_highs_on_genilp(benchmark, gens):
    from repro.ilp.scipy_backend import solve_with_scipy

    form = base_model(gens)
    out = benchmark.pedantic(lambda: solve_with_scipy(form), rounds=1, iterations=1)
    assert out.status == "optimal"


@pytest.mark.benchmark(group="ablation-solver")
def test_backends_agree_on_genilp(benchmark):
    from repro.ilp.scipy_backend import solve_with_scipy

    form = base_model()

    def both():
        ours = solve_milp(form)
        ref = solve_with_scipy(form)
        return ours, ref

    ours, ref = benchmark.pedantic(both, rounds=1, iterations=1)
    assert ours.objective == pytest.approx(ref.objective, abs=1e-6)


@pytest.mark.benchmark(group="ablation-symmetry")
def test_symmetry_breaking_value(benchmark):
    """ILP-MR on the 20-node template with and without orbit constraints.

    Same optimum either way; the ablation records the wall-clock delta that
    motivated making SymmetryBreaking part of the standard EPS pack.
    """
    template = build_eps_template(num_generators=4)
    with_sb = [r for r in eps_requirements(template)]
    without_sb = [r for r in with_sb if not isinstance(r, SymmetryBreaking)]

    def run(requirements):
        spec = SynthesisSpec(
            template=template,
            requirements=requirements,
            reliability_target=1e-11,
        )
        return synthesize_ilp_mr(spec, backend="scipy", mip_rel_gap=2e-2)

    def both():
        return run(with_sb), run(without_sb)

    res_with, res_without = benchmark.pedantic(both, rounds=1, iterations=1)
    assert res_with.feasible and res_without.feasible
    # Orbit ordering must not change the achievable optimum (within gap).
    assert res_with.cost == pytest.approx(res_without.cost, rel=5e-2)
    emit(
        None,
        "Ablation: symmetry breaking on ILP-MR (|V| = 20, r* = 1e-11)",
        ["variant", "solver (s)", "cost", "#iter"],
        [
            ("with orbits", f"{res_with.solver_time:.1f}", f"{res_with.cost:.6g}",
             res_with.num_iterations),
            ("without", f"{res_without.solver_time:.1f}", f"{res_without.cost:.6g}",
             res_without.num_iterations),
        ],
    )
