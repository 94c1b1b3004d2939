"""Property-based tests for the synthesis algorithms' contracts.

Theorem 1 (ILP-MR soundness and completeness) and Theorem 3 (ILP-AR)
translate into machine-checkable properties:

* soundness — a returned architecture satisfies every interconnection
  requirement and (for MR/TSE) the reliability requirement exactly;
* completeness — UNFEASIBLE is returned only when even the *maximal*
  configuration (every allowed edge active) misses the requirement.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.arch import Architecture, ArchitectureTemplate, ComponentSpec, Library, Role
from repro.reliability import worst_case_failure
from repro.synthesis import (
    IfFeedsThenFed,
    RequireIncomingEdge,
    SynthesisSpec,
    synthesize_ilp_ar,
    synthesize_ilp_mr,
)


def _layered_spec(n_gen, n_bus, p, switch_cost, edges, r_star):
    """A gen->bus->load spec over the allowed ``edges`` (name pairs)."""
    lib = Library(switch_cost=switch_cost)
    for i in range(n_gen):
        lib.add(ComponentSpec(f"G{i}", "gen", cost=10, capacity=100,
                              failure_prob=p, role=Role.SOURCE))
    for i in range(n_bus):
        lib.add(ComponentSpec(f"B{i}", "bus", cost=5, failure_prob=p))
    lib.add(ComponentSpec("L0", "load", demand=10, role=Role.SINK))
    lib.set_type_order(["gen", "bus", "load"])
    names = [f"G{i}" for i in range(n_gen)] + [f"B{i}" for i in range(n_bus)] + ["L0"]
    t = ArchitectureTemplate(lib, names)
    for src, dst in edges:
        t.allow_edge(src, dst)
    return SynthesisSpec(
        template=t,
        requirements=[
            RequireIncomingEdge(nodes=["L0"], k=1),
            IfFeedsThenFed(via=[f"B{j}" for j in range(n_bus)],
                           downstream=["L0"],
                           upstream=[f"G{i}" for i in range(n_gen)]),
        ],
        reliability_target=r_star,
    )


@st.composite
def random_spec(draw):
    """Random small layered gen->bus->load synthesis problems."""
    n_gen = draw(st.integers(1, 3))
    n_bus = draw(st.integers(1, 3))
    p = draw(st.sampled_from([1e-3, 1e-2, 5e-2]))
    switch_cost = draw(st.sampled_from([0.0, 1.0, 10.0]))
    # random allowed edges, at least one full chain guaranteed
    edges = [("G0", "B0"), ("B0", "L0")]
    for i in range(n_gen):
        for j in range(n_bus):
            if (i, j) != (0, 0) and draw(st.booleans()):
                edges.append((f"G{i}", f"B{j}"))
    for j in range(1, n_bus):
        if draw(st.booleans()):
            edges.append((f"B{j}", "L0"))
    r_star = draw(st.sampled_from([0.5, 1e-2, 1e-4, 1e-7, 1e-12]))
    return _layered_spec(n_gen, n_bus, p, switch_cost, edges, r_star)


def _saturated_spec(r_star=1e-4):
    """A spec where LEARNCONS saturates before r* is met: at iteration 4
    the candidate uses all six components (cost 45, r = 1.02e-4) and no
    component count can rise, but adding G2-B0 meets r* = 1e-4."""
    edges = [("G0", "B0"), ("B0", "L0"), ("G0", "B1"), ("G1", "B2"),
             ("G2", "B0"), ("G2", "B2"), ("B1", "L0"), ("B2", "L0")]
    return _layered_spec(3, 3, 1e-2, 0.0, edges, r_star)


@given(random_spec())
@example(_saturated_spec())
@settings(max_examples=25, deadline=None)
def test_ilp_mr_sound_and_complete(spec):
    result = synthesize_ilp_mr(spec, backend="scipy")
    maximal = Architecture(spec.template, spec.template.allowed_edges)
    r_max, _ = worst_case_failure(maximal, spec.sinks())

    if result.feasible:
        # Soundness: reliability requirement met exactly.
        r, _ = worst_case_failure(result.architecture, spec.sinks())
        assert r <= spec.reliability_target * (1 + 1e-9)
        # Load is connected per the interconnection requirements.
        sink_idx = spec.template.index_of("L0")
        assert any(j == sink_idx for (_, j) in result.architecture.edges)
    else:
        # Completeness (Theorem 1): even the maximal architecture fails.
        assert r_max > spec.reliability_target


@pytest.mark.parametrize("backend", ["scipy", "bnb"])
def test_ilp_mr_asks_for_an_edge_when_learncons_saturates(backend):
    result = synthesize_ilp_mr(_saturated_spec(), backend=backend)
    assert result.status == "optimal"
    assert result.cost == 45.0
    assert len(result.iterations) == 5
    # Iteration 4 used every component; its one learned row is the cut.
    assert [it.learned_constraints for it in result.iterations][3:] == [1, 0]


@pytest.mark.parametrize("backend", ["scipy", "bnb"])
def test_ilp_mr_saturated_and_unreachable_is_infeasible(backend):
    # Every allowed edge together reads r = 3.98e-6.
    result = synthesize_ilp_mr(_saturated_spec(r_star=1e-7), backend=backend)
    assert result.status == "infeasible"
    assert result.iterations[-1].learned_constraints == 0


@given(random_spec())
@settings(max_examples=20, deadline=None)
def test_ilp_ar_soundness_on_its_own_metric(spec):
    from repro.reliability import approximate_failure

    result = synthesize_ilp_ar(spec, backend="scipy")
    if result.feasible:
        # The algebra's estimate of the returned architecture meets r*.
        for sink in spec.sinks():
            approx = approximate_failure(result.architecture, sink)
            assert approx.r_tilde <= spec.reliability_target * (1 + 1e-6)


@given(random_spec())
@settings(max_examples=15, deadline=None)
def test_mr_never_cheaper_than_interconnection_minimum(spec):
    """Reliability constraints can only increase the optimal cost."""
    base = SynthesisSpec(
        template=spec.template,
        requirements=list(spec.requirements),
        reliability_target=None,
    )
    enc = base.build_encoder()
    unconstrained = enc.solve(backend="scipy")
    assert unconstrained.is_optimal
    result = synthesize_ilp_mr(spec, backend="scipy")
    if result.feasible:
        assert result.cost >= unconstrained.objective - 1e-6
