"""Cross-checking the exact reliability engines against each other, against
closed forms, and against Monte-Carlo — including the paper's Example 1."""

import math

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.reliability import (
    ReliabilityProblem,
    cross_check,
    failure_probability,
    failure_probability_bdd,
    failure_probability_factoring,
    failure_probability_ie,
    failure_probability_mc,
    failure_probability_sdp,
    minimal_cut_sets,
    minimal_path_sets,
)

ENGINES = ["bdd", "factoring", "sdp", "ie"]


def _series(p, n=3):
    """S -> m1 -> ... -> T chain, every node failing with probability p."""
    g = nx.DiGraph()
    names = ["S"] + [f"m{i}" for i in range(n)] + ["T"]
    for name in names:
        g.add_node(name, p=p)
    for a, b in zip(names, names[1:]):
        g.add_edge(a, b)
    return ReliabilityProblem(g, ("S",), "T")


def _parallel(p, k=3):
    """k disjoint S_i -> T paths; T fails too."""
    g = nx.DiGraph()
    g.add_node("T", p=p)
    sources = []
    for i in range(k):
        g.add_node(f"S{i}", p=p)
        g.add_node(f"m{i}", p=p)
        g.add_edge(f"S{i}", f"m{i}")
        g.add_edge(f"m{i}", "T")
        sources.append(f"S{i}")
    return ReliabilityProblem(g, tuple(sources), "T")


class TestClosedForms:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("p", [0.0, 1e-4, 0.05, 0.5, 1.0])
    def test_series_chain(self, engine, p):
        prob = _series(p, n=2)
        expected = 1.0 - (1.0 - p) ** 4  # 4 nodes in series
        assert failure_probability(prob, method=engine) == pytest.approx(
            expected, abs=1e-12
        )

    @pytest.mark.parametrize("engine", ENGINES)
    def test_parallel_paths(self, engine):
        p = 0.1
        prob = _parallel(p, k=3)
        path_fail = 1.0 - (1.0 - p) ** 2  # S_i and m_i
        expected = p + (1.0 - p) * path_fail**3
        assert failure_probability(prob, method=engine) == pytest.approx(expected)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_example1_of_paper(self, engine):
        """Fig. 1b: r_L = p_L + (1-p_L){p_D + (1-p_D)[p_B + (1-p_B) p_G]}^2."""
        p = 2e-4
        g = nx.DiGraph()
        for n in ("G1", "G2", "B1", "B2", "D1", "D2", "L"):
            g.add_node(n, p=p)
        g.add_edges_from(
            [("G1", "B1"), ("B1", "D1"), ("D1", "L"), ("G2", "B2"), ("B2", "D2"), ("D2", "L")]
        )
        prob = ReliabilityProblem(g, ("G1", "G2"), "L")
        inner = p + (1 - p) * (p + (1 - p) * p)
        expected = p + (1 - p) * inner**2
        assert failure_probability(prob, method=engine) == pytest.approx(
            expected, rel=1e-10
        )

    @pytest.mark.parametrize("engine", ENGINES)
    def test_disconnected_sink_fails_certainly(self, engine):
        g = nx.DiGraph()
        g.add_node("S", p=0.1)
        g.add_node("T", p=0.1)
        prob = ReliabilityProblem(g, ("S",), "T")
        assert failure_probability(prob, method=engine) == 1.0

    @pytest.mark.parametrize("engine", ENGINES)
    def test_source_is_sink(self, engine):
        g = nx.DiGraph()
        g.add_node("S", p=0.2)
        prob = ReliabilityProblem(g, ("S",), "S")
        assert failure_probability(prob, method=engine) == pytest.approx(0.2)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_perfect_components_never_fail(self, engine):
        prob = _series(0.0, n=3)
        assert failure_probability(prob, method=engine) == 0.0


class TestPrecisionAtTinyProbabilities:
    def test_bdd_no_cancellation(self):
        # Series of 4 components at p = 1e-12: r = ~4e-12 must come out with
        # full relative precision from the additive BDD evaluation.
        p = 1e-12
        prob = _series(p, n=2)
        r = failure_probability_bdd(prob)
        expected = 4 * p - 6 * p**2  # expansion of 1-(1-p)^4
        assert r == pytest.approx(expected, rel=1e-9)

    def test_redundant_architecture_tiny_r(self):
        p = 2e-4
        prob = _parallel(p, k=3)
        r = failure_probability_bdd(prob)
        # dominated by p (sink) — cross-engine agreement at tiny values
        assert failure_probability_factoring(prob) == pytest.approx(r, rel=1e-9)


@st.composite
def random_dag_problem(draw):
    """Random layered DAGs with 2-3 layers and random probabilities."""
    layers = [draw(st.integers(1, 3)) for _ in range(draw(st.integers(1, 3)))]
    g = nx.DiGraph()
    prob_of = {}
    names_by_layer = []
    counter = 0
    for size in layers:
        names = []
        for _ in range(size):
            name = f"n{counter}"
            counter += 1
            p = draw(st.sampled_from([0.0, 0.05, 0.2, 0.5]))
            g.add_node(name, p=p)
            names.append(name)
        names_by_layer.append(names)
    g.add_node("T", p=draw(st.sampled_from([0.0, 0.1])))
    # edges between consecutive layers (each at least one outgoing)
    for a_layer, b_layer in zip(names_by_layer, names_by_layer[1:]):
        for a in a_layer:
            targets = draw(
                st.lists(st.sampled_from(b_layer), min_size=1, unique=True)
            )
            for b in targets:
                g.add_edge(a, b)
    for a in names_by_layer[-1]:
        if draw(st.booleans()):
            g.add_edge(a, "T")
    if not any(g.has_edge(a, "T") for a in names_by_layer[-1]):
        g.add_edge(names_by_layer[-1][0], "T")
    return ReliabilityProblem(g, tuple(names_by_layer[0]), "T")


@given(random_dag_problem())
@settings(max_examples=80, deadline=None)
def test_engines_agree_on_random_dags(problem):
    values = cross_check(problem, methods=ENGINES, tol=1e-9)
    assert all(0.0 <= v <= 1.0 for v in values.values())


@given(random_dag_problem())
@settings(max_examples=15, deadline=None)
def test_monte_carlo_brackets_exact(problem):
    exact = failure_probability_bdd(problem)
    mc = failure_probability_mc(problem, samples=40_000, seed=3)
    assert mc.contains(exact)


class TestPathAndCutSets:
    def test_minimality(self):
        g = nx.DiGraph()
        for n in ("S", "A", "B", "T"):
            g.add_node(n, p=0.1)
        g.add_edges_from([("S", "A"), ("A", "T"), ("S", "B"), ("B", "A")])
        prob = ReliabilityProblem(g, ("S",), "T")
        sets = minimal_path_sets(prob)
        # S->B->A->T is a superset of S->A->T: must be pruned.
        assert sets == [frozenset({"S", "A", "T"})]

    def test_cut_sets_hit_every_path(self):
        prob = _parallel(0.1, k=2)
        cuts = minimal_cut_sets(prob)
        paths = minimal_path_sets(prob)
        for cut in cuts:
            assert all(cut & ps for ps in paths)

    def test_cut_sets_of_disconnected(self):
        g = nx.DiGraph()
        g.add_node("S", p=0.1)
        g.add_node("T", p=0.1)
        prob = ReliabilityProblem(g, ("S",), "T")
        assert minimal_cut_sets(prob) == [frozenset()]

    def test_series_cut_sets_are_singletons(self):
        prob = _series(0.1, n=2)
        cuts = minimal_cut_sets(prob)
        assert all(len(c) == 1 for c in cuts)
        assert len(cuts) == 4


class TestInclusionExclusionLimits:
    def test_too_many_paths_rejected(self):
        prob = _parallel(0.1, k=2)
        # monkey-ish: build a graph with > limit paths is expensive; instead
        # check the guard constant is respected via a direct call contract.
        from repro.reliability import inclusion_exclusion as ie

        assert ie._MAX_PATHS >= 10  # sanity: oracle usable on small systems

    def test_many_path_sets_sum_exactly(self):
        # Three layers of three nodes, 21 minimal path sets: the 2^21
        # alternating float terms summed directly read 0.10000000463568381.
        g = nx.DiGraph()
        for name in ["n0", "n1", "n2", "n4", "n5", "n6", "n7", "n8"]:
            g.add_node(name, p=0.0)
        g.add_node("n3", p=0.2)
        g.add_node("T", p=0.1)
        g.add_edges_from([
            ("n0", "n4"), ("n0", "n5"), ("n1", "n3"), ("n1", "n4"),
            ("n1", "n5"), ("n2", "n3"), ("n2", "n4"), ("n2", "n5"),
            ("n3", "n6"), ("n3", "n7"), ("n3", "n8"), ("n4", "n6"),
            ("n4", "n7"), ("n4", "n8"), ("n5", "n6"), ("n5", "n8"),
            ("n6", "T"), ("n7", "T"), ("n8", "T"),
        ])
        prob = ReliabilityProblem(g, ("n0", "n1", "n2"), "T")
        values = cross_check(prob, methods=ENGINES, tol=1e-12)
        assert values["ie"] == pytest.approx(0.1, abs=1e-15)


class TestCrossCheckFailureDetection:
    def test_cross_check_raises_on_disagreement(self):
        prob = _series(0.3, n=1)
        from repro.reliability import exact

        original = exact._ENGINES["sdp"]
        exact._ENGINES["sdp"] = lambda p: 0.123
        try:
            with pytest.raises(AssertionError):
                cross_check(prob, methods=("bdd", "sdp"))
        finally:
            exact._ENGINES["sdp"] = original
