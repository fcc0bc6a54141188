import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plumbook import (ConsistencyError, PlumbingGraph, ValidationError,
                      binding_vector, minimal_openbook_divisor,
                      openbook_condition, scale_divisor)

from .conftest import (is_feasible, intersection_rows, small_box_minimum,
                       unit_step_minimum)

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)

# (corpus name, minimal divisor, its binding); the small graphs are
# re-derived below by enumeration, the two family graphs by solving the
# two-variable threshold system in closed form by hand
PINNED = {
    "family_n3": ((30, 87), (3, 57)),
    "family_n5": ((89, 438), (7, 349)),
    "single_torus": ((2,), (2,)),
    "a1": ((1,), (2,)),
    "single_genus2": ((2,), (6,)),
    "a2": ((1, 1), (1, 1)),
    "a3": ((2, 3, 2), (1, 2, 1)),
    "path_232": ((2, 3, 2), (1, 5, 1)),
    "triangle": ((2, 2, 2), (2, 2, 2)),
    "d4": ((9, 5, 5, 5), (3, 1, 1, 1)),
}


class TestBindingVector:
    def test_family_n3(self, fixed_corpus):
        assert binding_vector(fixed_corpus["family_n3"], (30, 87)) == (3, 57)

    def test_wrong_length(self, fixed_corpus):
        with pytest.raises(ValidationError):
            binding_vector(fixed_corpus["family_n3"], (30,))

    def test_non_integer_entries(self, fixed_corpus):
        with pytest.raises(ValidationError):
            binding_vector(fixed_corpus["family_n3"], (30.5, 87))

    def test_matches_independent_rows(self, random_corpus):
        for graph, d, n in random_corpus[:50]:
            assert binding_vector(graph, d) == n
            assert list(n) == [-r for r in intersection_rows(graph, list(d))]


class TestOpenbookCondition:
    def test_minimal_divisor_is_tight_on_family(self, fixed_corpus):
        report = openbook_condition(fixed_corpus["family_n3"], (30, 87))
        assert report.holds
        assert bool(report)
        assert report.slacks == (0, 0)

    def test_infeasible_divisor(self, fixed_corpus):
        report = openbook_condition(fixed_corpus["single_torus"], (1,))
        assert not report.holds
        assert report.slacks == (1,)

    def test_rejects_negative_entries(self, fixed_corpus):
        with pytest.raises(ValidationError, match="effective"):
            openbook_condition(fixed_corpus["a2"], (1, -1))

    def test_rejects_zero_divisor(self, fixed_corpus):
        with pytest.raises(ValidationError, match="nonzero"):
            openbook_condition(fixed_corpus["a2"], (0, 0))

    def test_slacks_equal_simplified_form(self, fixed_corpus, random_corpus):
        # the module computes (I.d + I.1 + rhs + 2)_i; algebraically this
        # collapses to (I.d)_i + deg_i + 2 g_i, recomputed here without
        # the canonical cycle at all
        cases = [(g, PINNED[name][0]) for name, g in fixed_corpus.items()]
        cases.extend((graph, d) for graph, d, _ in random_corpus[:40])
        for graph, divisor in cases:
            report = openbook_condition(graph, divisor)
            rows = intersection_rows(graph, list(divisor))
            degrees = [0] * graph.m
            for i, j in graph.edges:
                degrees[i] += 1
                degrees[j] += 1
            simplified = tuple(
                rows[i] + degrees[i] + 2 * graph.vertices[i].genus
                for i in range(graph.m))
            assert report.slacks == simplified


class TestMinimalDivisor:
    def test_pinned_values(self, fixed_corpus):
        for name, (divisor, binding) in PINNED.items():
            found = minimal_openbook_divisor(fixed_corpus[name])
            assert found.divisor == divisor, name
            assert found.binding == binding, name

    def test_matches_small_enumeration(self, fixed_corpus):
        for name in ("single_torus", "a1", "single_genus2", "a2", "a3",
                     "path_232", "triangle", "d4"):
            graph = fixed_corpus[name]
            assert (minimal_openbook_divisor(graph).divisor
                    == small_box_minimum(graph, 12)), name

    def test_result_is_feasible_and_locally_minimal(self, fixed_corpus,
                                                    random_corpus):
        graphs = list(fixed_corpus.values())
        graphs.extend(graph for graph, _, _ in random_corpus[:60])
        for graph in graphs:
            divisor = list(minimal_openbook_divisor(graph).divisor)
            assert is_feasible(graph, divisor)
            # pointwise minimality: no single coordinate can be lowered
            for i in range(graph.m):
                if divisor[i] == 1:
                    continue
                lowered = divisor.copy()
                lowered[i] -= 1
                assert not is_feasible(graph, lowered)

    def test_binding_is_consistent(self, random_corpus):
        for graph, _, _ in random_corpus[:40]:
            found = minimal_openbook_divisor(graph)
            assert found.binding == binding_vector(graph, found.divisor)
            assert all(b >= 1 for b in found.binding)

    def test_rejects_invalid_graph(self):
        # an invalid graph cannot be built, so there is nothing to search
        with pytest.raises(ValidationError):
            minimal_openbook_divisor(PlumbingGraph([("a", 0, 0)]))


@st.composite
def cyclic_graphs(draw):
    """Connected graphs on m <= 40 vertices, a random tree plus up to eight
    edges, with e_v = -deg_v - s_v, s_v >= 0 and s_0 >= 1: negative
    definite, and near the singular Laplacian where most s_v are 0."""
    m = draw(st.integers(1, 40))
    pairs = {(draw(st.integers(0, i - 1)), i) for i in range(1, m)}
    pairs |= draw(st.sets(st.tuples(st.integers(0, m - 1), st.integers(0, m - 1))
                          .filter(lambda p: p[0] < p[1]), max_size=8))
    degree = [sum(v in p for p in pairs) for v in range(m)]
    slack = draw(st.lists(st.integers(0, 3), min_size=m, max_size=m))
    slack[0] = max(slack[0], 1)
    vertices = [(f"v{i}", -degree[i] - slack[i], draw(st.integers(0, 2)))
                for i in range(m)]
    return PlumbingGraph(vertices, [(f"v{i}", f"v{j}") for i, j in sorted(pairs)])


@st.composite
def chains_with_long_runs(draw):
    """Chains of m <= 40 vertices, all -2 except at up to three places,
    which get e in [-6, -3] and genus in [0, 2]."""
    m = draw(st.integers(1, 40))
    other = draw(st.sets(st.integers(0, m - 1), max_size=3))
    vertices = [(f"c{i}", -draw(st.integers(3, 6)), draw(st.integers(0, 2)))
                if i in other else (f"c{i}", -2, 0) for i in range(m)]
    return PlumbingGraph(vertices, [(f"c{i}", f"c{i + 1}") for i in range(m - 1)])


class TestAgainstUnitSteps:
    @PROPERTY
    @given(cyclic_graphs())
    def test_cyclic_graphs(self, graph):
        assert minimal_openbook_divisor(graph).divisor == unit_step_minimum(graph)

    @PROPERTY
    @given(chains_with_long_runs())
    def test_chains_with_long_minus_two_runs(self, graph):
        assert minimal_openbook_divisor(graph).divisor == unit_step_minimum(graph)


class TestScaleDivisor:
    def test_doubling_family_divisor(self, fixed_corpus):
        graph = fixed_corpus["family_n3"]
        assert scale_divisor(graph, (30, 87), 2) == (60, 174)

    def test_identity_scale(self, fixed_corpus):
        assert scale_divisor(fixed_corpus["a1"], (1,), 1) == (1,)

    def test_scaled_divisors_stay_feasible(self, fixed_corpus):
        for name, (divisor, _) in PINNED.items():
            graph = fixed_corpus[name]
            for k in (2, 3, 5):
                scaled = scale_divisor(graph, divisor, k)
                assert scaled == tuple(k * d for d in divisor)
                assert openbook_condition(graph, scaled).holds
                assert is_feasible(graph, scaled)

    def test_rejects_bad_scale(self, fixed_corpus):
        graph = fixed_corpus["a1"]
        for bad in (0, -2, 1.5):
            with pytest.raises(ValidationError):
                scale_divisor(graph, (1,), bad)

    def test_rejects_infeasible_input(self, fixed_corpus):
        with pytest.raises(ValidationError, match="does not satisfy"):
            scale_divisor(fixed_corpus["single_torus"], (1,), 2)
