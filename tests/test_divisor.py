import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plumbook import (PlumbingGraph, ValidationError, build_open_book,
                      minimal_open_book, parse_graph, serialize_graph)
from plumbook.cli import main

from .conftest import (feasibility_thresholds, is_feasible, intersection_rows, lowerable,
                       small_box_minimum, unit_step_minimum)
from .oracles import chain, degrees, graph_text
from .test_elimination import GRAPHS, declared_graphs, definite_graph

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


def divisor_report(graph, tmp_path, capsys) -> dict:
    """The `divisor --json` report on the graph."""
    path = tmp_path / "graph.pg"
    path.write_text(serialize_graph(graph), encoding="utf-8")
    assert main(["divisor", "-i", str(path), "--json"]) == 0
    return json.loads(capsys.readouterr().out)


def simplified_slacks(graph, divisor) -> list[int]:
    """(I.d)_i + deg_i + 2 g_i, the slack of condition (a) without the
    canonical cycle, with the degrees counted over the edge list."""
    rows, degree = intersection_rows(graph, divisor), degrees(graph.m, graph.edges)
    return [rows[i] + degree[i] + 2 * graph.vertices[i].genus for i in range(graph.m)]


class TestOpenbookCondition:
    def test_minimal_divisor_is_tight_on_family(self, fixed_corpus, tmp_path, capsys):
        graph = fixed_corpus["family_n3"]
        report = divisor_report(graph, tmp_path, capsys)
        assert report["divisor"] == [30, 87]
        assert report["slacks"] == simplified_slacks(graph, (30, 87)) == [0, 0]
        assert report["condition holds"] is True

    def test_slacks_equal_simplified_form(self, fixed_corpus, random_corpus, tmp_path,
                                          capsys):
        # the report reads each slack off the binding as deg_i + 2 g_i - n_i;
        # (D + E + K).E_i + 2 collapses to (I.d)_i + deg_i + 2 g_i, recomputed
        # here from the report's divisor without the canonical cycle at all
        graphs = list(fixed_corpus.values())
        graphs.extend(graph for graph, _, _ in random_corpus[:40])
        for graph in graphs:
            report = divisor_report(graph, tmp_path, capsys)
            slacks = simplified_slacks(graph, report["divisor"])
            assert report["slacks"] == slacks
            assert all(x <= 0 for x in slacks)
            assert report["condition holds"] is True


class TestMinimalDivisor:
    def test_pinned_values(self, fixed_corpus):
        for name, (divisor, binding) in PINNED.items():
            book = minimal_open_book(fixed_corpus[name])
            assert book.multiplicities == divisor, name
            assert book.binding == binding, name

    def test_matches_small_enumeration(self, fixed_corpus):
        for name in ("single_torus", "a1", "single_genus2", "a2", "a3",
                     "path_232", "triangle", "d4"):
            graph = fixed_corpus[name]
            assert (minimal_open_book(graph).multiplicities
                    == small_box_minimum(graph, 12)), name

    def test_result_is_feasible_and_locally_minimal(self, fixed_corpus,
                                                    random_corpus):
        graphs = list(fixed_corpus.values())
        graphs.extend(graph for graph, _, _ in random_corpus[:60])
        for graph in graphs:
            divisor = minimal_open_book(graph).multiplicities
            assert is_feasible(graph, divisor)
            assert lowerable(graph, divisor) == []    # pointwise minimality

    def test_binding_is_consistent(self, random_corpus):
        for graph, _, _ in random_corpus[:40]:
            book = minimal_open_book(graph)
            assert list(book.binding) == [-r for r in intersection_rows(graph,
                                                                         book.multiplicities)]
            assert all(b >= 1 for b in book.binding)

    @PROPERTY
    @given(GRAPHS)
    def test_lower_bound_is_positive_with_no_floor(self, case):
        # -I is an irreducible Stieltjes matrix and -c >= 1, so x = I^{-1} c
        # is positive and ceil(x) >= 1 needs no max(1, ...)
        graph = definite_graph(case)
        c = feasibility_thresholds(graph)
        det = graph.factors.det
        y = graph.factors.solve_times_det(c)
        assert intersection_rows(graph, y) == [det * x for x in c]
        assert all(Fraction(y_i, det) > 0 for y_i in y)

    @PROPERTY
    @given(declared_graphs(max_m=12, cycles=4, slack=st.integers(0, 4)))
    def test_minimum_lies_between_the_proven_bounds(self, case):
        unit_step_minimum_between_the_proven_bounds(definite_graph(case))

    def test_rounded_start_is_the_minimum_on_the_long_chain(self):
        # from ceil(I^{-1}c) this chain needs about m^2/8 = 500,000 jumps
        graph = parse_graph(graph_text(chain([-2] * 1999 + [-3])))
        start = graph.factors.solve_rounded_up(feasibility_thresholds(graph))
        assert start == minimal_open_book(graph).multiplicities
        assert is_feasible(graph, start)

    def test_rejects_invalid_graph(self):
        # an invalid graph cannot be built, so there is nothing to search
        with pytest.raises(ValidationError):
            minimal_open_book(PlumbingGraph([("a", 0, 0)]))


def unit_step_minimum_between_the_proven_bounds(graph):
    """The unit-step minimum d*, checked to lie in ceil(I^{-1}c) <= d0 <= d*
    <= d_up = ceil(I^{-1}(c - deg)), with d0 the rounded solve.  With u =
    d_up - I^{-1}(c - deg) in [0, 1)^m, (I.d_up)_i = c_i - deg_i + e_i u_i
    + sum(u_j over j ~ i) <= c_i, so d_up is feasible and lies above d*."""
    c = feasibility_thresholds(graph)
    det = graph.factors.det

    def ceil_solve(b):
        y = graph.factors.solve_times_det(b)
        assert intersection_rows(graph, y) == [det * x for x in b]
        return [-(-x // det) for x in y]

    lower = ceil_solve(c)
    upper = ceil_solve([x - d for x, d in zip(c, degrees(graph.m, graph.edges))])
    assert is_feasible(graph, upper)
    start = graph.factors.solve_rounded_up(c)
    minimum = unit_step_minimum(graph)
    assert all(lo <= d0 <= x <= up
               for lo, d0, x, up in zip(lower, start, minimum, upper))
    return minimum


@st.composite
def cyclic_graphs(draw):
    """Connected graphs on m <= 40 vertices, a random tree plus up to eight
    edges, with e_v = -deg_v - s_v, s_v >= 0 and s_0 >= 1: negative
    definite, and near the singular Laplacian where most s_v are 0."""
    m = draw(st.integers(1, 40))
    pairs = {(draw(st.integers(0, i - 1)), i) for i in range(1, m)}
    pairs |= draw(st.sets(st.tuples(st.integers(0, m - 1), st.integers(0, m - 1))
                          .filter(lambda p: p[0] < p[1]), max_size=8))
    degree = degrees(m, pairs)
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
        # near the singular Laplacian |det| is small and the jumps stall
        minimum = unit_step_minimum_between_the_proven_bounds(graph)
        assert minimal_open_book(graph).multiplicities == minimum

    @PROPERTY
    @given(chains_with_long_runs())
    def test_chains_with_long_minus_two_runs(self, graph):
        assert minimal_open_book(graph).multiplicities == unit_step_minimum(graph)


class TestScaleDivisor:
    """k.d is the multiplicity vector of the open book with binding k.n
    that build_open_book(graph, n, scale=k) assembles from d's binding n."""

    def test_doubling_family_divisor(self, fixed_corpus):
        book = build_open_book(fixed_corpus["family_n3"], (3, 57), scale=2)
        assert book.multiplicities == (60, 174)

    def test_identity_scale(self, fixed_corpus):
        assert build_open_book(fixed_corpus["a1"], (2,), scale=1).multiplicities == (1,)

    def test_scaled_divisors_stay_feasible(self, fixed_corpus):
        for name, (divisor, binding) in PINNED.items():
            graph = fixed_corpus[name]
            for k in (2, 3, 5):
                scaled = build_open_book(graph, binding, scale=k).multiplicities
                assert scaled == tuple(k * d for d in divisor)
                assert is_feasible(graph, scaled)

    def test_rejects_bad_scale(self, fixed_corpus):
        graph = fixed_corpus["a1"]
        for bad in (0, -2, 1.5, 2.0, True):
            with pytest.raises(ValidationError):
                build_open_book(graph, (2,), scale=bad)
