"""Property tests of the symmetric elimination against oracles that share
no code with it: continued-fraction numerators for Hirzebruch-Jung chains,
the orbifold Euler number for three-legged stars, Leibniz determinants of
the leading minors, and integer row sums over the edge list.
"""

from __future__ import annotations

import contextlib
import io
import re
from fractions import Fraction
from math import lcm, prod

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import plumbook.graph
from plumbook import (PlumbingGraph, ValidationError, canonical_cycle,
                      eliminate_upper, serialize_graph, solve_multiplicities)
from plumbook.cli import main

from .conftest import intersection_rows
from .test_rational import leibniz_determinant

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)

entries = st.lists(st.integers(2, 300), min_size=1, max_size=12)


def continued_fraction(a: list[int]) -> Fraction:
    """p/q = a_1 - 1/(a_2 - 1/(... - 1/a_k)), in lowest terms."""
    value = Fraction(a[-1])
    for x in reversed(a[:-1]):
        value = x - 1 / value
    return value


def chain(a: list[int]) -> PlumbingGraph:
    vertices = [(f"c{i}", -x, 0) for i, x in enumerate(a)]
    return PlumbingGraph(vertices, [(f"c{i}", f"c{i + 1}") for i in range(len(a) - 1)])


def star(centre: int, genus: int, legs: list[list[int]], order: list[int]) -> PlumbingGraph:
    """Centre z of weight -centre, legs attached at their first entry,
    vertices declared in the given permutation of the natural order."""
    vertices = [("z", -centre, genus)]
    edges = []
    for leg, a in enumerate(legs):
        previous = "z"
        for k, x in enumerate(a):
            vertices.append((f"l{leg}_{k}", -x, 0))
            edges.append((previous, f"l{leg}_{k}"))
            previous = f"l{leg}_{k}"
    return PlumbingGraph([vertices[i] for i in order], edges)


def rows_of(weights: list[int], pairs) -> list[list[int]]:
    rows = [[0] * len(weights) for _ in weights]
    for i, e in enumerate(weights):
        rows[i][i] = e
    for i, j in pairs:
        rows[i][j] = rows[j][i] = 1
    return rows


def connected(m: int, pairs) -> bool:
    """Whether every vertex is reached from vertex 0, by m rounds of
    growing the reached set over the edge list."""
    reached = {0}
    for _ in range(m):
        reached |= {j for i, j in pairs if i in reached}
        reached |= {i for i, j in pairs if j in reached}
    return len(reached) == m


@PROPERTY
@given(entries)
def test_chain_determinant_is_the_continued_fraction_numerator(a):
    p = continued_fraction(a).numerator
    factors = chain(a).factors
    assert factors.determinant() == (-1) ** len(a) * p


@st.composite
def stars(draw):
    legs = [draw(entries.map(lambda a: a[:8])) for _ in range(3)]
    centre = draw(st.integers(1, 300))
    m = 1 + sum(len(a) for a in legs)
    order = draw(st.permutations(range(m)))
    return centre, draw(st.integers(0, 3)), legs, order


@PROPERTY
@given(stars())
@example((1, 0, [[2], [3], [6]], [0, 1, 2, 3]))      # e = 0: singular
@example((1, 0, [[2], [3], [5]], [3, 2, 1, 0]))      # e > 0: indefinite
def test_star_determinant_is_orbifold_euler_number_times_leg_numerators(case):
    centre, genus, legs, order = case
    fractions = [continued_fraction(a) for a in legs]
    euler = -centre + sum(1 / f for f in fractions)
    if euler >= 0:
        with pytest.raises(ValidationError, match="not negative definite"):
            star(centre, genus, legs, order)
        return
    graph = star(centre, genus, legs, order)
    determinant = graph.factors.determinant()
    assert determinant == (-1) ** graph.m * -euler * prod(f.numerator for f in fractions)


@st.composite
def small_graphs(draw):
    """Vertex weights and edges (index pairs i < j) of a possibly
    disconnected, possibly indefinite graph."""
    m = draw(st.integers(1, 5))
    pairs = draw(st.sets(st.tuples(st.integers(0, m - 1), st.integers(0, m - 1))
                         .filter(lambda p: p[0] < p[1]), max_size=6))
    weights = draw(st.lists(st.integers(-4, 1), min_size=m, max_size=m))
    return weights, sorted(pairs)


def triangle(e: int) -> tuple[list[int], list[tuple[int, int]]]:
    return [e, e, e], [(0, 1), (0, 2), (1, 2)]


@PROPERTY
@given(small_graphs())
@example(triangle(-2))                         # singular
@example(([-1, -1], [(0, 1)]))                 # singular
@example(([-1, -1, -2], [(0, 1), (1, 2)]))     # indefinite
@example(([-2, -2], []))                       # definite, disconnected
@example(triangle(-3))
def test_definiteness_and_stopping_row_match_leibniz_leading_minors(case):
    weights, pairs = case
    m = len(weights)
    rows = rows_of(weights, pairs)
    # Sylvester: (-1)^k times the k-th leading minor must be > 0 for every k
    failing = [k for k in range(1, m + 1)
               if (-1) ** k * leibniz_determinant([r[:k] for r in rows[:k]]) <= 0]
    # the sparse integer upper rows a graph hands over
    factors = eliminate_upper([{j: x for j, x in enumerate(r) if j >= i and x}
                               for i, r in enumerate(rows)])
    if failing:
        assert not factors.negative_definite
        assert factors.stopped_at == failing[0] - 1
    else:
        assert factors.negative_definite
        assert factors.determinant() == leibniz_determinant(rows)
    # a connected graph is constructed exactly when every leading minor has
    # the right sign; otherwise the error names the first failing vertex
    vertices = [(f"v{i}", e, 0) for i, e in enumerate(weights)]
    edges = [(f"v{i}", f"v{j}") for i, j in pairs]
    if not connected(m, pairs):
        with pytest.raises(ValidationError, match="^graph is disconnected$"):
            PlumbingGraph(vertices, edges)
    elif failing:
        message = ("intersection matrix is not negative definite "
                   f"(pivot at vertex v{failing[0] - 1})")
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            PlumbingGraph(vertices, edges)
    else:
        assert PlumbingGraph(vertices, edges).factors.determinant() == leibniz_determinant(rows)


@st.composite
def definite_graphs(draw):
    """Connected graphs with e_v <= -deg_v: negative definite unless singular."""
    m = draw(st.integers(1, 9))
    pairs = {(draw(st.integers(0, i - 1)), i) for i in range(1, m)}
    pairs |= draw(st.sets(st.tuples(st.integers(0, m - 1), st.integers(0, m - 1))
                          .filter(lambda p: p[0] < p[1]), max_size=4))
    degree = [sum(v in p for p in pairs) for v in range(m)]
    vertices = [(f"v{i}", -degree[i] - draw(st.integers(0, 4)), draw(st.integers(0, 3)))
                for i in range(m)]
    edges = [(f"v{i}", f"v{j}") for i, j in sorted(pairs)]
    binding = draw(st.lists(st.integers(1, 9), min_size=m, max_size=m))
    return vertices, edges, binding


def scaled_integral(vector) -> tuple[int, list[int]]:
    k = lcm(*(x.denominator for x in vector))
    return k, [int(k * x) for x in vector]


@PROPERTY
@given(definite_graphs())
def test_both_solves_satisfy_integer_row_sums(case):
    vertices, edges, binding = case
    try:
        graph = PlumbingGraph(vertices, edges)
    except ValidationError:
        assume(False)
    cycle = canonical_cycle(graph)
    k, r = scaled_integral(cycle.coefficients)
    assert intersection_rows(graph, r) == [k * b for b in cycle.adjunction_rhs]
    k, multiplicities = scaled_integral(solve_multiplicities(graph, binding))
    assert intersection_rows(graph, multiplicities) == [-k * n for n in binding]


FAMILY_N3 = "vertex A e=-3 g=1\nvertex B e=-1 g=28\nedge A B\n"
# built at import, so the test's own construction is not counted
STAR = serialize_graph(star(7, 1, [[30, 2], [40], [50, 3]], list(range(6))))


@pytest.fixture
def counted(monkeypatch):
    calls = []

    def counting(upper):
        calls.append(len(upper))
        return eliminate_upper(upper)

    monkeypatch.setattr(plumbook.graph, "eliminate_upper", counting)
    return calls


@pytest.mark.parametrize("argv", [
    ["check"], ["canonical"], ["divisor"], ["openbook"], ["openbook", "--k", "2"],
    ["openbook", "--n", "z=1,l0_0=2,l0_1=1,l1_0=3,l2_0=1,l2_1=2"],
])
@pytest.mark.parametrize("json", [False, True])
def test_each_graph_subcommand_factors_its_graph_once(argv, json, counted, tmp_path):
    path = tmp_path / "star.pg"
    path.write_text(STAR, encoding="utf-8")
    argv = [argv[0], "-i", str(path), *argv[1:]] + (["--json"] if json else [])
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    assert counted == [6]


@pytest.mark.parametrize("argv, graphs", [
    (["family", "--N", "5"], 1),
    (["surgery", "--chi", "1", "--sigma", "-100", "--N", "3"], 1),
    (["surgery", "--chi", "100", "--sigma", "-20", "--mu", "13", "-i", "n3.pg"], 1),
    (["family", "--sweep", "3..9"], 5),      # N = 4 and N = 7 are skipped
])
def test_family_subcommands_factor_each_member_once(argv, graphs, counted, tmp_path):
    (tmp_path / "n3.pg").write_text(FAMILY_N3, encoding="utf-8")
    argv = [str(tmp_path / a) if a == "n3.pg" else a for a in argv]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    assert counted == [2] * graphs
