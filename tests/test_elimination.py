"""Property tests of the symmetric elimination against oracles that share
no code with it: continued-fraction numerators for Hirzebruch-Jung chains,
the orbifold Euler number for three-legged stars, Leibniz and dense
Bareiss determinants of the leading minors in declaration order, integer
row sums over the edge list, also for the rounded solve, the count of
the factors' entries on trees, a minimum-degree simulation on sets for
the pivot order and the fill-in, and a breadth-first search for the
components the empty columns show.  Graphs are factored in an
order of the program's choosing, so the graphs here are declared in
random orders.
"""

from __future__ import annotations

import contextlib
import io
import random
import re
from collections import deque
from fractions import Fraction
from math import lcm, prod

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import plumbook.graph
from plumbook import (Elimination, PlumbingGraph, ValidationError,
                      build_open_book, canonical_cycle, serialize_graph)
from plumbook.cli import main
from plumbook.rational import eliminate_by_degree

from .conftest import SEED, intersection_rows
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


def components(m: int, pairs) -> int:
    """The number of connected components, by breadth-first search."""
    neighbours = [[] for _ in range(m)]
    for i, j in pairs:
        neighbours[i].append(j)
        neighbours[j].append(i)
    seen, count = [False] * m, 0
    for start in range(m):
        if not seen[start]:
            count += 1
            seen[start], queue = True, deque([start])
            while queue:
                for j in neighbours[queue.popleft()]:
                    if not seen[j]:
                        seen[j] = True
                        queue.append(j)
    return count


@PROPERTY
@given(entries)
def test_chain_determinant_is_the_continued_fraction_numerator(a):
    p = continued_fraction(a).numerator
    factors = chain(a).factors
    assert factors.det == (-1) ** len(a) * p


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
    determinant = graph.factors.det
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
    # the sparse rows of (entry, 0) cells a graph hands over, each with its diagonal
    factors = eliminate_by_degree([{j: (x, 0) for j, x in enumerate(r) if x or j == i}
                                   for i, r in enumerate(rows)])
    if failing:
        assert factors is None
    else:
        assert factors.det == leibniz_determinant(rows)
    # a connected graph is constructed exactly when every leading minor has
    # the right sign; otherwise the error names the first failing vertex
    vertices = [(f"v{i}", e, 0) for i, e in enumerate(weights)]
    edges = [(f"v{i}", f"v{j}") for i, j in pairs]
    if components(m, pairs) > 1:
        with pytest.raises(ValidationError, match="^graph is disconnected$"):
            PlumbingGraph(vertices, edges)
    elif failing:
        message = ("intersection matrix is not negative definite "
                   f"(pivot at vertex v{failing[0] - 1})")
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            PlumbingGraph(vertices, edges)
    else:
        assert PlumbingGraph(vertices, edges).factors.det == leibniz_determinant(rows)


def bareiss_determinant(rows) -> int:
    """Fraction-free Gaussian elimination over the integers (Bareiss 1968),
    bringing up a later row when a pivot is zero."""
    a = [list(r) for r in rows]
    n, sign, previous = len(a), 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // previous
        previous = a[k][k]
    return sign * a[-1][-1] if n else 1


def first_failing_minor(rows, determinant) -> int | None:
    """Least k whose k-th leading minor does not have the sign (-1)^k."""
    return next((k for k in range(1, len(rows) + 1)
                 if (-1) ** k * determinant([r[:k] for r in rows[:k]]) <= 0), None)


def declare(euler, genus, pairs, order):
    """Vertices v0, v1, ... with the given weights and edges (index pairs),
    declared in `order`; with the integer intersection rows in that order."""
    position = {v: k for k, v in enumerate(order)}
    vertices = [(f"v{v}", euler[v], genus[v]) for v in order]
    edges = [(f"v{i}", f"v{j}") for i, j in sorted(pairs)]
    rows = rows_of([euler[v] for v in order], [(position[i], position[j]) for i, j in pairs])
    return vertices, edges, rows


@st.composite
def declared_graphs(draw, max_m, cycles, slack):
    """A random recursive tree (vertex i joined to a uniform earlier one)
    plus up to `cycles` more edges, e_v = -deg_v - slack, declared in a
    random order."""
    m = draw(st.integers(1, max_m))
    pairs = {(draw(st.integers(0, i - 1)), i) for i in range(1, m)}
    if cycles:
        pairs |= draw(st.sets(st.tuples(st.integers(0, m - 1), st.integers(0, m - 1))
                              .filter(lambda p: p[0] < p[1]), max_size=cycles))
    degree = [sum(v in p for p in pairs) for v in range(m)]
    euler = [-degree[v] - draw(slack) for v in range(m)]
    genus = [draw(st.integers(0, 2)) for _ in range(m)]
    return declare(euler, genus, pairs, draw(st.permutations(range(m))))


def star_declared_centre_first(legs: int):
    return declare([-legs - 1] + [-2] * legs, [0] * (legs + 1),
                   {(0, v) for v in range(1, legs + 1)}, range(legs + 1))


def tree_declared_root_first(m: int):
    """A random recursive tree with e_v = -deg_v - 1; in declaration order
    it fills in to O(m^2) entries."""
    rng = random.Random(SEED)
    pairs = {(rng.randrange(i), i) for i in range(1, m)}
    degree = [sum(v in p for p in pairs) for v in range(m)]
    return declare([-d - 1 for d in degree], [0] * m, pairs, range(m))


@st.composite
def chains_declared(draw):
    """Hirzebruch-Jung chains of up to 24 vertices with |e| <= 300, one
    vertex perhaps reweighted to -1, 0 or 1, declared in a random order."""
    m = draw(st.integers(1, 24))
    euler = draw(st.lists(st.integers(-300, -2), min_size=m, max_size=m))
    spoiled = draw(st.none() | st.tuples(st.integers(0, m - 1), st.integers(-1, 1)))
    if spoiled:
        euler[spoiled[0]] = spoiled[1]
    return declare(euler, [0] * m, {(i, i + 1) for i in range(m - 1)},
                   draw(st.permutations(range(m))))


@PROPERTY
@given(st.lists(st.lists(st.integers(-5, 5), min_size=6, max_size=6), min_size=6, max_size=6),
       st.integers(0, 6))
def test_bareiss_determinant_is_the_leibniz_determinant(entries, n):
    rows = [[entries[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    assert bareiss_determinant(rows) == leibniz_determinant(rows)


@PROPERTY
@given(declared_graphs(max_m=7, cycles=3, slack=st.integers(-2, 2)))
@example(declare([-1, -2, -3, -1, -3], [0] * 5, {(0, 1), (0, 2), (1, 3), (2, 4)}, range(5)))
def test_any_declaration_order_names_the_first_failing_leibniz_leading_minor(case):
    vertices, edges, rows = case
    failing = first_failing_minor(rows, leibniz_determinant)
    if failing is None:
        graph = PlumbingGraph(vertices, edges)
        assert graph.factors.det == leibniz_determinant(rows)
        return
    message = ("intersection matrix is not negative definite "
               f"(pivot at vertex {vertices[failing - 1][0]})")
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        PlumbingGraph(vertices, edges)


@PROPERTY
@given(declared_graphs(max_m=24, cycles=4, slack=st.integers(-1, 4)) | chains_declared())
@example(star_declared_centre_first(12))
@example(declare([-300, 0, -2], [0] * 3, {(0, 1), (1, 2)}, [2, 0, 1]))    # fails last
@example(declare([-2, 1, -2], [0] * 3, {(0, 1), (1, 2)}, [1, 0, 2]))      # fails first
def test_any_declaration_order_factors_to_the_bareiss_determinant(case):
    vertices, edges, rows = case
    failing = first_failing_minor(rows, bareiss_determinant)
    if failing is None:
        determinant = PlumbingGraph(vertices, edges).factors.det
        assert determinant == bareiss_determinant(rows)
    else:
        with pytest.raises(ValidationError, match=rf"\(pivot at vertex {vertices[failing - 1][0]}\)$"):
            PlumbingGraph(vertices, edges)


@PROPERTY
@given(declared_graphs(max_m=60, cycles=0, slack=st.integers(1, 3)))
@example(star_declared_centre_first(40))
@example(tree_declared_root_first(300))
def test_a_tree_fills_nothing_in_whatever_its_declaration_order(case):
    vertices, edges, _ = case
    graph = PlumbingGraph(vertices, edges)
    assert graph.factors.l_nonzeros == graph.m - 1


def minimum_degree_simulation(rows) -> tuple[list[int], int]:
    """The symbolic elimination on sets: take the lowest-indexed vertex of
    least degree, join its neighbours pairwise, drop it; return the order
    and the entries the factors keep below the diagonal."""
    neighbours = {v: {u for u, x in enumerate(row) if x and u != v}
                  for v, row in enumerate(rows)}
    order, kept = [], 0
    while neighbours:
        v = min(neighbours, key=lambda u: (len(neighbours[u]), u))
        around = neighbours.pop(v)
        order.append(v)
        kept += len(around)
        for u in around:
            neighbours[u] = (neighbours[u] | around) - {u, v}
    return order, kept


def fill_after_a_neighbour_is_done():
    """A graph on which one step's update adds fill to a neighbour's row
    after that neighbour's own update: a degree pushed before the whole
    fill is in would be stale, and the pivot order would change."""
    pairs = {(0, 4), (0, 5), (0, 6), (0, 7), (0, 9), (1, 2), (1, 4), (2, 3), (2, 7),
             (3, 5), (3, 6), (3, 9), (4, 6), (4, 8), (5, 6), (5, 7), (5, 9), (8, 9)}
    degree = [sum(v in p for p in pairs) for v in range(10)]
    return declare([-d - 1 for d in degree], [0] * 10, pairs, range(10))


@PROPERTY
@given(declared_graphs(max_m=30, cycles=12, slack=st.integers(1, 3)) | chains_declared())
@example(star_declared_centre_first(12))
@example(tree_declared_root_first(60))
@example(fill_after_a_neighbour_is_done())
def test_pivots_follow_the_minimum_degree_with_ties_to_the_first_declared(case):
    graph = definite_graph(case)
    order, kept = minimum_degree_simulation(case[2])
    assert graph.factors.order == tuple(order)
    assert graph.factors.l_nonzeros == kept


def definite_graph(case) -> PlumbingGraph:
    vertices, edges, _ = case
    try:
        return PlumbingGraph(vertices, edges)
    except ValidationError:
        assume(False)


GRAPHS = declared_graphs(max_m=24, cycles=4, slack=st.integers(0, 4)) | chains_declared()


@PROPERTY
@given(GRAPHS, st.lists(st.integers(-9, 9), min_size=24, max_size=24))
@example(star_declared_centre_first(12), [1] * 24)
def test_solve_times_det_satisfies_integer_row_sums(case, b):
    graph = definite_graph(case)
    b = b[:graph.m]
    y = graph.factors.solve_times_det(b)
    assert all(isinstance(x, int) for x in y)
    assert intersection_rows(graph, y) == [graph.factors.det * x for x in b]
    # the rounded solve of I.b lies between ceil(I^{-1} I.b) = b and b,
    # which satisfies I.b <= I.b
    assert graph.factors.solve_rounded_up(intersection_rows(graph, b)) == tuple(b)


@PROPERTY
@given(GRAPHS)
@example(star_declared_centre_first(12))
def test_det_and_verdict_match_bareiss_leading_minors_in_declaration_order(case):
    # a graph is built only when every leading minor of its matrix, in the
    # file's order, has the sign (-1)^k, and its det is the last of them
    graph = definite_graph(case)
    rows = case[2]
    minors = [bareiss_determinant([r[:k] for r in rows[:k]]) for k in range(1, graph.m + 1)]
    assert all((-1) ** k * d > 0 for k, d in enumerate(minors, start=1))
    assert graph.factors.det == minors[-1]


def test_an_invalid_tree_is_rejected_in_logarithmically_many_factorizations(counted):
    vertices, edges, _ = tree_declared_root_first(300)
    vertices[-1] = ("v299", 0, 0)
    with pytest.raises(ValidationError, match=r"\(pivot at vertex v299\)$"):
        PlumbingGraph(vertices, edges)
    # the whole graph, then one leading block per halving of 300 candidates
    assert counted[0] == 300
    assert len(counted) <= 1 + 9
    assert all(size < 300 for size in counted[1:])


@st.composite
def disjoint_unions(draw, parts):
    """Vertices, edges and edge index pairs of the disjoint union of the
    drawn `declared_graphs`, part k's ids prefixed with p<k>, the vertices
    of all parts declared in one random order."""
    vertices, edges = [], []
    for k, (part_vertices, part_edges, _) in enumerate(draw(parts)):
        vertices += [(f"p{k}{vid}", e, g) for vid, e, g in part_vertices]
        edges += [(f"p{k}{u}", f"p{k}{w}") for u, w in part_edges]
    vertices = [vertices[i] for i in draw(st.permutations(range(len(vertices))))]
    index = {vid: i for i, (vid, _, _) in enumerate(vertices)}
    return vertices, edges, [(index[u], index[w]) for u, w in edges]


def definite_parts(max_m):
    return declared_graphs(max_m=max_m, cycles=3, slack=st.integers(1, 3))


@PROPERTY
@given(disjoint_unions(st.lists(definite_parts(8), min_size=1, max_size=3)))
def test_the_empty_columns_of_a_definite_matrix_count_its_components(case):
    # a step joins its vertex's neighbours, so only the last vertex of each
    # component is taken with an empty column
    vertices, edges, pairs = case
    rows = [{i: (e, 0)} for i, (_, e, _) in enumerate(vertices)]
    for i, j in pairs:
        rows[i][j] = rows[j][i] = (1, 0)
    factors = eliminate_by_degree(rows)
    assert factors.components == components(len(vertices), pairs)
    if factors.components > 1:
        with pytest.raises(ValidationError, match="^graph is disconnected$"):
            PlumbingGraph(vertices, edges)
    else:
        assert PlumbingGraph(vertices, edges).factors.det == factors.det


@PROPERTY
@given(disjoint_unions(st.tuples(definite_parts(10), declared_graphs(
    max_m=10, cycles=3, slack=st.integers(-2, 0)))))
def test_a_valid_graph_beside_a_non_definite_one_is_disconnected(case):
    # e_v = -deg_v - slack with slack <= 0 gives the all-ones vector x a
    # square x.I.x >= 0, so the second part is not negative definite
    vertices, edges, pairs = case
    assert components(len(vertices), pairs) == 2
    with pytest.raises(ValidationError, match="^graph is disconnected$"):
        PlumbingGraph(vertices, edges)


def test_every_column_but_the_last_is_nonempty_on_the_random_corpus(random_corpus):
    for graph, _, _ in random_corpus:
        assert components(graph.m, graph.edges) == graph.factors.components == 1


def scaled_integral(vector) -> tuple[int, list[int]]:
    k = lcm(*(x.denominator for x in vector))
    return k, [int(k * x) for x in vector]


@PROPERTY
@given(declared_graphs(max_m=12, cycles=4, slack=st.integers(0, 4)),
       st.lists(st.integers(1, 9), min_size=12, max_size=12))
def test_both_solves_satisfy_integer_row_sums(case, binding):
    vertices, edges, _ = case
    binding = binding[:len(vertices)]
    try:
        graph = PlumbingGraph(vertices, edges)
    except ValidationError:
        assume(False)
    cycle = canonical_cycle(graph)
    k, r = scaled_integral(cycle.coefficients)
    assert intersection_rows(graph, r) == [k * b for b in cycle.adjunction_rhs]
    book = build_open_book(graph, binding)
    k, multiplicities = book.scale, book.multiplicities
    assert intersection_rows(graph, multiplicities) == [-k * n for n in binding]


FAMILY_N3 = "vertex A e=-3 g=1\nvertex B e=-1 g=28\nedge A B\n"
# built at import, so the test's own construction is not counted
STAR = serialize_graph(star(7, 1, [[30, 2], [40], [50, 3]], list(range(6))))


@pytest.fixture
def counted(monkeypatch):
    calls = []

    def counting(rows):
        calls.append(len(rows))
        return eliminate_by_degree(rows)

    monkeypatch.setattr(plumbook.graph, "eliminate_by_degree", counting)
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


# the minimal divisor's open book has the divisor as its multiplicities, so
# only the divisor's start is solved; --k 2 solves for the scaled book
# and --n for the given binding
@pytest.mark.parametrize("argv, solves", [
    (["openbook"], 1), (["openbook", "--k", "2"], 2),
    (["openbook", "--n", "z=1,l0_0=2,l0_1=1,l1_0=3,l2_0=1,l2_1=2"], 1),
])
@pytest.mark.parametrize("json", [False, True])
def test_openbook_solves_per_command(argv, solves, json, monkeypatch, tmp_path):
    calls = []

    def counting(solve):
        def counted(self, b):
            calls.append(len(b))
            return solve(self, b)
        return counted

    for name in ("solve_times_det", "solve_rounded_up"):
        monkeypatch.setattr(Elimination, name, counting(getattr(Elimination, name)))
    path = tmp_path / "star.pg"
    path.write_text(STAR, encoding="utf-8")
    argv = [argv[0], "-i", str(path), *argv[1:]] + (["--json"] if json else [])
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    assert calls == [6] * solves


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
