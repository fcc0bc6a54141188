"""Shared corpora and independent oracles.

The helpers here deliberately avoid the package's own arithmetic paths:
feasibility is checked through the algebraically simplified row form
(I.d)_i + deg_i + 2g_i <= 0, matrix products are done with plain integer
loops or numpy, and pointwise minima come from enumeration.  Agreement
with the package is then a real cross-check, not a tautology.
"""

from __future__ import annotations

import itertools
import random

import pytest

from plumbook import FamilyParams, PlumbingGraph, ValidationError, default_t

SEED = 20260822
RANDOM_CORPUS_SIZE = 200


def intersection_rows(graph: PlumbingGraph, vec) -> list[int]:
    """I.vec by direct summation over the edge list (integer arithmetic)."""
    rows = [graph.vertices[i].euler * vec[i] for i in range(graph.m)]
    for i, j in graph.edges:
        rows[i] += vec[j]
        rows[j] += vec[i]
    return rows


def feasibility_thresholds(graph: PlumbingGraph) -> list[int]:
    """Row bounds c_i with: d feasible iff (I.d)_i <= c_i for all i.

    Derived by cancellation of the Euler number between the all-ones row
    and the adjunction term: the divisor condition collapses to
    (I.d)_i <= -(deg_i + 2 g_i), and positive binding adds (I.d)_i <= -1.
    """
    degrees = [0] * graph.m
    for i, j in graph.edges:
        degrees[i] += 1
        degrees[j] += 1
    return [min(-(degrees[i] + 2 * graph.vertices[i].genus), -1)
            for i in range(graph.m)]


def is_feasible(graph: PlumbingGraph, divisor) -> bool:
    if any(d < 1 for d in divisor):
        return False
    rows = intersection_rows(graph, list(divisor))
    return all(r <= c for r, c in zip(rows, feasibility_thresholds(graph)))


def unit_step_minimum(graph: PlumbingGraph) -> tuple[int, ...]:
    """Least feasible divisor by the textbook iteration: start at (1, ..., 1)
    and add 1 at the first violated row, every row summed again over the
    edge list.  It makes sum(d_i - 1) raises, so keep divisors small.
    """
    thresholds = feasibility_thresholds(graph)
    d = [1] * graph.m
    while True:
        rows = intersection_rows(graph, d)
        violated = [i for i, (r, c) in enumerate(zip(rows, thresholds)) if r > c]
        if not violated:
            return tuple(d)
        d[violated[0]] += 1


def small_box_minimum(graph: PlumbingGraph, box: int) -> tuple[int, ...]:
    """Pointwise minimum of the feasible set inside [1, box]^m, by enumeration.

    Pure Python; only sensible for small m and box.
    """
    thresholds = feasibility_thresholds(graph)
    mins = [box + 1] * graph.m
    found = False
    for point in itertools.product(range(1, box + 1), repeat=graph.m):
        rows = intersection_rows(graph, list(point))
        if all(r <= c for r, c in zip(rows, thresholds)):
            found = True
            mins = [min(a, b) for a, b in zip(mins, point)]
    assert found, "no feasible divisor inside the box"
    return tuple(mins)


def brute_force_minimum(graph: PlumbingGraph, box: int = 200) -> tuple[int, ...]:
    """Pointwise minimum over [1, box]^m for m <= 3, vectorized with numpy."""
    import numpy as np

    m = graph.m
    assert m <= 3, "enumeration oracle only handles m <= 3"
    I = np.zeros((m, m), dtype=np.int64)
    for idx, v in enumerate(graph.vertices):
        I[idx, idx] = v.euler
    for i, j in graph.edges:
        I[i, j] = 1
        I[j, i] = 1
    thresholds = np.array(feasibility_thresholds(graph), dtype=np.int64)
    rng = np.arange(1, box + 1, dtype=np.int64)
    mins = np.full(m, box + 1, dtype=np.int64)
    found = False
    if m == 1:
        mask = I[0, 0] * rng <= thresholds[0]
        if mask.any():
            found = True
            mins[0] = rng[mask].min()
    elif m == 2:
        d1, d2 = np.meshgrid(rng, rng, indexing="ij")
        mask = ((I[0, 0] * d1 + I[0, 1] * d2 <= thresholds[0])
                & (I[1, 0] * d1 + I[1, 1] * d2 <= thresholds[1]))
        if mask.any():
            found = True
            mins[0] = d1[mask].min()
            mins[1] = d2[mask].min()
    else:
        d2, d3 = np.meshgrid(rng, rng, indexing="ij")
        for v1 in range(1, box + 1):
            mask = ((I[0, 0] * v1 + I[0, 1] * d2 + I[0, 2] * d3 <= thresholds[0])
                    & (I[1, 0] * v1 + I[1, 1] * d2 + I[1, 2] * d3 <= thresholds[1])
                    & (I[2, 0] * v1 + I[2, 1] * d2 + I[2, 2] * d3 <= thresholds[2]))
            if mask.any():
                found = True
                mins[0] = min(mins[0], v1)
                mins[1] = min(mins[1], int(d2[mask].min()))
                mins[2] = min(mins[2], int(d3[mask].min()))
    assert found, "no feasible divisor inside the box"
    # the coordinatewise minimum must itself lie in the feasible set
    assert (I @ mins <= thresholds).all()
    return tuple(int(x) for x in mins)


def s3_params(N: int) -> FamilyParams:
    """The family member the command line takes by default: s = 3, t = 30N - 33."""
    return FamilyParams(s=3, t=default_t(N), N=N)


def family_graph_n3() -> PlumbingGraph:
    return PlumbingGraph([("A", -3, 1), ("B", -1, 28)], [("A", "B")])


def family_graph_n5() -> PlumbingGraph:
    return PlumbingGraph([("A", -5, 3), ("B", -1, 174)], [("A", "B")])


def _fixed_graphs() -> dict:
    chain = [("v0", -2, 0), ("v1", -2, 0), ("v2", -2, 0)]
    return {
        "family_n3": family_graph_n3(),
        "family_n5": family_graph_n5(),
        "single_torus": PlumbingGraph([("a", -1, 1)]),
        "a1": PlumbingGraph([("a", -2, 0)]),
        "single_genus2": PlumbingGraph([("a", -3, 2)]),
        "a2": PlumbingGraph(chain[:2], [("v0", "v1")]),
        "a3": PlumbingGraph(chain, [("v0", "v1"), ("v1", "v2")]),
        "path_232": PlumbingGraph(
            [("v0", -2, 0), ("v1", -3, 1), ("v2", -2, 0)],
            [("v0", "v1"), ("v1", "v2")]),
        "triangle": PlumbingGraph(
            [("v0", -3, 0), ("v1", -3, 0), ("v2", -3, 0)],
            [("v0", "v1"), ("v1", "v2"), ("v0", "v2")]),
        "d4": PlumbingGraph(
            [("c", -2, 0), ("l1", -2, 0), ("l2", -2, 0), ("l3", -2, 0)],
            [("c", "l1"), ("c", "l2"), ("c", "l3")]),
    }


@pytest.fixture(scope="session")
def fixed_corpus() -> dict:
    return _fixed_graphs()


# graphs whose minimal divisor provably sits inside [1, 200]^m and m <= 3
BRUTE_FORCE_NAMES = ("family_n3", "single_torus", "a1", "single_genus2",
                     "a2", "a3", "path_232", "triangle")


def _random_graph(rng: random.Random) -> PlumbingGraph:
    m = rng.randint(1, 6)
    vertices = [(f"v{i}", rng.randint(-7, -1), rng.randint(0, 3))
                for i in range(m)]
    pairs = set()
    for i in range(1, m):
        pairs.add((rng.randrange(i), i))
    if m >= 2:
        for _ in range(rng.randint(0, 2)):
            i, j = rng.sample(range(m), 2)
            pairs.add((min(i, j), max(i, j)))
    edges = [(f"v{i}", f"v{j}") for i, j in sorted(pairs)]
    return PlumbingGraph(vertices, edges)


def _random_feasible_binding(rng: random.Random, graph: PlumbingGraph):
    """A random d >= 1 with binding -I.d >= 1, by increment repair."""
    d = [rng.randint(1, 9) for _ in range(graph.m)]
    for _ in range(1_000_000):
        rows = intersection_rows(graph, d)
        for i in range(graph.m):
            if rows[i] > -1:
                d[i] += 1
                break
        else:
            return tuple(d), tuple(-r for r in rows)
    raise AssertionError("binding repair did not terminate")


@pytest.fixture(scope="session")
def random_corpus():
    """RANDOM_CORPUS_SIZE seeded (graph, d, n) triples, n = -I.d >= 1.

    `_random_graph` makes all its draws before it constructs the graph, so
    a draw that construction rejects leaves the generator where an
    accepted one would, and the corpus does not depend on where the
    validity check runs.
    """
    rng = random.Random(SEED)
    triples = []
    while len(triples) < RANDOM_CORPUS_SIZE:
        try:
            graph = _random_graph(rng)
        except ValidationError:
            continue
        d, n = _random_feasible_binding(rng, graph)
        triples.append((graph, d, n))
    return triples
