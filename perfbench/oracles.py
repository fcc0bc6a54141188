"""Independent computations the benchmark checks plumbook's output against.

Nothing here imports plumbook.  Graphs are plain `Graph` tuples: Euler
numbers, genera and the edge list as index pairs (i < j).  Each oracle
uses a different method from the program's own: integer row sums over
the edge list instead of matrix products, fraction-free Bareiss
elimination instead of rational Gaussian elimination, Laufer's jump
iteration instead of unit steps, and closed forms (continued fractions,
the family's quartics) wherever one exists.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction
from math import prod
from typing import NamedTuple, Sequence


class Graph(NamedTuple):
    ids: tuple[str, ...]
    euler: tuple[int, ...]
    genus: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]  # sorted pairs (i, j), i < j

    @property
    def m(self) -> int:
        return len(self.euler)


def make_graph(euler: Sequence[int], genus: Sequence[int],
               edges, prefix: str = "v") -> Graph:
    pairs = sorted({(min(i, j), max(i, j)) for i, j in edges})
    ids = tuple(f"{prefix}{i}" for i in range(len(euler)))
    return Graph(ids, tuple(euler), tuple(genus), tuple(pairs))


def graph_text(graph: Graph) -> str:
    """The graph in plumbook's input format."""
    lines = [f"vertex {v} e={e} g={g}"
             for v, e, g in zip(graph.ids, graph.euler, graph.genus)]
    lines += [f"edge {graph.ids[i]} {graph.ids[j]}" for i, j in graph.edges]
    return "\n".join(lines) + "\n"


def canonical_sha256(graph: Graph) -> str:
    """sha256 of the canonical text: vertices in order, then the edges as
    id pairs, each pair and the list sorted by name."""
    lines = [f"vertex {v} e={e} g={g}"
             for v, e, g in zip(graph.ids, graph.euler, graph.genus)]
    pairs = sorted(tuple(sorted((graph.ids[i], graph.ids[j]))) for i, j in graph.edges)
    lines += [f"edge {u} {w}" for u, w in pairs]
    return hashlib.sha256(("\n".join(lines) + "\n").encode("utf-8")).hexdigest()


def degrees(graph: Graph) -> list[int]:
    deg = [0] * graph.m
    for i, j in graph.edges:
        deg[i] += 1
        deg[j] += 1
    return deg


def row_sums(graph: Graph, vec: Sequence) -> list:
    """I.vec by summation over the edge list; exact for ints and Fractions."""
    rows = [e * x for e, x in zip(graph.euler, vec)]
    for i, j in graph.edges:
        rows[i] += vec[j]
        rows[j] += vec[i]
    return rows


def matrix(graph: Graph) -> list[list[int]]:
    rows = [[0] * graph.m for _ in range(graph.m)]
    for i, e in enumerate(graph.euler):
        rows[i][i] = e
    for i, j in graph.edges:
        rows[i][j] = rows[j][i] = 1
    return rows


def leading_minors(a: Sequence[Sequence[int]]) -> list[int]:
    """Leading principal minors by Bareiss elimination without pivoting.

    Stops early at a zero pivot, so a list shorter than the matrix means a
    leading minor vanished.
    """
    a = [list(row) for row in a]
    n = len(a)
    minors: list[int] = []
    prev = 1
    for k in range(n):
        pivot = a[k][k]
        if pivot == 0:
            break
        minors.append(pivot)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * pivot - a[i][k] * a[k][j]) // prev
        prev = pivot
    return minors


def is_negative_definite(graph: Graph) -> bool:
    """Sylvester's test: (-1)^k times the k-th leading minor is positive."""
    minors = leading_minors(matrix(graph))
    return (len(minors) == graph.m
            and all((-1) ** k * d > 0 for k, d in enumerate(minors, start=1)))


def is_connected(graph: Graph) -> bool:
    parent = list(range(graph.m))

    def root(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in graph.edges:
        parent[root(i)] = root(j)
    return len({root(i) for i in range(graph.m)}) == 1


def thresholds(graph: Graph) -> list[int]:
    """c_i with: d >= 1 is feasible iff (I.d)_i <= c_i for every i."""
    return [min(-(d + 2 * g), -1) for d, g in zip(degrees(graph), graph.genus)]


def least_divisor(graph: Graph) -> tuple[list[int], int]:
    """Least feasible divisor by Laufer's jump iteration, and the jump count.

    Raising d_i by ceil((row_i - c_i)/|e_i|) cannot pass the least
    solution: raising other coordinates only increases row i.
    """
    c = thresholds(graph)
    d = [1] * graph.m
    jumps = 0
    while True:
        rows = row_sums(graph, d)
        violated = [i for i in range(graph.m) if rows[i] > c[i]]
        if not violated:
            return d, jumps
        for i in violated:
            d[i] += -((rows[i] - c[i]) // graph.euler[i])  # ceil(x / |e_i|)
            jumps += 1


def summary(graph: Graph) -> dict:
    """The combinatorial data `plumbook check` reports, besides the determinant."""
    edge_count = len(graph.edges)
    cycle_rank = edge_count - graph.m + 1
    return {
        "m": graph.m,
        "edges": edge_count,
        "h": 2 * sum(graph.genus) + cycle_rank,
        "chi of neighborhood": sum(2 - 2 * g for g in graph.genus) - edge_count,
        "cycle rank": cycle_rank,
        "degrees": degrees(graph),
    }


# --- Hirzebruch-Jung continued fractions ------------------------------------

def chain_fraction(a: Sequence[int]) -> tuple[int, int]:
    """(p, q) with p/q = a_1 - 1/(a_2 - 1/(... - 1/a_k)).

    For a_i >= 2, p is the determinant of minus the chain's intersection
    matrix, and q that of the chain without its first vertex.
    """
    p, q = a[-1], 1
    for x in reversed(a[:-1]):
        p, q = x * p - q, p
    return p, q


def chain_determinant(a: Sequence[int]) -> int:
    """det I of the chain with Euler numbers -a_i: (-1)^k p."""
    return (-1) ** len(a) * chain_fraction(a)[0]


def star_determinant(b: int, legs: Sequence[Sequence[int]]) -> int:
    """det I of a star with central Euler number -b and legs -a (the first
    entry next to the centre): (-1)^m |e_orb| prod p_i, where
    e_orb = -b + sum q_i/p_i."""
    fractions = [chain_fraction(leg) for leg in legs]
    e_orb = -b + sum(Fraction(q, p) for p, q in fractions)
    m = 1 + sum(len(leg) for leg in legs)
    value = abs(e_orb) * prod(p for p, _ in fractions)
    return (-1) ** m * int(value)


# --- the smoothing family (x^3+y^3)(x^t+y^{Nt}) + z^{N-1}, t = 30N - 33 ------

def family_t(N: int) -> int:
    return 30 * N - 33


def family_valid(N: int) -> bool:
    return N >= 3 and (N - 1) % 3 != 0


def family_genera(N: int) -> tuple[int, int]:
    """Genera of A (e=-N) and B (e=-1): (s-1)(N-2)/2 and (t-1)(N-2)/2."""
    return N - 2, (family_t(N) - 1) * (N - 2) // 2


def family_graph(N: int) -> Graph:
    g_a, g_b = family_genera(N)
    return Graph(("A", "B"), (-N, -1), (g_a, g_b), ((0, 1),))


def mu_quartic(N: int) -> int:
    return 900 * N**4 - 3810 * N**3 + 5292 * N**2 - 2705 * N + 322


def sigma_quartic(N: int) -> Fraction:
    return Fraction(-900 * N**4 + 2880 * N**3 - 2348 * N**2 + 379 * N - 6, 3)


def k_squared_2x2(euler: Sequence[int], genus: Sequence[int]) -> Fraction:
    """K^2 = r.rhs for two vertices joined by one edge, r by Cramer's rule."""
    (e1, e2), (g1, g2) = euler, genus
    b1, b2 = 2 * g1 - 2 - e1, 2 * g2 - 2 - e2
    det = e1 * e2 - 1
    r1 = Fraction(b1 * e2 - b2, det)
    r2 = Fraction(e1 * b2 - b1, det)
    return r1 * b1 + r2 * b2


def family_member(N: int) -> dict:
    """Every number `plumbook family` reports for a valid member."""
    g_a, g_b = family_genera(N)
    k2 = k_squared_2x2((-N, -1), (g_a, g_b))
    h, m = 2 * (g_a + g_b), 2
    mu = mu_quartic(N)
    sigma = sigma_quartic(N)
    return {
        "s": 3, "t": family_t(N), "N": N,
        "genera": [g_a, g_b], "m": m, "h": h, "k squared": k2,
        "mu plane": Fraction(mu, N - 2), "mu": mu, "sigma": sigma,
        "p_g": Fraction(mu - k2 + h - m, 12), "b1": 0,
        "closed form mu": mu, "closed form sigma": sigma,
    }


def surgery(chi: int, sigma: int, N: int) -> dict:
    """Characteristic numbers after replacing the neighbourhood of the family
    member's configuration by its Milnor fibre: inclusion-exclusion for chi,
    Novikov additivity for sigma (the neighbourhood has signature -m)."""
    member = family_member(N)
    g_a, g_b = member["genera"]
    chi_nbhd = (2 - 2 * g_a) + (2 - 2 * g_b) - 1
    total_chi = chi - chi_nbhd + (1 + member["mu"])
    total_sigma = sigma + member["m"] + member["sigma"]
    c1 = 2 * total_chi + 3 * total_sigma
    chi_h = Fraction(total_chi + total_sigma, 4)
    return {
        "ambient chi": chi, "ambient sigma": sigma, "m": member["m"],
        "h": member["h"], "chi of neighborhood": chi_nbhd, "mu": member["mu"],
        "sigma of smoothing": member["sigma"], "p_g": member["p_g"],
        "chi": total_chi, "sigma": total_sigma, "c1 squared": c1,
        "chi_h": chi_h, "bmy defect": 9 * chi_h - c1,
    }

