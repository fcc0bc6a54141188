"""Horizontal open books on the boundary of a plumbing, combinatorially.

Given a positive integral binding vector n, the vertex multiplicities N
solve N.I = -n; they are positive rationals on a negative-definite graph
(-n.I^{-1} has positive entries) with denominators dividing det I.  The
least k making M = k.N integral gives the open book at vertex v with

    b_v = k n_v   binding circles,
    M_v           as the degree of the page over the vertex piece,

with the page meeting each boundary torus in explicitly known curves.
Coordinates on the boundary tori: at the outer torus of a vertex piece
(alpha, beta) with alpha the base-circle direction and beta the fiber;
at the small torus of an edge (gamma, beta) with gamma the boundary of
the removed disk.  The outer page slope is (-e_v M_v, M_v) in (alpha,
beta); on the edge torus toward vertex u the page boundary is the class
(M_u, -M_v) at v's side, a curve with gcd(M_u, M_v) components by
definition.  Plumbing an edge identifies gamma with beta on the two
sides, and swapping the coordinates of u's class (M_v, -M_u) gives
(-M_u, M_v) = -(M_u, -M_v): the edge tori match for every M, so the
description derives them from M and nothing rechecks them.  What can
fail is the vertex relation

    M_v e_v + sum(M_u over neighbors u) = -b_v

at every vertex, which `verify_gluing` checks.  It is I.M = -k.n, whose
one solution is k.N > 0, so a description that passes it has M > 0.

The minimal open book is the one of the least effective divisor with
positive binding.  An effective divisor D = sum(d_i E_i), d_i >= 1,
supports a horizontal open book on the boundary of the plumbing when

    (D + E + K) . E_i + 2 <= 0            for every vertex i,      (a)

where E = sum(E_i) and K is the canonical cycle.  As E.E_i = e_i + deg_i
and K.E_i = 2g_i - 2 - e_i, the left side is the slack (I.d)_i + deg_i +
2g_i, so K itself is not needed.  The binding vector n = -I.d must also
be positive, the extra row condition

    (I.d)_i <= -1                         for every vertex i.      (b)

So d is feasible iff I.d <= c, c_i = min(-(deg_i + 2g_i), -1).  -I is a
Stieltjes matrix, irreducible as the graph is connected, so (-I)^{-1} > 0
entrywise and -I.d >= -c gives d >= x = I^{-1}c.  As -c >= 1, x =
(-I)^{-1}(-c) > 0, so ceil(x) >= 1 already.

The search starts higher, from the factors' rounded back substitution.
Let v be eliminated at step k, S the vertices eliminated up to and
including v, and L those eliminated after it.  The forward sweep leaves
row v as D_{k+1} x_v + sum(b_vi x_i over i in L) = c'_v, which is the v
entry of the block system I[S] z = c_S - I[S, L] w solved for z with the
values w on L moved to the right.  Its solution z(w) rises with w:
-I[S] is a principal block of a nonsingular M-matrix, so (-I[S])^{-1} >=
0, and I[S, L] >= 0.  For a feasible d' and any w <= d'_L, I[S] d'_S <=
c_S - I[S, L] d'_L <= c_S - I[S, L] w, so d'_S >= z(w).  Taking the
vertices last eliminated first, with w the integers already set on L,

    d0_v = ceil((c'_v - sum(b_vi d0_i)) / D_{k+1}) = ceil(z(w)_v),

so by induction d0 lies below every feasible d', and as w >= x_L and
z(x_L) = x_S, d0 >= ceil(x).  From d0 the search raises a violated row i
by the jump ceil(((I.d)_i - c_i) / |e_i|), Laufer's fundamental-cycle
iteration.  While d lies below every feasible d', raising the other
coordinates only adds to row i, so d'_i >= d_i + jump: no jump
overshoots, and the first feasible d reached is the pointwise minimum.
A jump updates row i and its neighbours' rows only, O(deg_i).  On the
chain (-2, ..., -2, -3), ceil(x) lies about m^2/8 unit raises below the
minimum, and d0 is the minimum at every m tried, up to 20,000.

The number of jumps is bounded too.  Let y = I^{-1}(c - deg), d_up =
ceil(y) and u = d_up - y in [0, 1)^m.  Then

    (I.d_up)_i = c_i - deg_i + e_i u_i + sum over j ~ i of u_j,

where e_i u_i <= 0 (e_i < 0 on a negative definite graph) and the sum is
below deg_i when deg_i >= 1 and is 0 otherwise.  So the integer
(I.d_up)_i is at most c_i: d_up is feasible, and the minimum d* <= d_up.
Each jump raises by at least 1, so jumps <= sum(d* - d0) <= sum(d_up -
ceil(x)), one more substitution to evaluate.
"""

from __future__ import annotations

from itertools import repeat
from math import gcd
from typing import Iterable, NamedTuple, Sequence

from .errors import ConsistencyError, ValidationError, _int_vector, _shown
from .graph import PlumbingGraph


def _intersection_with(graph: PlumbingGraph, vec: Sequence[int]) -> list[int]:
    """I.vec in plain integer arithmetic."""
    at = vec.__getitem__
    return [euler * x + sum(map(at, around))
            for (_, euler, _), x, around in zip(graph.vertices, vec, graph.adjacency)]


class EdgeCurve(NamedTuple):
    """Page boundary classes on the two tori of one plumbed edge."""
    u: str
    v: str
    class_at_u: tuple[int, int]  # (gamma, beta) coordinates at u's torus
    class_at_v: tuple[int, int]
    components: int


class OpenBookDescription(NamedTuple):
    """The open book of multiplicities M = scale.N; the rest derives from M."""
    graph: PlumbingGraph
    scale: int
    binding: tuple[int, ...]          # requested n
    multiplicities: tuple[int, ...]   # M = scale * N

    @property
    def binding_counts(self) -> tuple[int, ...]:
        """b = scale * n."""
        return tuple([self.scale * n for n in self.binding])

    @property
    def outer_slopes(self) -> tuple[tuple[int, int], ...]:
        return tuple([(-euler * m, m)
                      for (_, euler, _), m in zip(self.graph.vertices, self.multiplicities)])

    @property
    def edge_curves(self) -> tuple[EdgeCurve, ...]:
        names, mult = self.graph.ids, self.multiplicities
        return tuple(map(tuple.__new__, repeat(EdgeCurve), [   # no Python call per edge
            (names[i], names[j], (mult[j], -mult[i]), (mult[i], -mult[j]), gcd(mult[i], mult[j]))
            for i, j in self.graph.edges]))

    @property
    def page_euler(self) -> int:
        # chi of the page by counting it as an M_v-sheeted cover of each vertex
        # surface punctured at edges and bindings; annular edge/binding pieces
        # contribute nothing.  Derived here, not a quoted formula.
        graph, scale = self.graph, self.scale
        return sum(m * (2 - 2 * v.genus - deg - scale * n)
                   for v, m, deg, n in zip(graph.vertices, self.multiplicities,
                                           graph.degrees, self.binding))

    @property
    def boundary_components(self) -> int:
        """sum(binding_counts)."""
        return self.scale * sum(self.binding)


def build_open_book(graph: PlumbingGraph,
                    binding: Iterable[int],
                    scale: int | None = None) -> OpenBookDescription:
    """Assemble the open-book description for a positive binding vector.

    The positive rational N with I.N = -n comes from one solve as
    y = det(I) N, so the least k making k.N integral is |det| / gcd(det, y).
    `scale` defaults to that k; an explicit scale must be a positive
    multiple of it.
    """
    entries = _int_vector(binding, graph.m, "binding")
    if min(entries) < 1:
        raise ValidationError("binding entries must be integers >= 1")
    det = graph.factors.det
    scaled = graph.factors.solve_times_det([-n for n in entries])
    least = abs(det) // gcd(det, *scaled)
    if scale is None:
        scale = least
    elif type(scale) is not int or scale < 1:
        raise ValidationError(f"scale must be a positive integer, got {_shown(scale)}")
    elif scale % least != 0:
        raise ValidationError(
            f"scale {_shown(scale)} is not a multiple of the minimal scale {_shown(least)}")
    multiplicities = tuple(scale * y // det for y in scaled)
    return _checked(OpenBookDescription(graph=graph, scale=scale, binding=entries,
                                        multiplicities=multiplicities))


def _checked(description: OpenBookDescription) -> OpenBookDescription:
    """The description, once `verify_gluing` finds no failure."""
    failures = verify_gluing(description)
    if failures:
        raise ConsistencyError("constructed description failed its own gluing check: "
                               + "; ".join(failures))
    return description


def verify_gluing(description: OpenBookDescription) -> tuple[str, ...]:
    """Failures of the vertex relation, by integer row sums; () if none."""
    graph = description.graph
    rows = _intersection_with(graph, description.multiplicities)
    return tuple(f"vertex {_shown(vertex.id, quoted=False)}: multiplicity relation gives "
                 f"{_shown(total)}, expected {_shown(-b)}"
                 for vertex, total, b in zip(graph.vertices, rows, description.binding_counts)
                 if total != -b)


def minimal_open_book(graph: PlumbingGraph) -> OpenBookDescription:
    """The open book of the pointwise-minimal d >= 1 satisfying conditions
    (a) and (b), whose multiplicities are d.

    The search starts at the rounded back substitution of I d = c and
    raises violated rows, taken from a worklist, by exact jumps until
    none is left; see the module docstring for why this ends exactly at
    the minimum.  The binding is n = -I.d, and I is invertible, so
    I.N = -n forces N = d and k = 1: no solve is needed.  The gluing
    check at assembly is the relation I.d = -n itself, so a search that
    returned a wrong n raises ConsistencyError here.
    """
    divisor, binding = _minimal_divisor(graph)
    return _checked(OpenBookDescription(graph=graph, scale=1, binding=binding,
                                        multiplicities=divisor))


def _minimal_divisor(graph: PlumbingGraph) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The minimal divisor d and its binding -I.d, by the jump search."""
    thresholds = [min(-(deg + 2 * v.genus), -1)
                  for v, deg in zip(graph.vertices, graph.degrees)]
    d = list(graph.factors.solve_rounded_up(thresholds))
    row = _intersection_with(graph, d)
    abs_e = [-v.euler for v in graph.vertices]
    queued = [r > c for r, c in zip(row, thresholds)]
    pending = [i for i, q in enumerate(queued) if q]
    while pending:
        i = pending.pop()
        queued[i] = False
        jump = -((thresholds[i] - row[i]) // abs_e[i])
        d[i] += jump
        row[i] -= abs_e[i] * jump
        for j in graph.adjacency[i]:
            row[j] += jump
            if not queued[j] and row[j] > thresholds[j]:
                queued[j] = True
                pending.append(j)
    return tuple(d), tuple(-x for x in row)
