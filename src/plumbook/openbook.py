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

at every vertex, which `verify_gluing` checks.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable, NamedTuple

from .divisor import _intersection_with, minimal_openbook_divisor
from .errors import ConsistencyError, ValidationError, _int_vector
from .graph import PlumbingGraph


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
        return tuple(self.scale * n for n in self.binding)

    @property
    def outer_slopes(self) -> tuple[tuple[int, int], ...]:
        return tuple((-v.euler * m, m)
                     for v, m in zip(self.graph.vertices, self.multiplicities))

    @property
    def edge_curves(self) -> tuple[EdgeCurve, ...]:
        names, mult = self.graph.ids, self.multiplicities
        return tuple(EdgeCurve(names[i], names[j], (mult[j], -mult[i]), (mult[i], -mult[j]),
                               gcd(mult[i], mult[j]))
                     for i, j in self.graph.edges)

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
        raise ValidationError(f"scale must be a positive integer, got {scale!r}")
    elif scale % least != 0:
        raise ValidationError(
            f"scale {scale} is not a multiple of the minimal scale {least}")
    multiplicities = tuple(scale * y // det for y in scaled)
    if any(x <= 0 for x in multiplicities):
        raise ConsistencyError(
            "multiplicity solution has a nonpositive entry; "
            "the graph cannot have been negative definite")
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
    return tuple(f"vertex {vertex.id}: multiplicity relation gives {total}, expected {-b}"
                 for vertex, total, b in zip(graph.vertices, rows, description.binding_counts)
                 if total != -b)


def minimal_open_book(graph: PlumbingGraph) -> OpenBookDescription:
    """The open book of the minimal divisor d, whose multiplicities are d.

    Its binding is n = -I.d, and I is invertible, so I.N = -n forces
    N = d and k = 1: no solve is needed.  The gluing check at assembly is
    the relation I.d = -n itself, so a search that returned a wrong n
    raises ConsistencyError here.
    """
    found = minimal_openbook_divisor(graph)
    return _checked(OpenBookDescription(graph=graph, scale=1, binding=found.binding,
                                        multiplicities=found.divisor))
