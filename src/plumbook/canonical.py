"""Canonical cycle of a negative-definite plumbing graph.

The canonical cycle is the rational combination sum(r_i E_i) of the
vertex curves singled out by adjunction: for every vertex,
2g_i - 2 = e_i + (K . E_i), i.e. the coefficient vector r solves

    I . r = rhs,    rhs_i = 2 g_i - 2 - e_i,

with I the intersection matrix.  I is invertible because the graph is
negative definite, so r exists and is unique; its entries need not be
integers.  The self-intersection K^2 = r . rhs is what the smoothing
formulas consume.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .graph import PlumbingGraph


class CanonicalCycle(NamedTuple):
    coefficients: tuple[Fraction, ...]
    k_squared: Fraction
    adjunction_rhs: tuple[int, ...]

    @property
    def k_squared_is_integral(self) -> bool:
        return self.k_squared.denominator == 1


def canonical_cycle(graph: PlumbingGraph) -> CanonicalCycle:
    """Solve the adjunction system exactly and report K^2 = r . rhs."""
    rhs = tuple(2 * v.genus - 2 - v.euler for v in graph.vertices)   # K.E_v
    det, scaled = graph.factors.det, graph.factors.solve_times_det(rhs)
    return CanonicalCycle(coefficients=tuple(Fraction(y, det) for y in scaled),
                          k_squared=Fraction(sum(y * b for y, b in zip(scaled, rhs)), det),
                          adjunction_rhs=rhs)
