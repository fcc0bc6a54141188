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

from dataclasses import dataclass
from fractions import Fraction

from .graph import PlumbingGraph


@dataclass(frozen=True)
class CanonicalCycle:
    coefficients: tuple[Fraction, ...]
    k_squared: Fraction
    adjunction_rhs: tuple[int, ...]

    @property
    def k_squared_is_integral(self) -> bool:
        return self.k_squared.denominator == 1


def adjunction_rhs(graph: PlumbingGraph) -> tuple[int, ...]:
    """Per-vertex value 2g - 2 - e, the pairing of K with each curve."""
    return tuple(2 * v.genus - 2 - v.euler for v in graph.vertices)


def canonical_cycle(graph: PlumbingGraph) -> CanonicalCycle:
    """Solve the adjunction system exactly and report K^2 = r . rhs."""
    rhs = adjunction_rhs(graph)
    coefficients = graph.factors.solve(rhs)
    k_squared = sum((r * b for r, b in zip(coefficients, rhs)), Fraction(0))
    return CanonicalCycle(coefficients=coefficients, k_squared=k_squared,
                          adjunction_rhs=rhs)
