"""Characteristic numbers of the cut-and-paste 4-manifold.

Replacing a closed tubular neighborhood of the curve configuration
inside an ambient 4-manifold X by the Milnor fiber W of a smoothing is
plain bookkeeping on characteristic numbers, using inclusion-exclusion
for the Euler characteristic and Novikov additivity for the signature
(both standard; the glued boundary is a 3-manifold, so it contributes
nothing to either):

    chi   = chi(X) - chi(nu C) + chi(W),   chi(W) = 1 + mu
    sigma = sigma(X) - sigma(nu C) + sigma(W),   sigma(nu C) = -m

since the neighborhood's intersection form is negative definite of rank
m.  From those, c_1^2 = 2 chi + 3 sigma and chi_h = (chi + sigma)/4;
chi_h need not be integral (the result need not admit a complex
structure) so it is kept as an exact rational with a flag.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import ValidationError, _shown
from .family import SmoothingInvariants


class SurgeryReport(NamedTuple):
    """Characteristic numbers of the result."""
    chi: int
    sigma: int
    c1_squared: int
    chi_h: Fraction
    bmy_defect: Fraction

    @property
    def chi_h_is_integral(self) -> bool:
        return self.chi_h.denominator == 1


def surgery_characteristics(
    chi: int,
    sigma: int,
    invariants: SmoothingInvariants,
) -> SurgeryReport:
    """Characteristic numbers after swapping the neighborhood for the smoothing.

    chi and sigma are the ambient manifold's, user-supplied ints; nothing
    here derives them.  The configuration is the graph the invariants were
    computed from, `invariants.graph`.
    """
    for field, value in (("chi", chi), ("sigma", sigma)):
        if type(value) is not int:
            raise ValidationError(f"{field} must be an integer, got {_shown(value)}")
    graph = invariants.graph
    chi = chi - graph.chi_neighborhood + 1 + invariants.mu
    sigma = sigma + graph.m + invariants.sigma
    c1_squared = 2 * chi + 3 * sigma
    chi_h = Fraction(chi + sigma, 4)
    bmy_defect = Fraction(9 * (chi + sigma) - 4 * c1_squared, 4)
    return SurgeryReport(
        chi=chi,
        sigma=sigma,
        c1_squared=c1_squared,
        chi_h=chi_h,
        bmy_defect=bmy_defect,
    )
