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

from dataclasses import dataclass
from fractions import Fraction

from .errors import ValidationError
from .family import SmoothingInvariants
from .graph import PlumbingGraph, validate


@dataclass(frozen=True)
class AmbientData:
    """Euler characteristic and signature of the ambient 4-manifold.

    Both are user-supplied; nothing here derives them.
    """
    chi: int
    sigma: int

    def __post_init__(self):
        for field in ("chi", "sigma"):
            value = getattr(self, field)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValidationError(f"{field} must be an integer, got {value!r}")


_B1_NOTE = (
    "b1 = 0 is assumed, not computed; it holds when the embedding of the "
    "curve configuration is onto the ambient first homology"
)


@dataclass(frozen=True)
class SurgeryReport:
    """Characteristic numbers of the result; chi_neighborhood is the Euler
    characteristic of the neighborhood that was cut out."""
    chi_neighborhood: int
    chi: int
    sigma: int
    c1_squared: int
    chi_h: Fraction
    bmy_defect: Fraction
    b1_note: str = _B1_NOTE

    @property
    def chi_h_is_integral(self) -> bool:
        return self.chi_h.denominator == 1


def surgery_characteristics(
    ambient: AmbientData,
    graph: PlumbingGraph,
    invariants: SmoothingInvariants,
) -> SurgeryReport:
    """Characteristic numbers after swapping the neighborhood for the smoothing.

    The invariants must have been computed from the same graph; their
    recorded m and h are cross-checked against it.
    """
    summary = validate(graph)
    if invariants.m != summary.m or invariants.h != summary.h:
        raise ValidationError(
            "invariants were computed from a different graph: "
            f"(m, h) = ({invariants.m}, {invariants.h}) vs "
            f"({summary.m}, {summary.h})")
    chi = ambient.chi - summary.chi_neighborhood + 1 + invariants.mu
    sigma = ambient.sigma + summary.m + invariants.sigma
    c1_squared = 2 * chi + 3 * sigma
    chi_h = Fraction(chi + sigma, 4)
    bmy_defect = 9 * chi_h - c1_squared
    return SurgeryReport(
        chi_neighborhood=summary.chi_neighborhood,
        chi=chi,
        sigma=sigma,
        c1_squared=c1_squared,
        chi_h=chi_h,
        bmy_defect=bmy_defect,
    )
