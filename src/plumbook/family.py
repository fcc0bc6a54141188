"""Invariants of the smoothing for the surface-singularity family

    (x^s + y^s) (x^t + y^{N t}) + z^{N-1} = 0.

The branch curve is a plane curve with s distinct lines and t branches
tangent to x = 0; one blow-up leaves a single singular point of
two-term type x^t + y^{(N-1)t}, so the plane Milnor number follows from
one application of the blow-up recursion

    mu(C) = d(d-1) + sum over singular points of the proper transform
            of their mu, + 1 - r,

with d the multiplicity and r the number of distinct tangent lines.
Suspension by z^{N-1} multiplies mu by N-2, and the resolution graph is
two curves A (e = -N, genus (s-1)(N-2)/2) and B (e = -1, genus
(t-1)(N-2)/2) meeting once.  Milnor number, signature and geometric
genus of the Milnor fiber are tied together by

    mu    = K^2 - h + m + 12 p_g
    sigma = -(2 mu + K^2 + m + 2h) / 3

from which p_g is back-solved; integrality of both divisions is a hard
consistency requirement, not a rounding step.  For the specialization
s = 3, t = 30N - 33 both mu and sigma are quartic polynomials in N and
`closed_form_check` evaluates them exactly as a cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import NamedTuple

from .canonical import canonical_cycle
from .errors import ConsistencyError, ValidationError
from .graph import PlumbingGraph, Vertex


@dataclass(frozen=True)
class FamilyParams:
    """Exponents (s, t, N) of one member of the family.

    Constraints, checked on construction in this order (N first, since
    the CLI derives t from N): N >= 3; s, t >= 1; N-1 divides s+t; the
    two genus formulas produce integers; gcd(N-1, t) = 1.
    """
    s: int
    t: int
    N: int

    def __post_init__(self):
        if self.N < 3:
            raise ValidationError(f"N must be at least 3, got N={self.N}")
        if self.s < 1 or self.t < 1:
            raise ValidationError(f"s and t must be positive, got s={self.s}, t={self.t}")
        if (self.s + self.t) % (self.N - 1) != 0:
            raise ValidationError(
                f"N-1 = {self.N - 1} must divide s+t = {self.s + self.t}")
        if (self.s - 1) * (self.N - 2) % 2 != 0:
            raise ValidationError(
                f"(s-1)(N-2) = {(self.s - 1) * (self.N - 2)} must be even "
                "for the first genus to be an integer")
        if (self.t - 1) * (self.N - 2) % 2 != 0:
            raise ValidationError(
                f"(t-1)(N-2) = {(self.t - 1) * (self.N - 2)} must be even "
                "for the second genus to be an integer")
        g = gcd(self.N - 1, self.t)
        if g != 1:
            raise ValidationError(f"gcd(N-1, t) = {g}, expected 1")


def default_t(N: int) -> int:
    """The t used by the s = 3 specialization."""
    return 30 * N - 33


def specialized(N: int) -> FamilyParams:
    """Family member at s = 3, t = 30N - 33."""
    return FamilyParams(s=3, t=default_t(N), N=N)


@dataclass(frozen=True)
class SmoothingInvariants:
    mu: int
    sigma: int
    p_g: int
    k_squared: int
    h: int
    m: int
    b1: int = 0


def brieskorn_mu(a: int, b: int) -> int:
    """Milnor number (a-1)(b-1) of x^a + y^b; 0 when either branch is smooth."""
    if a < 1 or b < 1:
        raise ValidationError(f"exponents must be positive, got ({a}, {b})")
    return (a - 1) * (b - 1)


def plane_curve_mu(params: FamilyParams) -> int:
    """Milnor number of the branch curve (x^s+y^s)(x^t+y^{Nt}) at the origin."""
    # multiplicity s+t, tangent lines s+1, and one blow-up leaves a single
    # singular point of type x^t + y^{(N-1)t}
    s, t, N = params.s, params.t, params.N
    d = s + t
    r = s + 1
    return d * (d - 1) + brieskorn_mu(t, (N - 1) * t) + 1 - r


def surface_mu(params: FamilyParams) -> int:
    """Milnor number of the surface singularity, = (N-2) times the plane one."""
    # suspension by z^{N-1} multiplies mu by N-2
    return (params.N - 2) * plane_curve_mu(params)


def family_resolution_graph(params: FamilyParams) -> PlumbingGraph:
    """Two-vertex resolution graph: A (e=-N) and B (e=-1) meeting once.

    FamilyParams has already checked that both genera are integers.
    """
    genus_a = (params.s - 1) * (params.N - 2) // 2
    genus_b = (params.t - 1) * (params.N - 2) // 2
    return PlumbingGraph(
        [Vertex("A", -params.N, genus_a), Vertex("B", -1, genus_b)],
        [("A", "B")],
    )


def milnor_fiber_invariants(graph: PlumbingGraph, mu: int) -> SmoothingInvariants:
    """Signature and geometric genus of the Milnor fiber from mu and the graph.

    sigma = -(2 mu + K^2 + m + 2h)/3 and p_g = (mu - K^2 + h - m)/12 must
    both divide exactly with p_g >= 0; any failure means the inputs do
    not belong together and is raised as an internal inconsistency.
    """
    cycle = canonical_cycle(graph)
    if not cycle.k_squared_is_integral:
        raise ConsistencyError(f"K^2 = {cycle.k_squared} is not an integer")
    k_squared = int(cycle.k_squared)
    sigma_num = 2 * mu + k_squared + graph.m + 2 * graph.h
    if sigma_num % 3 != 0:
        raise ConsistencyError(
            f"2*mu + K^2 + m + 2h = {sigma_num} is not divisible by 3")
    p_g_num = mu - k_squared + graph.h - graph.m
    if p_g_num % 12 != 0:
        raise ConsistencyError(
            f"mu - K^2 + h - m = {p_g_num} is not divisible by 12")
    p_g = p_g_num // 12
    if p_g < 0:
        raise ConsistencyError(f"geometric genus came out negative: {p_g}")
    return SmoothingInvariants(
        mu=mu,
        sigma=-(sigma_num // 3),
        p_g=p_g,
        k_squared=k_squared,
        h=graph.h,
        m=graph.m,
        b1=0,
    )


class ClosedFormValues(NamedTuple):
    mu: int
    sigma: Fraction


def closed_form_check(N: int) -> ClosedFormValues:
    """Quartic closed forms for mu and sigma at s = 3, t = 30N - 33.

    Valid for N >= 3 with N-1 not divisible by 3 (otherwise the family
    constraints fail); sigma's quartic has thirds in its coefficients
    and is required to come out integral, never rounded.
    """
    if N < 3:
        raise ValidationError(f"N must be at least 3, got {N}")
    if (N - 1) % 3 == 0:
        raise ValidationError(
            f"N-1 = {N - 1} is divisible by 3; gcd(N-1, t) = 1 fails at t = {default_t(N)}")
    mu = 900 * N**4 - 3810 * N**3 + 5292 * N**2 - 2705 * N + 322
    sigma = (-300 * N**4 + 960 * N**3
             - Fraction(2348, 3) * N**2 + Fraction(379, 3) * N - 2)
    if sigma.denominator != 1:
        raise ConsistencyError(f"closed-form signature {sigma} is not integral at N={N}")
    return ClosedFormValues(mu=mu, sigma=sigma)
