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
s = 3, t = 30N - 33 mu and 3 sigma are integer quartics in N, and
`closed_form_check` evaluates them exactly as a cross-check.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import NamedTuple

from .canonical import canonical_cycle
from .errors import ConsistencyError, ValidationError, _shown
from .graph import PlumbingGraph, Vertex


class _FamilyFields(NamedTuple):
    s: int
    t: int
    N: int


class FamilyParams(_FamilyFields):
    """Exponents (s, t, N) of one member of the family.

    Constraints, checked on construction in this order (N first, since
    the CLI derives t from N): s, t and N are ints; N >= 3; s, t >= 1;
    N-1 divides s+t; the first genus is an integer; gcd(N-1, t) = 1.  The
    second genus is then one too: N-2 is even, or N-1 is, so s+t is even
    and t is odd as s is.
    """
    __slots__ = ()

    def __new__(cls, s: int, t: int, N: int):
        if not all(type(x) is int for x in (s, t, N)):
            raise ValidationError(f"s, t and N must be integers, got s={_shown(s)}, "
                                  f"t={_shown(t)}, N={_shown(N)}")
        if N < 3:
            raise ValidationError(f"N must be at least 3, got N={_shown(N)}")
        if s < 1 or t < 1:
            raise ValidationError(f"s and t must be positive, got s={_shown(s)}, t={_shown(t)}")
        if (s + t) % (N - 1) != 0:
            raise ValidationError(f"N-1 = {_shown(N - 1)} must divide s+t = {_shown(s + t)}")
        if (s - 1) * (N - 2) % 2 != 0:
            raise ValidationError(
                f"(s-1)(N-2) = {_shown((s - 1) * (N - 2))} must be even "
                "for the first genus to be an integer")
        g = gcd(N - 1, t)
        if g != 1:
            raise ValidationError(f"gcd(N-1, t) = {_shown(g)}, expected 1")
        return super().__new__(cls, s, t, N)

    @classmethod
    def _make(cls, iterable):   # so that _replace checks the new values too
        return cls(*iterable)


def default_t(N: int) -> int:
    """The t used by the s = 3 specialization."""
    if type(N) is not int:
        raise ValidationError(f"N must be an integer, got {_shown(N)}")
    return 30 * N - 33


class SmoothingInvariants(NamedTuple):
    """Invariants of the Milnor fiber of the singularity resolved by `graph`."""
    graph: PlumbingGraph
    mu: int
    sigma: int
    p_g: int
    k_squared: int


def plane_curve_mu(params: FamilyParams) -> int:
    """Milnor number of the branch curve (x^s+y^s)(x^t+y^{Nt}) at the origin."""
    # multiplicity s+t, tangent lines s+1, and one blow-up leaves a single
    # singular point of type x^t + y^{(N-1)t}, whose Milnor number is
    # (t-1)((N-1)t-1)
    s, t, N = params.s, params.t, params.N
    d = s + t
    r = s + 1
    return d * (d - 1) + (t - 1) * ((N - 1) * t - 1) + 1 - r


def surface_mu(params: FamilyParams) -> int:
    """Milnor number of the surface singularity, = (N-2) times the plane one."""
    # suspension by z^{N-1} multiplies mu by N-2
    return (params.N - 2) * plane_curve_mu(params)


def family_resolution_graph(params: FamilyParams) -> PlumbingGraph:
    """Two-vertex resolution graph: A (e=-N) and B (e=-1) meeting once.

    FamilyParams checks the first genus; the second follows as N-1 divides s+t.
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
    if type(mu) is not int:
        raise ValidationError(f"mu must be an integer, got {_shown(mu)}")
    cycle = canonical_cycle(graph)
    if not cycle.k_squared_is_integral:
        raise ConsistencyError(f"K^2 = {_shown(cycle.k_squared)} is not an integer")
    k_squared = int(cycle.k_squared)
    sigma_num = 2 * mu + k_squared + graph.m + 2 * graph.h
    if sigma_num % 3 != 0:
        raise ConsistencyError(
            f"2*mu + K^2 + m + 2h = {_shown(sigma_num)} is not divisible by 3")
    p_g_num = mu - k_squared + graph.h - graph.m
    if p_g_num % 12 != 0:
        raise ConsistencyError(
            f"mu - K^2 + h - m = {_shown(p_g_num)} is not divisible by 12")
    p_g = p_g_num // 12
    if p_g < 0:
        raise ConsistencyError(f"geometric genus came out negative: {_shown(p_g)}")
    return SmoothingInvariants(
        graph=graph,
        mu=mu,
        sigma=-(sigma_num // 3),
        p_g=p_g,
        k_squared=k_squared,
    )


class ClosedFormValues(NamedTuple):
    mu: int
    sigma: Fraction


def closed_form_check(N: int) -> ClosedFormValues:
    """Quartic closed forms for mu and sigma at s = 3, t = 30N - 33.

    Valid for N >= 3 with N-1 not divisible by 3 (otherwise the family
    constraints fail); sigma is an integer quartic over 3.  Its numerator
    is N(N+1) mod 3, which is 0 for every such N, so sigma is integral.
    """
    if type(N) is not int:
        raise ValidationError(f"N must be an integer, got {_shown(N)}")
    if N < 3:
        raise ValidationError(f"N must be at least 3, got {_shown(N)}")
    if (N - 1) % 3 == 0:
        raise ValidationError(
            f"N-1 = {_shown(N - 1)} is divisible by 3; "
            f"gcd(N-1, t) = 1 fails at t = {_shown(default_t(N))}")
    mu = 900 * N**4 - 3810 * N**3 + 5292 * N**2 - 2705 * N + 322
    sigma = Fraction(-900 * N**4 + 2880 * N**3 - 2348 * N**2 + 379 * N - 6, 3)
    return ClosedFormValues(mu=mu, sigma=sigma)
