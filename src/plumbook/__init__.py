"""Exact invariants of negative-definite plumbing graphs.

Everything runs over `fractions.Fraction`: intersection matrices,
canonical cycles, minimal divisors with positive binding, horizontal
open-book descriptions, smoothing invariants (mu, sigma, p_g) of one
singularity family, and characteristic-number bookkeeping for replacing
a curve-configuration neighborhood by a Milnor fiber.  No floating
point is used anywhere.
"""

from .canonical import CanonicalCycle, adjunction_rhs, canonical_cycle
from .divisor import (ConditionReport, MinimalDivisor, binding_vector,
                      minimal_openbook_divisor, openbook_condition,
                      scale_divisor)
from .errors import (ConsistencyError, DimensionError, ParseError,
                     PlumbookError, ValidationError)
from .family import (ClosedFormValues, FamilyParams, SmoothingInvariants,
                     brieskorn_mu, closed_form_check, default_t,
                     family_resolution_graph, milnor_fiber_invariants,
                     plane_curve_mu, specialized, surface_mu)
from .graph import PlumbingGraph, Vertex, parse_graph, serialize_graph
from .openbook import (EdgeCurve, EquivalenceCertificate, GluingCheck,
                       OpenBookDescription, build_open_book,
                       equivalence_certificate, solve_multiplicities,
                       verify_gluing)
from .rational import Elimination, eliminate_upper, lcm_of_denominators
from .report import rational_str, render_json, render_text
from .surgery import AmbientData, SurgeryReport, surgery_characteristics

__version__ = "0.1.0"

__all__ = [
    "AmbientData",
    "CanonicalCycle",
    "ClosedFormValues",
    "ConditionReport",
    "ConsistencyError",
    "DimensionError",
    "EdgeCurve",
    "Elimination",
    "EquivalenceCertificate",
    "FamilyParams",
    "GluingCheck",
    "MinimalDivisor",
    "OpenBookDescription",
    "ParseError",
    "PlumbingGraph",
    "PlumbookError",
    "SmoothingInvariants",
    "SurgeryReport",
    "ValidationError",
    "Vertex",
    "__version__",
    "adjunction_rhs",
    "binding_vector",
    "brieskorn_mu",
    "build_open_book",
    "canonical_cycle",
    "closed_form_check",
    "default_t",
    "eliminate_upper",
    "equivalence_certificate",
    "family_resolution_graph",
    "lcm_of_denominators",
    "milnor_fiber_invariants",
    "minimal_openbook_divisor",
    "openbook_condition",
    "parse_graph",
    "plane_curve_mu",
    "rational_str",
    "render_json",
    "render_text",
    "scale_divisor",
    "serialize_graph",
    "solve_multiplicities",
    "specialized",
    "surface_mu",
    "surgery_characteristics",
    "verify_gluing",
]
