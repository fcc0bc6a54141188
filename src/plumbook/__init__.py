"""Exact invariants of negative-definite plumbing graphs.

Intersection matrices, canonical cycles, minimal divisors with positive
binding, horizontal open-book descriptions, smoothing invariants (mu,
sigma, p_g) of one singularity family, and characteristic-number
bookkeeping for replacing a curve-configuration neighborhood by a Milnor
fiber, all exact: the linear algebra runs in Python ints, `Fraction`
holds only rational results such as the canonical cycle, no floats.
"""

from .canonical import CanonicalCycle, canonical_cycle
from .errors import ConsistencyError, ParseError, PlumbookError, ValidationError
from .family import (ClosedFormValues, FamilyParams, SmoothingInvariants,
                     closed_form_check, default_t, family_resolution_graph,
                     milnor_fiber_invariants, plane_curve_mu, surface_mu)
from .graph import PlumbingGraph, Vertex, parse_graph, serialize_graph
from .openbook import (EdgeCurve, OpenBookDescription, build_open_book,
                       minimal_open_book, verify_gluing)
from .rational import Elimination
from .report import render_json, render_text
from .surgery import SurgeryReport, surgery_characteristics

__version__ = "0.1.0"

__all__ = [
    "CanonicalCycle",
    "ClosedFormValues",
    "ConsistencyError",
    "EdgeCurve",
    "Elimination",
    "FamilyParams",
    "OpenBookDescription",
    "ParseError",
    "PlumbingGraph",
    "PlumbookError",
    "SmoothingInvariants",
    "SurgeryReport",
    "ValidationError",
    "Vertex",
    "__version__",
    "build_open_book",
    "canonical_cycle",
    "closed_form_check",
    "default_t",
    "family_resolution_graph",
    "milnor_fiber_invariants",
    "minimal_open_book",
    "parse_graph",
    "plane_curve_mu",
    "render_json",
    "render_text",
    "serialize_graph",
    "surface_mu",
    "surgery_characteristics",
    "verify_gluing",
]
