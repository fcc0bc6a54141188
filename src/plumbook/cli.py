"""Command-line interface.

Subcommands:

    check      validate a graph and print its derived data
    canonical  canonical cycle coefficients and K^2
    divisor    pointwise-minimal divisor with positive binding
    openbook   open-book description for a binding vector
    family     smoothing invariants of an (s, t, N) family member
    surgery    characteristic numbers of the cut-and-paste manifold

Graphs are read with `-i PATH` in the line-oriented format documented in
`graph` ('-' reads standard input).  Reports go to standard output as an
indented key/value listing, or JSON with `--json`; both are
byte-deterministic for identical inputs.  Exit codes: 0 success, 1 input
or validation error, 2 internal-consistency failure, 64 usage error.
"""

from __future__ import annotations

import argparse
import functools
import sys
from fractions import Fraction
from typing import Sequence

from .canonical import canonical_cycle
from .divisor import minimal_openbook_divisor, openbook_condition
from .errors import ConsistencyError, ParseError, ValidationError
from .family import (FamilyParams, closed_form_check, default_t,
                     family_resolution_graph, milnor_fiber_invariants,
                     plane_curve_mu, surface_mu)
from .graph import PlumbingGraph, parse_graph
from .openbook import OpenBookDescription, build_open_book, equivalence_certificate
from .report import render_json, render_text
from .surgery import AmbientData, surgery_characteristics

_USAGE_EXIT = 64

_PAGE_EULER_NOTE = ("derived by this tool from the multiplicities "
                    "(weighted cover count), not an input value")


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose usage failures exit with code 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(_USAGE_EXIT, f"{self.prog}: error: {message}\n")


def _read_graph(path: str) -> PlumbingGraph:
    if path == "-":
        data = sys.stdin.buffer.read()
    else:
        with open(path, "rb") as fh:
            data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"input is not UTF-8: byte 0x{data[exc.start]:02x} "
                         f"at offset {exc.start}",
                         data.count(b"\n", 0, exc.start) + 1) from None
    return parse_graph(text)


def _run_check(args) -> dict:
    graph = _read_graph(args.input)
    return {
        "vertices": graph.ids,
        "m": graph.m,
        "edges": len(graph.edges),
        "negative definite": True,
        "determinant": Fraction(graph.factors.determinant()),   # "-5" in JSON
        "h": graph.h,
        "chi of neighborhood": graph.chi_neighborhood,
        "cycle rank": graph.cycle_rank,
        "degrees": graph.degrees,
    }


def _run_canonical(args) -> dict:
    graph = _read_graph(args.input)
    cycle = canonical_cycle(graph)
    return {
        "vertices": graph.ids,
        "coefficients": cycle.coefficients,
        "adjunction rhs": cycle.adjunction_rhs,
        "k squared": cycle.k_squared,
        "k squared integral": cycle.k_squared_is_integral,
    }


def _run_divisor(args) -> dict:
    graph = _read_graph(args.input)
    found = minimal_openbook_divisor(graph)
    condition = openbook_condition(graph, found.divisor)
    return {
        "vertices": graph.ids,
        "divisor": found.divisor,
        "binding": found.binding,
        "slacks": condition.slacks,
        "condition holds": condition.holds,
    }


def _describe_open_book(description: OpenBookDescription) -> dict:
    curves = [
        {
            "u": curve.u,
            "v": curve.v,
            "class at u": curve.class_at_u,
            "class at v": curve.class_at_v,
            "components": curve.components,
        }
        for curve in description.edge_curves
    ]
    return {
        "binding": description.binding,
        "k": description.scale,
        "multiplicities": description.multiplicities,
        "binding counts": description.binding_counts,
        "outer slopes": description.outer_slopes,
        "edge curves": curves,
        "page euler": description.page_euler,
        "page euler note": _PAGE_EULER_NOTE,
        "boundary components": description.boundary_components,
        "gluing verified": True,   # build_open_book raised otherwise
    }


def _parse_binding(text: str, graph: PlumbingGraph) -> tuple[int, ...]:
    values: dict[str, int] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        name, eq, raw = part.partition("=")
        name = name.strip()
        try:
            value = int(raw.strip())
        except ValueError:
            value = None
        if not eq or not name or value is None:
            raise ValidationError(f"binding entry {part!r} is not of the form id=integer")
        if name in values:
            raise ValidationError(f"binding assigns vertex {name!r} twice")
        values[name] = value
    known = set(graph.ids)
    unknown = [name for name in values if name not in known]
    if unknown:
        raise ValidationError(f"binding names unknown vertices: {', '.join(unknown)}")
    missing = [vid for vid in graph.ids if vid not in values]
    if missing:
        raise ValidationError(f"binding is missing vertices: {', '.join(missing)}")
    return tuple(values[vid] for vid in graph.ids)


def _run_openbook(args) -> dict:
    graph = _read_graph(args.input)
    report: dict = {"vertices": graph.ids}
    if args.n is not None:
        binding = _parse_binding(args.n, graph)
        report.update(_describe_open_book(build_open_book(graph, binding, scale=args.k)))
        return report
    certificate = equivalence_certificate(graph)
    description = certificate.configuration_side
    if args.k is not None and args.k != description.scale:
        description = build_open_book(graph, certificate.binding, scale=args.k)
    report["divisor"] = certificate.divisor
    report.update(_describe_open_book(description))
    report["certificate"] = {
        "graph sha256": certificate.graph_hash,
        "divisor": certificate.divisor,
        "binding": certificate.binding,
        "k": certificate.scale,
        "configuration binding counts": certificate.configuration_side.binding_counts,
        "smoothing binding counts": tuple(certificate.scale * n
                                          for n in certificate.binding),
        "verdict": certificate.verdict,
    }
    return report


def _family_params(s: int, t: int | None, N: int) -> FamilyParams:
    if t is None:
        if s != 3:
            raise ValidationError("--t is required when s is not 3")
        t = default_t(N)
    return FamilyParams(s=s, t=t, N=N)


def _family_member(s: int, t: int | None, N: int) -> dict:
    params = _family_params(s, t, N)
    graph = family_resolution_graph(params)
    invariants = milnor_fiber_invariants(graph, surface_mu(params))
    report = {
        "s": params.s,
        "t": params.t,
        "N": params.N,
        "genera": tuple(v.genus for v in graph.vertices),
        "m": invariants.m,
        "h": invariants.h,
        "k squared": invariants.k_squared,
        "mu plane": plane_curve_mu(params),
        "mu": invariants.mu,
        "sigma": invariants.sigma,
        "p_g": invariants.p_g,
        "b1": invariants.b1,
    }
    if s == 3 and params.t == default_t(N):
        closed = closed_form_check(N)
        report["closed form mu"] = closed.mu
        report["closed form sigma"] = closed.sigma
        report["closed form match"] = (closed.mu == invariants.mu
                                       and closed.sigma == invariants.sigma)
    return report


def _parse_sweep(text: str) -> tuple[int, int]:
    lo_str, sep, hi_str = text.partition("..")
    try:
        lo, hi = int(lo_str), int(hi_str)
    except ValueError:
        lo = hi = None
    if not sep or lo is None:
        raise ValidationError(f"sweep must look like N1..N2, got {text!r}")
    if lo > hi:
        raise ValidationError(f"sweep range {text!r} is empty")
    return lo, hi


def _run_family(args) -> dict:
    if args.sweep is not None:
        if args.N is not None or args.t is not None:
            raise ValidationError("--sweep cannot be combined with --N or --t")
        lo, hi = _parse_sweep(args.sweep)
        members = []
        for n in range(lo, hi + 1):
            try:
                members.append(_family_member(args.s, None, n))
            except ValidationError as exc:
                members.append({"N": n, "skipped": str(exc)})
        return {"s": args.s, "sweep": members}
    if args.N is None:
        raise ValidationError("either --N or --sweep is required")
    return _family_member(args.s, args.t, args.N)


def _run_surgery(args) -> dict:
    have_graph = args.input is not None
    have_mu = args.mu is not None
    have_family = args.N is not None
    if have_family and (have_graph or have_mu):
        raise ValidationError("give either --N (family member) or -i with --mu, not both")
    if have_family:
        params = _family_params(args.s, args.t, args.N)
        graph = family_resolution_graph(params)
        invariants = milnor_fiber_invariants(graph, surface_mu(params))
    elif have_graph and have_mu:
        graph = _read_graph(args.input)
        try:
            invariants = milnor_fiber_invariants(graph, args.mu)
        except ConsistencyError as exc:
            # a computed mu can only disagree with its graph through a bug;
            # a given one disagrees when the user paired the wrong numbers
            raise ValidationError(
                f"[surgery] --mu {args.mu} does not fit the graph: {exc}") from None
    else:
        raise ValidationError("surgery needs either --N or both -i and --mu")
    result = surgery_characteristics(AmbientData(chi=args.chi, sigma=args.sigma),
                                     graph, invariants)
    return {
        "ambient chi": args.chi,
        "ambient sigma": args.sigma,
        "m": invariants.m,
        "h": invariants.h,
        "chi of neighborhood": result.chi_neighborhood,
        "mu": invariants.mu,
        "sigma of smoothing": invariants.sigma,
        "p_g": invariants.p_g,
        "chi": result.chi,
        "sigma": result.sigma,
        "c1 squared": result.c1_squared,
        "chi_h": result.chi_h,
        "chi_h integral": result.chi_h_is_integral,
        "bmy defect": result.bmy_defect,
        "b1 note": result.b1_note,
    }


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and shared by every later one."""
    parser = _Parser(prog="plumbook",
                     description="exact invariants of negative-definite plumbing graphs")
    subcommands = parser.add_subparsers(dest="command", required=True, metavar="command")

    def add(name: str, help_text: str, handler) -> argparse.ArgumentParser:
        sub = subcommands.add_parser(name, help=help_text, description=help_text)
        sub.set_defaults(handler=handler)
        sub.add_argument("--json", action="store_true", help="emit JSON instead of text")
        return sub

    def add_input(sub: argparse.ArgumentParser, required: bool = True) -> None:
        sub.add_argument("-i", "--input", required=required, metavar="PATH",
                         help="graph file ('-' for standard input)")

    def add_family_params(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--s", type=int, default=3, help="first exponent (default 3)")
        sub.add_argument("--t", type=int, default=None,
                         help="second exponent (default 30N-33 when s=3)")
        sub.add_argument("--N", type=int, default=None, help="suspension exponent")

    add_input(add("check", "validate a graph and print derived data", _run_check))
    add_input(add("canonical", "canonical cycle coefficients and K^2", _run_canonical))
    add_input(add("divisor", "pointwise-minimal divisor with positive binding",
                  _run_divisor))

    openbook = add("openbook", "open-book description for a binding vector",
                   _run_openbook)
    add_input(openbook)
    openbook.add_argument("--n", metavar="ID=INT,...", default=None,
                          help="binding vector (default: from the minimal divisor)")
    openbook.add_argument("--k", type=int, default=None,
                          help="scale, a positive multiple of the minimal one")

    family = add("family", "smoothing invariants of an (s, t, N) family member",
                 _run_family)
    add_family_params(family)
    family.add_argument("--sweep", metavar="N1..N2", default=None,
                        help="evaluate a whole range of N, skipping invalid members")

    surgery = add("surgery", "characteristic numbers of the cut-and-paste manifold",
                  _run_surgery)
    add_input(surgery, required=False)
    add_family_params(surgery)
    surgery.add_argument("--mu", type=int, default=None,
                         help="Milnor number to pair with the -i graph")
    surgery.add_argument("--chi", type=int, required=True,
                         help="Euler characteristic of the ambient manifold")
    surgery.add_argument("--sigma", type=int, required=True,
                         help="signature of the ambient manifold")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if isinstance(code, int):
            return code
        return 0 if code is None else 1
    try:
        report = args.handler(args)
    except ConsistencyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(render_json(report) if args.json else render_text(report))
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
