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
import re
import sys
from fractions import Fraction
from typing import Sequence

from .canonical import canonical_cycle
from .errors import ConsistencyError, ParseError, ValidationError, _read_int, _shown
from .family import (FamilyParams, closed_form_check, default_t,
                     family_resolution_graph, milnor_fiber_invariants,
                     plane_curve_mu, surface_mu)
from .graph import PlumbingGraph, _lines, parse_graph, serialize_graph
from .openbook import OpenBookDescription, build_open_book, minimal_open_book
from .report import render_json, render_text
from .surgery import surgery_characteristics

_USAGE_EXIT = 64
_LEFTOVER = "unrecognized arguments: "   # argparse's words, cut by _Parser.error
_VALUE = re.compile(r"(?!-).*|-[0-9]*", re.DOTALL)   # a value argparse never takes for an option

_PAGE_EULER_NOTE = ("derived by this tool from the multiplicities "
                    "(weighted cover count), not an input value")
_B1 = 0   # assumed, not computed: see _B1_NOTE
_B1_NOTE = ("b1 = 0 is assumed, not computed; it holds when the embedding of the "
            "curve configuration is onto the ambient first homology")


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose usage failures exit with code 64 and whose
    unrecognized-arguments and invalid-choice lines show at most 20
    characters of the arguments."""

    def error(self, message):
        if message.startswith(_LEFTOVER):
            message = _LEFTOVER + _shown(message[len(_LEFTOVER):], quoted=False)
        self.print_usage(sys.stderr)
        self.exit(_USAGE_EXIT, f"{self.prog}: error: {message}\n")

    def _check_value(self, action, value):
        if action.choices is not None and value not in action.choices:
            value = _shown(value, quoted=False)   # still no choice; argparse quotes it
        super()._check_value(action, value)


def _argv_int(text: str) -> int:
    """argparse type of the int flags: int(text), and past the digit limit a
    usage error that names the limit and cuts the value to 20 characters."""
    try:
        value = _read_int(text, "value", text)
    except ValidationError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if value is None:
        raise argparse.ArgumentTypeError(f"invalid int value: {_shown(text)}")
    return value


def _plain_reader(actions: list[argparse.Action], handler):
    """A reader of a subcommand's argv from the Actions its `add_argument` calls returned:
    options as declared, each once, the required ones given, each value in `_VALUE` and
    accepted by its type, read into the namespace `parse_known_args` would return.  For
    any other argv it returns None, and argparse reads it, words its errors, prints help."""
    options = {string: action for action in actions for string in action.option_strings}
    required = {action.dest for action in actions if action.required}
    defaults = {action.dest: action.default for action in actions} | {"handler": handler}

    def read(argv: Sequence[str]) -> argparse.Namespace | None:
        values = {}
        tokens = iter(argv)
        for token in tokens:
            action = options.get(token)
            if action is None or action.dest in values:
                return None
            if action.nargs == 0:   # --json
                values[action.dest] = action.const
                continue
            value = next(tokens, None)
            if value is None or not _VALUE.fullmatch(value):
                return None
            if action.type is not None:
                try:
                    value = action.type(value)
                except argparse.ArgumentTypeError:   # argparse words the error
                    return None
            values[action.dest] = value
        return argparse.Namespace(**(defaults | values)) if required <= values.keys() else None

    return read


def _read_graph(path: str) -> PlumbingGraph:
    if path == "-":
        data = sys.stdin.buffer.read()
    else:
        with open(path, "rb", buffering=0) as fh:   # FileIO.readall, no buffer
            data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"input is not UTF-8: byte 0x{data[exc.start]:02x} "
                         f"at offset {exc.start}",
                         len(_lines(data[:exc.start].decode("utf-8")))) from None
    return parse_graph(text)


def _run_check(args) -> dict:
    graph = _read_graph(args.input)
    return {
        "vertices": graph.ids,
        "m": graph.m,
        "edges": len(graph.edges),
        "negative definite": True,
        "determinant": Fraction(graph.factors.det),   # "-5" in JSON
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
    book = minimal_open_book(graph)
    # the slack (I.d)_i + deg_i + 2g_i of condition (a), with I.d = -n
    # checked when the book was assembled
    slacks = tuple(deg + 2 * v.genus - n
                   for v, deg, n in zip(graph.vertices, graph.degrees, book.binding))
    return {
        "vertices": graph.ids,
        "divisor": book.multiplicities,
        "binding": book.binding,
        "slacks": slacks,
        "condition holds": all(s <= 0 for s in slacks),
    }


def _describe_open_book(description: OpenBookDescription) -> dict:
    curves = [{"u": u, "v": v, "class at u": at_u, "class at v": at_v, "components": components}
              for u, v, at_u, at_v, components in description.edge_curves]
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
        value = _read_int(raw, f"binding value for {_shown(name)}", part) if eq and name else None
        if value is None:
            raise ValidationError(f"binding entry {_shown(part)} is not of the form id=integer")
        if name in values:
            raise ValidationError(f"binding assigns vertex {_shown(name)} twice")
        values[name] = value
    known = set(graph.ids)
    unknown = [name for name in values if name not in known]
    if unknown:
        raise ValidationError("binding names unknown vertices: "
                              + _shown(", ".join(unknown), quoted=False))
    missing = [vid for vid in graph.ids if vid not in values]
    if missing:
        raise ValidationError("binding is missing vertices: "
                              + _shown(", ".join(missing), quoted=False))
    return tuple(values[vid] for vid in graph.ids)


def _run_openbook(args) -> dict:
    graph = _read_graph(args.input)
    report: dict = {"vertices": graph.ids}
    if args.n is not None:
        binding = _parse_binding(args.n, graph)
        report.update(_describe_open_book(build_open_book(graph, binding, scale=args.k)))
        return report
    book = minimal_open_book(graph)
    description = book
    if args.k is not None and args.k != book.scale:
        description = build_open_book(graph, book.binding, scale=args.k)
    report["divisor"] = book.multiplicities
    report.update(_describe_open_book(description))
    import hashlib   # the certificate is its only user, so other runs skip the import
    counts = book.binding_counts
    report["certificate"] = {
        "graph sha256": hashlib.sha256(serialize_graph(graph).encode("utf-8")).hexdigest(),
        "divisor": book.multiplicities,
        "binding": book.binding,
        "k": book.scale,
        "configuration binding counts": counts,
        "smoothing binding counts": counts,
        "verdict": True,   # minimal_open_book raised otherwise
    }
    return report


def _smoothing(s: int, t: int | None, N: int) -> tuple:
    """The member's (params, smoothing invariants)."""
    if t is None:
        if s != 3:
            raise ValidationError("--t is required when s is not 3")
        t = default_t(N)
    params = FamilyParams(s=s, t=t, N=N)
    return params, milnor_fiber_invariants(family_resolution_graph(params), surface_mu(params))


def _family_member(s: int, t: int | None, N: int) -> dict:
    params, invariants = _smoothing(s, t, N)
    graph = invariants.graph
    report = {
        "s": params.s,
        "t": params.t,
        "N": params.N,
        "genera": tuple(v.genus for v in graph.vertices),
        "m": graph.m,
        "h": graph.h,
        "k squared": invariants.k_squared,
        "mu plane": plane_curve_mu(params),
        "mu": invariants.mu,
        "sigma": invariants.sigma,
        "p_g": invariants.p_g,
        "b1": _B1,
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
    lo = _read_int(lo_str, "sweep start", text) if sep else None
    hi = _read_int(hi_str, "sweep end", text) if sep else None
    if lo is None or hi is None:
        raise ValidationError(f"sweep must look like N1..N2, got {_shown(text)}")
    if lo > hi:
        raise ValidationError(f"sweep range {_shown(text)} is empty")
    return lo, hi


def _run_family(args) -> dict:
    if args.sweep is not None:
        if args.N is not None or args.t is not None:
            raise ValidationError("--sweep cannot be combined with --N or --t")
        lo, hi = _parse_sweep(args.sweep)
        if args.s != 3:
            raise ValidationError(f"--sweep needs s = 3: s = {_shown(args.s)} needs --t, "
                                  "which --sweep does not take")
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
        _, invariants = _smoothing(args.s, args.t, args.N)
    elif have_graph and have_mu:
        try:   # reading the graph raises no ConsistencyError
            invariants = milnor_fiber_invariants(_read_graph(args.input), args.mu)
        except ConsistencyError as exc:
            # a computed mu can only disagree with its graph through a bug;
            # a given one disagrees when the user paired the wrong numbers
            raise ValidationError(
                f"[surgery] --mu {_shown(args.mu)} does not fit the graph: {exc}") from None
    else:
        raise ValidationError("surgery needs either --N or both -i and --mu")
    result = surgery_characteristics(args.chi, args.sigma, invariants)
    graph = invariants.graph
    return {
        "ambient chi": args.chi,
        "ambient sigma": args.sigma,
        "m": graph.m,
        "h": graph.h,
        "chi of neighborhood": graph.chi_neighborhood,
        "mu": invariants.mu,
        "sigma of smoothing": invariants.sigma,
        "p_g": invariants.p_g,
        "chi": result.chi,
        "sigma": result.sigma,
        "c1 squared": result.c1_squared,
        "chi_h": result.chi_h,
        "chi_h integral": result.chi_h_is_integral,
        "bmy defect": result.bmy_defect,
        "b1 note": _B1_NOTE,
    }


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and shared by every later one."""
    parser = _Parser(prog="plumbook",
                     description="exact invariants of negative-definite plumbing graphs")
    subcommands = parser.add_subparsers(dest="command", required=True, metavar="command")
    actions: dict = {}   # subcommand parser -> the Actions add_argument returned

    def option(sub: argparse.ArgumentParser, *names: str, **kwargs) -> None:
        actions.setdefault(sub, []).append(sub.add_argument(*names, **kwargs))

    def add(name: str, help_text: str, handler) -> argparse.ArgumentParser:
        sub = subcommands.add_parser(name, help=help_text, description=help_text)
        sub.set_defaults(handler=handler)
        option(sub, "--json", action="store_true", help="emit JSON instead of text")
        return sub

    def add_input(sub: argparse.ArgumentParser, required: bool = True) -> None:
        option(sub, "-i", "--input", required=required, metavar="PATH",
               help="graph file ('-' for standard input)")

    def add_family_params(sub: argparse.ArgumentParser) -> None:
        option(sub, "--s", type=_argv_int, default=3, help="first exponent (default 3)")
        option(sub, "--t", type=_argv_int, default=None,
               help="second exponent (default 30N-33 when s=3)")
        option(sub, "--N", type=_argv_int, default=None, help="suspension exponent")

    add_input(add("check", "validate a graph and print derived data", _run_check))
    add_input(add("canonical", "canonical cycle coefficients and K^2", _run_canonical))
    add_input(add("divisor", "pointwise-minimal divisor with positive binding",
                  _run_divisor))

    openbook = add("openbook", "open-book description for a binding vector",
                   _run_openbook)
    add_input(openbook)
    option(openbook, "--n", metavar="ID=INT,...", default=None,
           help="binding vector (default: from the minimal divisor)")
    option(openbook, "--k", type=_argv_int, default=None,
           help="scale, a positive multiple of the minimal one")

    family = add("family", "smoothing invariants of an (s, t, N) family member",
                 _run_family)
    add_family_params(family)
    option(family, "--sweep", metavar="N1..N2", default=None,
           help="evaluate a whole range of N, skipping invalid members")

    surgery = add("surgery", "characteristic numbers of the cut-and-paste manifold",
                  _run_surgery)
    add_input(surgery, required=False)
    add_family_params(surgery)
    option(surgery, "--mu", type=_argv_int, default=None,
           help="Milnor number to pair with the -i graph")
    option(surgery, "--chi", type=_argv_int, required=True,
           help="Euler characteristic of the ambient manifold")
    option(surgery, "--sigma", type=_argv_int, required=True,
           help="signature of the ambient manifold")

    parser.commands = subcommands.choices    # subcommand name -> its parser
    for sub in parser.commands.values():
        sub.read_plain = _plain_reader(actions[sub], sub.get_default("handler"))
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser()
    command = parser.commands.get(argv[0]) if argv else None
    args = command.read_plain(argv[1:]) if command else None
    if args is None:
        try:
            # the named subcommand's parser gives its own errors and help
            args, extra = (command.parse_known_args(argv[1:]) if command
                           else parser.parse_known_args(argv))
            if extra:
                parser.error(_LEFTOVER + " ".join(extra))
        except SystemExit as exc:
            return exc.code   # argparse exits with 64 (_Parser.error) or 0 (help)
    try:
        report = args.handler(args)
    except ConsistencyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValidationError, OSError) as exc:
        if isinstance(getattr(exc, "filename", None), str):   # str(exc) quotes it whole
            exc.filename = _shown(exc.filename, quoted=False)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(render_json(report) if args.json else render_text(report))
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
