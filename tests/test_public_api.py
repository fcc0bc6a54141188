"""The public surface is the one listed, its record types keep their
contract, and README's example runs.

Each record is an immutable tuple: keyword construction, no assignment,
and a repr that reads `Name(field=value, ...)`.  `FamilyParams` also
checks its values whenever one is made.
"""

import contextlib
import io
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import plumbook
from plumbook import (CanonicalCycle, EdgeCurve, FamilyParams, OpenBookDescription,
                      PlumbingGraph, SmoothingInvariants, SurgeryReport, ValidationError,
                      Vertex, build_open_book, closed_form_check, default_t,
                      milnor_fiber_invariants, parse_graph, surgery_characteristics)

GOLDEN = Path(__file__).resolve().parent / "golden"

# every public name; a removal or an addition is a change to this list
PUBLIC = [
    "CanonicalCycle", "ClosedFormValues", "ConsistencyError", "EdgeCurve", "Elimination",
    "FamilyParams", "OpenBookDescription", "ParseError", "PlumbingGraph", "PlumbookError",
    "SmoothingInvariants", "SurgeryReport", "ValidationError", "Vertex", "__version__",
    "build_open_book", "canonical_cycle", "closed_form_check", "default_t",
    "family_resolution_graph", "milnor_fiber_invariants", "minimal_open_book",
    "parse_graph", "plane_curve_mu", "render_json", "render_text", "serialize_graph",
    "surface_mu", "surgery_characteristics", "verify_gluing",
]
GRAPH = PlumbingGraph([("A", -3, 1), ("B", -1, 28)], [("A", "B")])
INVARIANTS = milnor_fiber_invariants(GRAPH, 9865)

RECORDS = [
    (Vertex, {"id": "a", "euler": -2, "genus": 0}),
    (EdgeCurve, {"u": "A", "v": "B", "class_at_u": (87, -30), "class_at_v": (30, -87),
                 "components": 3}),
    (OpenBookDescription, {"graph": GRAPH, "scale": 1, "binding": (3, 57),
                           "multiplicities": (30, 87)}),
    (CanonicalCycle, {"coefficients": (Fraction(-1, 3), Fraction(2)),
                      "k_squared": Fraction(-4707), "adjunction_rhs": (1, 55)}),
    (SmoothingInvariants, {"graph": GRAPH, "mu": 9865, "sigma": -5047, "p_g": 1219,
                           "k_squared": -4707}),
    (SurgeryReport, {"chi": 100, "sigma": -20, "c1_squared": 140,
                     "chi_h": Fraction(20), "bmy_defect": Fraction(40)}),
    (FamilyParams, {"s": 3, "t": 57, "N": 3}),
]


def test_all_is_the_public_surface():
    assert len(PUBLIC) == 30
    assert plumbook.__all__ == PUBLIC
    assert all(hasattr(plumbook, name) for name in PUBLIC)


@pytest.mark.parametrize("kind, fields", RECORDS, ids=lambda x: getattr(x, "__name__", ""))
class TestRecordContract:
    def test_keyword_construction(self, kind, fields):
        record = kind(**fields)
        assert {name: getattr(record, name) for name in fields} == fields
        assert kind(*fields.values()) == record

    def test_fields_cannot_be_assigned(self, kind, fields):
        record = kind(**fields)
        for name, value in fields.items():
            with pytest.raises(AttributeError):
                setattr(record, name, value)
        with pytest.raises(AttributeError):
            record.extra = 1

    def test_repr(self, kind, fields):
        shown = ", ".join(f"{name}={value!r}" for name, value in fields.items())
        assert repr(kind(**fields)) == f"{kind.__name__}({shown})"


@pytest.mark.parametrize("record, change, message", [
    (FamilyParams(s=3, t=57, N=3), {"N": 2}, "N must be at least 3, got N=2"),
    (FamilyParams(s=3, t=57, N=3), {"t": 4}, "N-1 = 2 must divide s+t = 7"),
])
def test_replace_checks_the_new_values(record, change, message):
    with pytest.raises(ValidationError) as caught:
        record._replace(**change)
    assert str(caught.value) == message


# every library entry that takes ints, as (call on a list of arguments,
# arguments it accepts, whether that list is one vector of any length)
INT_ENTRIES = {
    "build_open_book binding": (lambda v: build_open_book(GRAPH, v), [3, 57], True),
    "build_open_book scale": (lambda v: build_open_book(GRAPH, (3, 57), scale=v[0]), [2],
                              False),
    "solve_times_det": (lambda v: GRAPH.factors.solve_times_det(v), [1, 2], True),
    "solve_rounded_up": (lambda v: GRAPH.factors.solve_rounded_up(v), [1, 2], True),
    "FamilyParams": (lambda v: FamilyParams(*v), [3, 57, 3], False),
    "surgery_characteristics": (lambda v: surgery_characteristics(v[0], v[1], INVARIANTS),
                                [1, -100], False),
    "milnor_fiber_invariants": (lambda v: milnor_fiber_invariants(GRAPH, v[0]), [9865], False),
    "closed_form_check": (lambda v: closed_form_check(v[0]), [5], False),
    "default_t": (lambda v: default_t(v[0]), [5], False),
    "PlumbingGraph weights": (lambda v: PlumbingGraph([("A", v[0], v[1]), ("B", v[2], v[3])],
                                                      [("A", "B")]), [-3, 1, -1, 28], False),
}

# the arguments that must be iterable and hold no ints themselves, as a
# call on that argument
ITERABLE_ARGUMENTS = {
    "PlumbingGraph vertices": lambda v: PlumbingGraph(v),
    "PlumbingGraph edges": lambda v: PlumbingGraph([("a", -2, 0)], v),
}

# a float or a Fraction may hold an integral value, and a bool is an int
# subclass: none of them is an int, and each is rejected, never converted
NOT_INTS = st.one_of(st.floats(), st.booleans(), st.none(), st.text(max_size=4),
                     st.fractions())
NOT_ITERABLES = st.one_of(st.none(), st.integers(), st.builds(object))


@pytest.mark.parametrize("name", INT_ENTRIES)
def test_each_int_entry_accepts_ints(name):
    call, valid, _ = INT_ENTRIES[name]
    call(valid)


@pytest.mark.parametrize("call", [
    lambda g: build_open_book(g, None),
    lambda g: g.factors.solve_times_det(None),
    lambda g: g.factors.solve_rounded_up(None),
    lambda g: PlumbingGraph(None),
    lambda g: PlumbingGraph([("a", -2, 0)], None),
], ids=["build_open_book", "solve_times_det", "solve_rounded_up",
        "PlumbingGraph vertices", "PlumbingGraph edges"])
def test_a_non_iterable_is_a_validation_error(call):
    graph = parse_graph((GOLDEN / "family_n3.pg").read_text(encoding="utf-8"))
    with pytest.raises(ValidationError, match="must be iterable, got (NoneType|int)$"):
        call(graph)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from(list(INT_ENTRIES) + list(ITERABLE_ARGUMENTS)), st.data())
def test_a_non_int_or_a_wrong_length_is_a_validation_error(name, data):
    if name in ITERABLE_ARGUMENTS:
        with pytest.raises(ValidationError):
            ITERABLE_ARGUMENTS[name](data.draw(NOT_ITERABLES))
        return
    call, valid, vector = INT_ENTRIES[name]
    fault = data.draw(st.sampled_from(["entry", "length", "whole"]) if vector
                      else st.just("entry"))
    if fault == "whole":
        arguments = data.draw(NOT_ITERABLES)
    elif fault == "length":
        length = data.draw(st.integers(0, 5).filter(lambda n: n != len(valid)))
        arguments = [1] * length
    else:
        arguments = list(valid)
        bad = data.draw(NOT_INTS.filter(lambda x: x is not None or "scale" not in name))
        arguments[data.draw(st.integers(0, len(valid) - 1))] = bad   # None: the least scale
    with pytest.raises(ValidationError):
        call(arguments)


README = Path(__file__).resolve().parent.parent / "README.md"

# what README's Library example prints, line for line
LIBRARY_OUTPUT = [
    "-4707",
    "(30, 87) (3, 57)",
    "-9864",
    "SmoothingInvariants(graph=PlumbingGraph(2 vertices, 1 edges), mu=205347, "
    "sigma=-86437, p_g=29816, k_squared=-152093)",
]


def test_readme_library_example_prints_what_it_shows():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library"):]
    example = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(example, {})
    assert out.getvalue().splitlines() == LIBRARY_OUTPUT
    for line in LIBRARY_OUTPUT:
        assert line in example
