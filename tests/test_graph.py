import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plumbook import (ParseError, PlumbingGraph, ValidationError, Vertex,
                      parse_graph, serialize_graph)
from plumbook import graph as graph_module

N3_TEXT = """\
# two curves meeting once
vertex A e=-3 g=1
vertex B e=-1 g=28
edge A B
"""


class TestConstruction:
    def test_triples_become_vertices(self):
        graph = PlumbingGraph([("a", -2, 0), Vertex("b", -3, 1)], [("a", "b")])
        assert graph.vertices == (Vertex("a", -2, 0), Vertex("b", -3, 1))
        assert graph.edges == ((0, 1),)
        assert graph.m == 2

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            PlumbingGraph([])

    def test_duplicate_id_rejected(self):
        with pytest.raises(ValidationError, match="duplicate"):
            PlumbingGraph([("a", -2, 0), ("a", -3, 0)])

    def test_bad_id_rejected(self):
        with pytest.raises(ValidationError, match="invalid vertex id"):
            PlumbingGraph([("a b", -2, 0)])

    def test_negative_genus_rejected(self):
        with pytest.raises(ValidationError, match="genus must be nonnegative"):
            PlumbingGraph([("a", -2, -1)])

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(ValidationError, match="unknown edge endpoint"):
            PlumbingGraph([("a", -2, 0)], [("a", "b")])

    def test_loop_rejected(self):
        with pytest.raises(ValidationError, match="loop"):
            PlumbingGraph([("a", -2, 0)], [("a", "a")])

    def test_repeated_edge_rejected(self):
        with pytest.raises(ValidationError, match="repeated edge"):
            PlumbingGraph([("a", -2, 0), ("b", -2, 0)],
                          [("a", "b"), ("b", "a")])

    @pytest.mark.parametrize("euler, genus", [(-2.5, 0), (-2, 0.5), (-2, True), (True, 0)])
    def test_weights_must_be_ints(self, euler, genus):
        # a float would pass into the exact arithmetic: e = -2.5 gives det -2.5, g = 0.5 gives h = 1.0
        with pytest.raises(ValidationError) as caught:
            PlumbingGraph([("a", euler, genus)])
        assert str(caught.value) == f"e and g must be integers, got e={euler!r} g={genus!r}"

    @pytest.mark.parametrize("vertices, edges, message", [
        ([(5, -2, 0)], [], "invalid vertex id 5"),
        ([(b"a", -2, 0)], [], "invalid vertex id b'a'"),
        ([("a",)], [], "expected a vertex (<id>, <e>, <g>), got ('a',)"),
        ([("a", -2, 0)], [(["a"], "a")], "unknown edge endpoint ['a']"),
        ([("a", -2, 0)], [("a", {"a"})], "unknown edge endpoint {'a'}"),
        ([("a", -2, 0)], [("a",)], "expected an edge (<id>, <id>), got ('a',)"),
        ([("a", -2, 0)], [5], "expected an edge (<id>, <id>), got 5"),
        ([("a", -2, 0), ("b", -2, 0)], ["ab"], "expected an edge (<id>, <id>), got 'ab'"),
    ])
    def test_malformed_library_input_is_a_validation_error(self, vertices, edges, message):
        # the parser cannot produce any of these: its ids are strings and its edges pairs
        with pytest.raises(ValidationError) as caught:
            PlumbingGraph(vertices, edges)
        assert str(caught.value) == message

    def test_index_of(self):
        # a vertex's index in every vertex-indexed vector is its place in ids
        graph = PlumbingGraph([("x", -2, 0), ("y", -2, 0)], [("x", "y")])
        assert graph.ids.index("y") == 1
        assert "z" not in graph.ids

    def test_adjacency_and_degrees(self, fixed_corpus):
        d4 = fixed_corpus["d4"]
        assert d4.adjacency == ((1, 2, 3), (0,), (0,), (0,))
        assert d4.degrees == (3, 1, 1, 1)

    def test_equality_and_hash(self):
        a = PlumbingGraph([("a", -2, 0), ("b", -2, 0)], [("a", "b")])
        b = PlumbingGraph([("a", -2, 0), ("b", -2, 0)], [("b", "a")])
        assert a == b
        assert hash(a) == hash(b)
        assert a != PlumbingGraph([("a", -2, 0), ("b", -3, 0)], [("a", "b")])


class TestParsing:
    def test_parse_example(self):
        graph = parse_graph(N3_TEXT)
        assert graph.ids == ("A", "B")
        assert graph.vertices[1] == Vertex("B", -1, 28)
        assert graph.edges == ((0, 1),)

    def test_comments_and_blanks_ignored(self):
        graph = parse_graph("\n  # hi\nvertex a e=-2 g=0  # trailing\n\n")
        assert graph.m == 1

    def test_roundtrip_fixed_corpus(self, fixed_corpus):
        for graph in fixed_corpus.values():
            assert parse_graph(serialize_graph(graph)) == graph

    def test_roundtrip_random_corpus(self, random_corpus):
        for graph, _, _ in random_corpus[:40]:
            assert parse_graph(serialize_graph(graph)) == graph

    def test_serializer_orders_edges(self):
        graph = PlumbingGraph(
            [("z", -2, 0), ("y", -2, 0), ("x", -3, 0)],
            [("z", "x"), ("y", "x")])
        assert serialize_graph(graph) == (
            "vertex z e=-2 g=0\n"
            "vertex y e=-2 g=0\n"
            "vertex x e=-3 g=0\n"
            "edge x y\n"
            "edge x z\n")

    @pytest.mark.parametrize("text,fragment", [
        ("vertex a e=-2", "line 1"),
        ("vertex a e=-2 g=0 extra", "line 1"),
        ("vertex a! e=-2 g=0", "invalid vertex id"),
        ("vertex a e=-2 g=0\nvertex a e=-3 g=0", "line 2"),
        ("vertex a x=-2 g=0", "expected 'e=<int>'"),
        ("vertex a e=-2 g=zz", "expected 'g=<int>'"),
        ("vertex a e=-2 g=-1", "genus must be nonnegative"),
        ("vertex a e=-2 g=0\nedge a", "expected 'edge <id> <id>'"),
        ("vertex a e=-2 g=0\nedge a b", "unknown edge endpoint"),
        ("vertex a e=-2 g=0\nedge a a", "loop"),
        ("vertex a e=-2 g=0\nvertex b e=-2 g=0\nedge a b\nedge b a",
         "repeated edge"),
        ("frobnicate a", "unknown directive"),
        ("", "no vertices"),
        ("# only a comment\n", "no vertices"),
    ])
    def test_parse_errors(self, text, fragment):
        with pytest.raises(ParseError, match=fragment):
            parse_graph(text)

    # str.splitlines would also break at these; the format ends lines at
    # LF, CR LF and CR only, so the line numbers count '\n' as the UTF-8
    # error's do
    @pytest.mark.parametrize("sep", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
                                     "\x85", "\u2028", "\u2029"])
    def test_only_line_ends_split_lines(self, sep):
        assert parse_graph(f"vertex A e=-2 g=0 # note{sep}page\n").m == 1
        with pytest.raises(ParseError) as info:
            parse_graph(f"vertex A e=-2 g=0 # note{sep}page\nvertex A e=-2 g=0\n")
        assert str(info.value) == "line 2: duplicate vertex id 'A'"
        text = f"# a{sep}b{sep}c\nvertex A e=-2 g=0\nbogus\n"
        with pytest.raises(ParseError) as info:
            parse_graph(text)
        assert str(info.value) == f"line {text.count(chr(10))}: unknown directive 'bogus'"

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
    def test_line_ends(self, end):
        with pytest.raises(ParseError) as info:
            parse_graph(f"vertex A e=-2 g=0{end}{end}vertex A e=-2 g=0{end}")
        assert str(info.value) == "line 3: duplicate vertex id 'A'"

    def test_declaration_before_use(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_graph("vertex a e=-2 g=0\nedge a b\nvertex b e=-2 g=0")


# (vertices, edges) with one structural fault, the same declarations as a
# file and the line that file's fault is on
FAULTS = {
    "id form": ([("a!", -2, 0)], [], "vertex a! e=-2 g=0\n", 1),
    "duplicate id": ([("a", -2, 0), ("a", -3, 0)], [],
                     "vertex a e=-2 g=0\nvertex a e=-3 g=0\n", 2),
    "genus": ([("a", -2, -1)], [], "vertex a e=-2 g=-1\n", 1),
    "unknown endpoint": ([("a", -2, 0)], [("a", "b")],
                         "vertex a e=-2 g=0\nedge a b\n", 2),
    "loop": ([("a", -2, 0)], [("a", "a")], "vertex a e=-2 g=0\nedge a a\n", 2),
    "reversed repeated edge": (
        [("a", -2, 0), ("b", -2, 0)], [("a", "b"), ("b", "a")],
        "vertex a e=-2 g=0\nvertex b e=-2 g=0\nedge a b\nedge b a\n", 4),
    "long id": ([("!" * 5000, -2, 0)], [], f"vertex {'!' * 5000} e=-2 g=0\n", 1),
    "huge negative genus": ([("a", -2, -int("9" * 4000))], [],
                            f"vertex a e=-2 g=-{'9' * 4000}\n", 1),
}


class TestOneSetOfRules:
    @pytest.mark.parametrize("fault", FAULTS)
    def test_file_and_library_give_the_same_message(self, fault):
        vertices, edges, text, line = FAULTS[fault]
        with pytest.raises(ValidationError) as built:
            PlumbingGraph(vertices, edges)
        assert not isinstance(built.value, ParseError)
        with pytest.raises(ParseError) as parsed:
            parse_graph(text)
        assert str(parsed.value) == f"line {line}: {built.value}"
        assert parsed.value.line == line

    @pytest.mark.parametrize("fault, message", [
        ("long id", "invalid vertex id '!!!!!!!!!!!!!!!!!!!!...'"),
        ("huge negative genus", "genus must be nonnegative, got -9999999999999999999..."),
    ], ids=["long id", "huge negative genus"])
    def test_a_long_value_is_cut_to_20_characters(self, fault, message):
        vertices, edges, _, _ = FAULTS[fault]
        with pytest.raises(ValidationError) as built:
            PlumbingGraph(vertices, edges)
        assert str(built.value) == message

    def test_first_faulty_line_wins(self):
        # a loop edge on line 3 ahead of a duplicate vertex on line 4
        with pytest.raises(ParseError) as caught:
            parse_graph("vertex a e=-2 g=0\nvertex b e=-2 g=0\nedge a a\nvertex a e=-2 g=0\n")
        assert str(caught.value) == "line 3: loop edge at vertex 'a' is not allowed"

    def test_id_rules_run_before_the_weights_are_read(self):
        with pytest.raises(ParseError) as caught:
            parse_graph("vertex a! e=x g=0\n")
        assert str(caught.value) == "line 1: invalid vertex id 'a!'"

    def test_each_declaration_is_checked_once(self, monkeypatch):
        calls = {"name": 0, "vertex": 0, "edge": 0, "__init__": 0, "_derive": 0}

        def counted(cls, attr):
            original = getattr(cls, attr)

            def wrapper(*args, **kwargs):
                calls[attr] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(cls, attr, wrapper)

        for attr in ("name", "vertex", "edge"):
            counted(graph_module._Declarations, attr)
        counted(PlumbingGraph, "__init__")
        counted(PlumbingGraph, "_derive")
        text = "# a chain\n" + "".join(f"vertex v{i} e=-2 g=0\n" for i in range(5)) \
            + "\n" + "".join(f"edge v{i} v{i + 1}  # joint\n" for i in range(4))
        graph = parse_graph(text)
        assert graph.m == 5
        assert calls == {"name": 5, "vertex": 5, "edge": 4, "__init__": 0, "_derive": 1}


class TestValidate:
    def test_family_summary(self, fixed_corpus):
        graph = fixed_corpus["family_n3"]
        assert graph.m == 2
        assert len(graph.edges) == 1
        assert graph.h == 58
        assert graph.chi_neighborhood == -55
        assert graph.cycle_rank == 0
        assert graph.degrees == (1, 1)

    def test_single_vertex_summaries(self, fixed_corpus):
        a1 = fixed_corpus["a1"]
        assert (a1.h, a1.chi_neighborhood) == (0, 2)
        torus = fixed_corpus["single_torus"]
        assert (torus.h, torus.chi_neighborhood) == (2, 0)

    def test_cyclic_graph_allowed_and_flagged(self, fixed_corpus):
        graph = fixed_corpus["triangle"]
        assert graph.cycle_rank == 1
        assert graph.h == 1
        assert graph.chi_neighborhood == 6 - 3

    def test_disconnected_rejected(self):
        with pytest.raises(ValidationError, match="disconnected"):
            PlumbingGraph([("a", -2, 0), ("b", -2, 0)])

    def test_indefinite_rejected(self):
        with pytest.raises(ValidationError, match="not negative definite"):
            PlumbingGraph([("a", 1, 0)])

    def test_a_long_failing_id_is_cut_to_20_characters(self):
        with pytest.raises(ValidationError) as caught:
            PlumbingGraph([("a" * 5000, 1, 0)])
        assert str(caught.value) == ("intersection matrix is not negative definite "
                                     f"(pivot at vertex {'a' * 20}...)")

    def test_null_direction_rejected(self):
        with pytest.raises(ValidationError, match="not negative definite"):
            PlumbingGraph([("a", -1, 0), ("b", -1, 0)], [("a", "b")])

    def test_rejection_names_the_first_vertex_with_pivot_at_least_zero(self):
        # pivots -1, -1, 0: the leading minors of a and a-b are fine
        with pytest.raises(ValidationError, match=r"\(pivot at vertex c\)"):
            PlumbingGraph([("a", -1, 0), ("b", -2, 0), ("c", -1, 0)],
                          [("a", "b"), ("b", "c")])
        with pytest.raises(ValidationError, match=r"\(pivot at vertex a\)"):
            PlumbingGraph([("a", 0, 0)])

    def test_rejection_names_the_declaration_order_vertex_not_the_factored_one(self):
        # declaration order stops at D (pivots -1, -1, -1, 0); minimum degree
        # eliminates D, E, B, C first and would stop at A
        with pytest.raises(ValidationError) as caught:
            PlumbingGraph([("A", -1, 0), ("B", -2, 0), ("C", -3, 0), ("D", -1, 0), ("E", -3, 0)],
                          [("A", "B"), ("A", "C"), ("B", "D"), ("C", "E")])
        assert str(caught.value) == \
            "intersection matrix is not negative definite (pivot at vertex D)"

    def test_summary_and_adjacency_are_kept_on_the_graph(self, fixed_corpus):
        graph = fixed_corpus["d4"]
        assert graph.factors is graph.factors
        assert graph.ids is graph.ids
        assert graph.adjacency is graph.adjacency

    def test_n5_summary(self, fixed_corpus):
        graph = fixed_corpus["family_n5"]
        assert graph.h == 354
        assert graph.m == 2

    @pytest.mark.parametrize("text, message", [
        ("vertex a e=-2 g=0\nvertex b e=-2 g=0\n", "graph is disconnected"),
        ("vertex a e=-1 g=0\nvertex b e=-1 g=0\nedge a b\n",
         "intersection matrix is not negative definite (pivot at vertex b)"),
    ])
    def test_parse_graph_raises_the_constructors_validation_error(self, text, message):
        with pytest.raises(ValidationError) as caught:
            parse_graph(text)
        assert not isinstance(caught.value, ParseError)
        assert str(caught.value) == message


# What a mutation writes into a weight field: ints that int() reads in
# more than one way, ints past the digit cap, and weights that break a rule
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
WEIGHT_TOKENS = ["e=+5", "g=+1", "e=-1_0", "g=1_0", "e=-\u0663", "g=\u0661", "e=-\uff15",
                 f"e=-{'9' * (DIGIT_LIMIT + 1)}", f"g={'9' * (DIGIT_LIMIT + 1)}",
                 "g=-1", "e=-2,e=-3", "g=", "e=1e3"]
# ... and into any field, ids that are directives among them
FIELD_TOKENS = WEIGHT_TOKENS + ["vertex", "edge", "e=-2", "g=0", "e=x", "x=-2", "a!", "zz",
                                ",e=-2"]


@st.composite
def graph_texts(draw):
    """(text, plain): a valid graph file in any declaration order and
    layout, or the same file with one mutation; `plain` when the file
    is an unmutated one of the kind the bulk pass reads."""
    n = draw(st.integers(1, 6))
    ids = draw(st.lists(st.sampled_from(["a", "b", "c1", "D_2", "vertex", "edge", "x" * 25])
                        | st.text("abcXYZ019_", min_size=1, max_size=3),
                        min_size=n, max_size=n, unique=True))
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    degree = [sum(v in edge for edge in edges) for v in range(n)]
    rows = [["vertex", vid, f"e={-(deg + 1 + draw(st.integers(0, 3)))}",
             f"g={draw(st.integers(0, 2))}"] for vid, deg in zip(ids, degree)]
    edge_rows = [["edge", ids[i], ids[j]] if draw(st.booleans()) else ["edge", ids[j], ids[i]]
                 for i, j in draw(st.permutations(edges))]
    if draw(st.booleans()):   # each edge somewhere after both its endpoints
        for row in edge_rows:
            last = max(rows.index(next(r for r in rows if r[:2] == ["vertex", u]))
                       for u in row[1:])
            rows.insert(draw(st.integers(last + 1, len(rows))), row)
    else:
        rows += edge_rows
    vertices_first = all(row[0] == "vertex" for row in rows[:n])
    kind = draw(st.sampled_from(["none", "field", "weight", "extra field", "drop field",
                                 "comment", "duplicate", "edge first", "loop",
                                 "reversed repeat", "line ends"]))
    at = draw(st.integers(0, len(rows) - 1))
    row = rows[at]
    if kind == "weight":
        vertex = draw(st.sampled_from([row for row in rows if row[0] == "vertex"]))
        vertex[draw(st.sampled_from([2, 3]))] = draw(st.sampled_from(WEIGHT_TOKENS))
    elif kind == "field":
        row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(FIELD_TOKENS + ids))
    elif kind == "extra field":
        row.insert(draw(st.integers(0, len(row))), draw(st.sampled_from(FIELD_TOKENS)))
    elif kind == "drop field":
        del row[draw(st.integers(0, len(row) - 1))]
    elif kind == "duplicate":
        rows.insert(draw(st.integers(0, len(rows))), list(row))
    elif kind == "edge first" and edges:
        rows.insert(0, edge_rows[0])
    elif kind == "loop":
        rows.append(["edge", row[1], row[1]])
    elif kind == "reversed repeat" and edges:
        rows.append(["edge", edge_rows[0][2], edge_rows[0][1]])
    plain = not draw(st.booleans())
    seps = [" "] if plain else [" ", "  ", "\t", "\x0c", "\u2028", "\r"]
    lines = [draw(st.sampled_from(["", "", " ", "\t"])) * (not plain)
             + "".join(field + draw(st.sampled_from(seps)) for field in row[:-1]) + row[-1]
             for row in rows if row]
    if not plain:
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", " ", "\x0b"])))
    if kind == "comment":
        if draw(st.booleans()):
            lines.insert(draw(st.integers(0, len(lines))), "# a note")
        else:
            lines[at % len(lines)] += draw(st.sampled_from(["  # note", "#",
                                                             " #vertex q e=-2 g=0"]))
    end = draw(st.sampled_from(["\r\n", "\r"])) if kind == "line ends" else "\n"
    text = end.join(lines) + draw(st.sampled_from([end, ""]))
    return text, plain and vertices_first and kind == "none"


# plain files with an int past int()'s digit cap, which the bulk pass leaves
# to the line loop to name
PAST_CAP = [f"vertex a e=-{'9' * (DIGIT_LIMIT + 1)} g=0\n",
            f"vertex a e=-2 g={'9' * (DIGIT_LIMIT + 1)}\n"]
# near-rule texts the bulk pass reads: plain files that keep every rule, and
# the ones above where int() has no digit cap
BULK_READ = ["vertex a e=-2 g=0\nvertex b e=-2 g=0\nedge b a",
             "vertex edge e=-2 g=0\nvertex vertex e=-3 g=1\nedge vertex edge\n",
             "vertex vertex e=-2 g=0\nvertex b e=-2 g=0\nedge vertex b\n",
             *PAST_CAP * (not getattr(sys, "get_int_max_str_digits", lambda: 0)())]


def outcome(read, text):
    """The graph of the declarations `read` takes from text, as its vertices
    and edges, or the type and message of the error on the way."""
    try:
        graph = read(text)
    except ValidationError as exc:
        return type(exc), str(exc)
    assert all(type(v) is Vertex and type(v.euler) is int is type(v.genus) for v in graph.vertices)
    return graph.vertices, graph.edges


def read_lines(text):
    graph = PlumbingGraph.__new__(PlumbingGraph)
    graph._derive(graph_module._read_lines(text))
    return graph


class TestBulkPass:
    """`parse_graph` reads a plain file in one pass over all its words and
    hands every other file to the line loop; both must read the same graph
    or raise the same error."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(graph_texts())
    def test_parse_graph_reads_what_the_line_loop_reads(self, case):
        text, plain = case
        declared = graph_module._read_plain(text)   # raises nothing, whatever the text
        assert outcome(parse_graph, text) == outcome(read_lines, text)
        if plain:
            assert declared is not None, text

    @pytest.mark.parametrize("text", [
        *(text for _, _, text, _ in FAULTS.values()),   # plain files that break one rule
        "vertex a e=-2\ng=0\n",   # the words of one declaration on two lines
        "vertex a e=-2 g=0 vertex\nvertex e=-2 g=0\n",   # as many words, lines and directives
        "vertex a\re=-2 g=0\n",
        "vertex a e=-2\ng=0 vertex b e=-2 g=0\nedge a b\n",
        "vertex a e=-2 g=0 vertex\nb e=-2 g=0\nedge a b\n",
        "vertex vertex e=-2 g=0\nvertex b e=-2 g=0\nedge vertex b\n",
        "vertex a e=-2,e=-3 g=0\n",
        "vertex a e=-2 g=0\n\n\nvertex b e=-2 g=0\nedge b a\n\n",
        "vertex a e=-2 g=0\nedge a b\nvertex b e=-2 g=0\n",
        "vertex a e=-2 g=0\n \nvertex b e=-2 g=0\nedge a b\n",
        *BULK_READ[:2],   # no final LF; ids that are directives
        *PAST_CAP,
        "vertex a e=-2 g=0\n\nvertex b e=-2 g=0\nedge a b\n",
        "vertex a e=-2 g=0 \nvertex b e=-2 g=0\nedge a b\n",
        "vertex a e=-2 g=0\nvertex b e=-2 g=0\nedge a b \n",
        "vertex a e=+5 g=0\n",
        "vertex a e=-2 g=1_0\n",
        "vertex a e=-\u0663 g=0\n",
        "vertex a e=-2 g=\u0661\n",
    ])
    def test_texts_near_the_bulk_pass_rules(self, text):
        declared = graph_module._read_plain(text)   # raises nothing, whatever the text
        assert outcome(parse_graph, text) == outcome(read_lines, text)
        assert (declared is not None) == (text in BULK_READ)

    def test_a_plain_file_takes_the_bulk_pass(self, fixed_corpus):
        for graph in fixed_corpus.values():
            text = serialize_graph(graph)
            declared = graph_module._read_plain(text)
            assert declared is not None
            assert declared.vertices == list(graph.vertices)
            assert declared.pairs == set(graph.edges)
