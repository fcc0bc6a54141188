import pytest

from plumbook import (ParseError, PlumbingGraph, ValidationError, Vertex,
                      parse_graph, serialize_graph)

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
        with pytest.raises(ValidationError, match="negative genus"):
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

    def test_declaration_before_use(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_graph("vertex a e=-2 g=0\nedge a b\nvertex b e=-2 g=0")


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
