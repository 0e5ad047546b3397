import hashlib
import itertools

import pytest

from dnagraph import (FAMILIES, Digraph, InvalidParameterError, ResourceLimitError,
                      format_digraph_text, isomorphic,
                      line_digraph, make_chorded_cycle, make_dicycle, make_dipath,
                      make_infinity, make_ladder, make_propeller3, make_windmill,
                      parse_digraph_text, to_dot)
from dnagraph.digraph import middle_vertices


def chords_of(d):
    """Arcs of d whose endpoints are joined by a directed 2-path (the chords)."""
    return tuple(arc for arc, middle in zip(d.arcs, middle_vertices(d)) if middle)


def degrees(d, v):
    """(out-degree, in-degree) of v, counted from the name pairs."""
    return sum(t == v for t, _ in d.arcs), sum(h == v for _, h in d.arcs)


def brute_line_arc_count(d):
    # independent recount: composable arc pairs
    return sum(1 for x in d.arcs for y in d.arcs if x[1] == y[0])


class TestDigraphType:
    def test_rejects_duplicate_arcs(self):
        with pytest.raises(InvalidParameterError):
            Digraph(["a", "b"], [("a", "b"), ("a", "b")])

    def test_rejects_unknown_endpoint(self):
        with pytest.raises(InvalidParameterError):
            Digraph(["a"], [("a", "b")])

    def test_rejects_duplicate_vertex(self):
        with pytest.raises(InvalidParameterError):
            Digraph(["a", "a"], [])

    @pytest.mark.parametrize("name", ["a b", " x", "x\t", "", "\n", "a\u00a0b"])
    def test_rejects_names_the_text_format_cannot_carry(self, name):
        with pytest.raises(InvalidParameterError,
                           match=r"vertex name .* is empty or contains whitespace"):
            Digraph([name, "c"], [(name, "c")])

    def test_reports_the_first_bad_name(self):
        with pytest.raises(InvalidParameterError) as exc:
            Digraph(["ok", "a b", ""], [])
        assert str(exc.value) == "vertex name 'a b' is empty or contains whitespace"

    @pytest.mark.parametrize("arc", [("a", "b", "c"), ("b",), ()])
    def test_rejects_an_arc_that_is_not_a_pair(self, arc):
        with pytest.raises(InvalidParameterError) as exc:
            Digraph(["a", "b"], [("a", "b"), arc, ("a", "b")])
        assert str(exc.value) == f"arc {arc!r} is not a (tail, head) pair"

    def test_equal_tails_different_heads_differ(self):
        assert Digraph(["a", "b"], [("a", "a")]) != Digraph(["a", "b"], [("a", "b")])

    def test_neighbor_order_is_insertion_order(self):
        d = Digraph(["a", "b", "c"], [("a", "c"), ("a", "b")])
        assert [h for t, h in d.arcs if t == "a"] == ["c", "b"]
        assert degrees(d, "c")[1] == 1


class TestFamilies:
    def test_dicycle_counts(self):
        d = make_dicycle(3)
        assert d.vertex_count == 3 and d.arc_count == 3
        assert all(degrees(d, v) == (1, 1) for v in d.vertices)

    def test_dicycle_wraparound(self):
        assert ("v6", "v1") in make_dicycle(6).arcs

    def test_dicycle_too_small(self):
        with pytest.raises(InvalidParameterError):
            make_dicycle(1)

    def test_dipath(self):
        d = make_dipath(4)
        assert d.arc_count == 3 and ("v4", "v1") not in d.arcs

    def test_chorded_cycle_6(self):
        d = make_chorded_cycle(6)
        assert d.arc_count == 8
        assert set(chords_of(d)) == {("v1", "v3"), ("v4", "v6")}

    def test_chorded_cycle_7(self):
        # t = 1, chord tails step by three up to n - t
        d = make_chorded_cycle(7)
        assert set(chords_of(d)) == {("v1", "v3"), ("v4", "v6")}

    def test_chorded_cycle_12(self):
        d = make_chorded_cycle(12)
        assert len(chords_of(d)) == 4 and d.arc_count == 16
        assert line_digraph(d).vertex_count == 16

    @pytest.mark.parametrize("n", range(4, 20))
    def test_chord_count_and_span(self, n):
        d = make_chorded_cycle(n)
        chords = chords_of(d)
        assert len(chords) == n // 3
        index = {f"v{i}": i for i in range(1, n + 1)}
        for tail, head in chords:
            assert (index[head] - index[tail]) % n == 2

    def test_loop_does_not_make_a_chord(self):
        # a -> a -> b and a -> b -> b are walks, not 2-paths through a middle vertex
        d = Digraph(["a", "b"], [("a", "a"), ("a", "b"), ("b", "b")])
        assert chords_of(d) == ()

    def test_chorded_too_small(self):
        with pytest.raises(InvalidParameterError):
            make_chorded_cycle(3)

    def test_infinity_counts(self):
        d = make_infinity(4, 5)
        assert d.vertex_count == 8 and d.arc_count == 9
        small = make_infinity(3, 3)
        assert small.vertex_count == 5 and small.arc_count == 6
        assert make_infinity(6, 8).vertex_count == 13

    def test_infinity_shared_degrees(self):
        d = make_infinity(5, 7)
        degree4 = [v for v in d.vertices if sum(degrees(d, v)) == 4]
        assert degree4 == ["v2"]
        assert degrees(d, "v2") == (2, 2)
        others = [v for v in d.vertices if v != "v2"]
        assert all(degrees(d, v) == (1, 1) for v in others)

    def test_infinity_bounds(self):
        with pytest.raises(InvalidParameterError):
            make_infinity(2, 5)

    def test_propeller_counts(self):
        assert make_propeller3(5, 5, 6).vertex_count == 14
        assert make_propeller3(5, 6, 7).vertex_count == 16
        tiny = make_propeller3(3, 3, 3)
        assert tiny.vertex_count == 7 and tiny.arc_count == 9

    def test_propeller_shared_degree(self):
        d = make_propeller3(4, 5, 6)
        assert degrees(d, "v2") == (3, 3)

    def test_windmill_is_equal_blades(self):
        assert make_windmill(4) == make_propeller3(4, 4, 4)

    def test_ladder_2(self):
        # enumerate the four arcs straight from the orientation rule
        d = make_ladder(2)
        assert set(d.arcs) == {("t0", "t1"), ("b1", "b0"), ("b0", "t0"), ("t1", "b1")}

    def test_ladder_3_matches_drawing(self):
        d = make_ladder(3)
        assert d.vertex_count == 6 and d.arc_count == 7
        assert set(d.arcs) == {
            ("t0", "t1"), ("t1", "t2"),
            ("b1", "b0"), ("b2", "b1"),
            ("b0", "t0"), ("t1", "b1"), ("b2", "t2"),
        }

    def test_ladder_4_is_lifted_double_square(self):
        assert isomorphic(line_digraph(make_infinity(4, 4)), make_ladder(4))


class TestLineDigraph:
    def test_dicycle_self_adjoint(self):
        d = make_dicycle(4)
        assert isomorphic(line_digraph(d), d)

    def test_chorded_12_counts(self):
        ld = line_digraph(make_chorded_cycle(12))
        assert ld.vertex_count == 16 and ld.arc_count == 20

    def test_infinity_4_5_counts(self):
        # sum of indeg*outdeg: the shared vertex contributes 4, seven others 1
        ld = line_digraph(make_infinity(4, 5))
        assert ld.vertex_count == 9 and ld.arc_count == 11

    @pytest.mark.parametrize("d", [
        make_dicycle(5), make_chorded_cycle(9), make_infinity(4, 6),
        make_propeller3(3, 4, 5), make_ladder(4),
    ])
    def test_count_formulas(self, d):
        ld = line_digraph(d)
        assert ld.vertex_count == d.arc_count
        assert ld.arc_count == sum(out * into for out, into in (degrees(d, v) for v in d.vertices))
        assert ld.arc_count == brute_line_arc_count(d)

    def test_walk_names(self):
        ld = line_digraph(make_dicycle(3))
        assert set(ld.vertices) == {"v1→v2", "v2→v3", "v3→v1"}
        ld2 = line_digraph(ld)
        assert "v1→v2→v3" in ld2.vertices


class TestIsomorphic:
    def test_different_sizes(self):
        assert not isomorphic(make_dicycle(3), make_dicycle(4))

    def test_cycle_and_its_reverse(self):
        d = make_dicycle(4)
        rev = Digraph(d.vertices, [(h, t) for t, h in d.arcs])
        assert isomorphic(d, rev)

    def test_rename_invariance(self):
        d = make_chorded_cycle(6)
        renamed = Digraph([f"x{v}" for v in d.vertices],
                          [(f"x{t}", f"x{h}") for t, h in d.arcs])
        assert isomorphic(d, renamed)

    def test_same_degrees_different_structure(self):
        # two triangles vs a hexagon: same degree sequence, not isomorphic
        two = Digraph(["a", "b", "c", "d", "e", "f"],
                      [("a", "b"), ("b", "c"), ("c", "a"),
                       ("d", "e"), ("e", "f"), ("f", "d")])
        assert not isomorphic(two, make_dicycle(6))

    def test_reflexive_and_symmetric(self):
        a, b = make_ladder(3), line_digraph(make_infinity(3, 3))
        assert isomorphic(a, a)
        assert isomorphic(a, b) == isomorphic(b, a)

    def test_size_cap(self):
        big = make_dicycle(13)
        with pytest.raises(ResourceLimitError):
            isomorphic(big, big)
        assert isomorphic(make_dicycle(12), make_dicycle(12))


class TestTextFormats:
    def test_round_trip(self):
        d = make_chorded_cycle(7)
        again = parse_digraph_text(format_digraph_text(d))
        assert set(again.arcs) == set(d.arcs)
        assert set(again.vertices) == set(d.vertices)

    def test_round_trip_stable(self):
        text = format_digraph_text(make_ladder(3))
        assert format_digraph_text(parse_digraph_text(text)) == text

    def test_isolated_vertex_round_trip(self):
        lone = line_digraph(make_dipath(2))
        assert format_digraph_text(lone) == "1 0\nv1→v2\n"
        assert parse_digraph_text(format_digraph_text(lone)) == lone
        mixed = Digraph(["a", "b", "c"], [("a", "b")])
        assert format_digraph_text(mixed) == "3 1\na b\nc\n"
        assert parse_digraph_text(format_digraph_text(mixed)) == mixed

    def test_vertex_line_checked_against_header(self):
        with pytest.raises(InvalidParameterError):
            parse_digraph_text("2 1\na b\nc\n")
        with pytest.raises(InvalidParameterError):
            parse_digraph_text("2 1\na b\nb\n")

    def test_header_mismatch(self):
        with pytest.raises(InvalidParameterError):
            parse_digraph_text("2 1\na b\nb c\n")

    def test_vertex_count_mismatch(self):
        with pytest.raises(InvalidParameterError):
            parse_digraph_text("5 1\na b\n")

    def test_dot_contains_labels(self):
        from dnagraph import Labeling
        d = make_dicycle(3)
        lab = Labeling(2, 2, {"v1": (1, 1), "v2": (1, 2), "v3": (2, 1)})
        dot = to_dot(d, lab)
        assert '"v1" [label="v1\\n11"];' in dot
        assert '"v3" -> "v1";' in dot
        assert to_dot(d).count("->") == 3

    def test_dot_escapes_quotes_and_backslashes(self):
        d = Digraph(['a"b', "c\\d", "e"], [('a"b', "c\\d"), ("c\\d", "e")])
        assert to_dot(d) == ('digraph dnagraph {\n  "a\\"b" [label="a\\"b"];\n'
                             '  "c\\\\d" [label="c\\\\d"];\n  "e" [label="e"];\n'
                             '  "a\\"b" -> "c\\\\d";\n  "c\\\\d" -> "e";\n}\n')


def test_family_generators_are_pinned():
    # every FAMILIES generator over a grid of parameters, including the ones
    # it refuses: one sha256 over each member's vertex and arc tuples, or its
    # error type and message
    grid = {"n": range(1, 30), "p": range(2, 20), "q": range(2, 12)}
    digest = hashlib.sha256()
    members = 0
    for family, (params, make) in FAMILIES.items():
        for values in itertools.product(*(grid[name] for name in params)):
            try:
                d = make(*values)
                got = (d.vertices, d.arcs)
            except InvalidParameterError as exc:
                got = (type(exc).__name__, str(exc))
            digest.update(repr((family, values, got)).encode())
            members += 1
    assert members == 5887
    assert digest.hexdigest() == "7d508118cc2f5a3b3645f4a3b0ebd0714d08f7d4cc17a589c201e299be506dc4"
