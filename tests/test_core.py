"""Degree arithmetic, validation, normal forms, segments, enumeration."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgraphkit import (
    Degree,
    KGraphError,
    ValidationError,
    compose,
    degrees_up_to,
    kgraph_to_dict,
    make_bouquet,
    make_cycle,
    make_omega,
    omega_path,
    paths_of_degree,
    paths_up_to_degree,
    segment,
    validate_presentation,
    vertex_at,
)
from kgraphkit.core import join_degrees

from conftest import flip_presentation


class TestDegree:
    def test_partial_order_is_coordinatewise(self):
        assert Degree((1, 0)) <= Degree((1, 2))
        assert not Degree((2, 0)) <= Degree((1, 2))
        assert not Degree((1, 2)) <= Degree((2, 1))
        assert not Degree((2, 1)) <= Degree((1, 2))

    def test_lattice_ops(self):
        a, b = Degree((2, 0, 1)), Degree((1, 3, 1))
        assert a.join(b) == Degree((2, 3, 1))
        assert a.meet(b) == Degree((1, 0, 1))
        assert a + b == Degree((3, 3, 2))

    def test_checked_subtraction(self):
        assert Degree((2, 2)) - Degree((1, 0)) == Degree((1, 2))
        with pytest.raises(KGraphError, match=r"^Degree\(0, 1\) is not <= \(1, 0\)$"):
            Degree((1, 0)) - Degree((0, 1))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Degree((-1, 0))

    def test_plain_tuple_operand_is_validated(self):
        with pytest.raises(ValueError):
            Degree((1,)) + (-2,)
        with pytest.raises(ValueError):
            Degree((1,)).meet((-2,))
        with pytest.raises(ValueError):
            Degree((1,)) - (-1,)

    def test_arithmetic_matches_validated_construction(self):
        a, b = Degree((3, 1, 2)), Degree((1, 1, 0))
        for got, coords in [(a + b, (4, 2, 2)), (a - b, (2, 0, 2)), (a.join(b), (3, 1, 2)),
                            (a.meet(b), (1, 1, 0)), (a + (1, 0, 0), (4, 1, 2))]:
            assert type(got) is Degree
            assert got == Degree(coords) and hash(got) == hash(Degree(coords))

    def test_degree_argument_returned_unchanged(self):
        d = Degree((2, 1))
        assert Degree(d) is d
        with pytest.raises(ValueError):
            Degree([-1])
        with pytest.raises(ValueError):
            Degree.unit(2, 3)

    def test_zero_matches_validated_construction(self):
        z = Degree.zero(3)
        assert type(z) is Degree
        assert z == Degree((0, 0, 0)) and hash(z) == hash(Degree((0, 0, 0)))

    def test_degrees_up_to_order(self):
        got = degrees_up_to(Degree((1, 1)))
        assert got == [Degree((0, 0)), Degree((0, 1)), Degree((1, 0)), Degree((1, 1))]


class TestValidation:
    def test_flip_is_valid(self, flip):
        assert flip.rank == 2
        assert set(flip.edges) == {"a", "b", "f"}

    def test_omega22_counts(self, omega22):
        assert len(omega22.vertices) == 9
        by_color = [sum(1 for e in omega22.edges.values() if e.color == c) for c in (1, 2)]
        assert by_color == [6, 6]
        assert len(omega22.squares) == 4

    def test_omega_small_counts(self):
        g = make_omega(2, (1, 1))
        assert len(g.vertices) == 4
        assert len(g.edges) == 4
        assert len(g.squares) == 1
        line = make_omega(1, (3,))
        assert len(line.vertices) == 4
        assert len(line.edges) == 3

    def test_single_vertex_cycle(self):
        g = make_cycle(1)
        assert len(g.vertices) == 1
        assert len(g.edges) == 1
        assert not g.has_finite_path_category()

    def test_missing_square_reported(self):
        pres = flip_presentation()
        del pres["squares"][1]
        with pytest.raises(ValidationError) as err:
            validate_presentation(pres)
        assert err.value.has("IncompleteSquares")

    def test_duplicate_square_top(self):
        pres = flip_presentation()
        pres["squares"].append({"top": ["a", "f"], "bottom": ["f", "a"]})
        with pytest.raises(ValidationError) as err:
            validate_presentation(pres)
        assert err.value.has("NonBijectiveSwap")

    def test_dangling_endpoint(self):
        pres = flip_presentation()
        pres["edges"][0]["source"] = "nowhere"
        with pytest.raises(ValidationError) as err:
            validate_presentation(pres)
        assert err.value.has("DanglingEndpoint")

    @pytest.mark.parametrize("color", [0, 5])
    def test_color_out_of_range(self, color):
        pres = {"rank": 1, "vertices": ["v"],
                "edges": [{"name": "a", "color": 1, "range": "v", "source": "v"},
                          {"name": "b", "color": color, "range": "v", "source": "v"}]}
        with pytest.raises(ValidationError) as err:
            validate_presentation(pres)
        assert [(v.code, v.detail) for v in err.value.violations] == [
            ("ColorOutOfRange", f"edge 'b' has color {color} outside 1..1")]
        assert not err.value.has("DanglingEndpoint")

    def test_square_on_rejected_edge_adds_no_violation(self):
        # f is declared, so the two squares naming it are not "unknown edge"
        # violations on top of f's own
        pres = flip_presentation()
        pres["edges"][2]["color"] = 0
        with pytest.raises(ValidationError) as err:
            validate_presentation(pres)
        assert [(v.code, v.detail) for v in err.value.violations] == [
            ("ColorOutOfRange", "edge 'f' has color 0 outside 1..2")]

    def test_duplicate_name(self):
        pres = flip_presentation()
        pres["edges"][1]["name"] = "a"
        with pytest.raises(ValidationError) as err:
            validate_presentation(pres)
        assert err.value.has("DuplicateName")

    def test_round_trip_serialization(self, flip):
        again = validate_presentation(kgraph_to_dict(flip))
        assert set(again.edges) == set(flip.edges)
        assert again.squares == flip.squares

    def test_omega222_valid_and_confluent(self, omega222):
        # rebuilding from the serialized dict re-runs the tricolored check
        again = validate_presentation(kgraph_to_dict(omega222))
        assert len(again.vertices) == 27

    def test_confluence_failure_detected(self):
        # f flips the letters, g fixes them, h flips them, and f swaps g/h;
        # reducing (g,f,a) front-first gives a.f.h but back-first gives b.f.h
        def sq(top, bottom):
            return {"top": list(top), "bottom": list(bottom)}

        pres = {
            "rank": 3,
            "vertices": ["v"],
            "edges": [
                {"name": "a", "color": 1, "range": "v", "source": "v"},
                {"name": "b", "color": 1, "range": "v", "source": "v"},
                {"name": "f", "color": 2, "range": "v", "source": "v"},
                {"name": "g", "color": 3, "range": "v", "source": "v"},
                {"name": "h", "color": 3, "range": "v", "source": "v"},
            ],
            "squares": [
                sq(("a", "f"), ("f", "b")),
                sq(("b", "f"), ("f", "a")),
                sq(("a", "g"), ("g", "a")),
                sq(("b", "g"), ("g", "b")),
                sq(("a", "h"), ("h", "b")),
                sq(("b", "h"), ("h", "a")),
                sq(("f", "g"), ("h", "f")),
                sq(("f", "h"), ("g", "f")),
            ],
        }
        with pytest.raises(ValidationError) as err:
            validate_presentation(pres)
        assert err.value.has("ConfluenceFailure")


class TestComposeAndSegment:
    def test_identity_composition(self, bouquet2):
        a = bouquet2.edge_path("a")
        v = bouquet2.vertex_path("v")
        assert compose(v, a) == a
        assert compose(a, v) == a

    def test_word_composition(self, bouquet2):
        ab = compose(bouquet2.edge_path("a"), bouquet2.edge_path("b"))
        assert ab.word == ("a", "b")
        assert ab.degree == Degree((2,))

    def test_flip_square_application(self, flip):
        af = compose(flip.edge_path("a"), flip.edge_path("f"))
        fb = compose(flip.edge_path("f"), flip.edge_path("b"))
        assert af.word == ("a", "f")
        assert af == fb

    def test_not_composable(self, c3):
        with pytest.raises(KGraphError, match=r"^s\(e0\) = v1 != r\(e0\) = v0$"):
            compose(c3.edge_path("e0"), c3.edge_path("e0"))

    def test_flip_segments(self, flip):
        lam = compose(flip.edge_path("a"), flip.edge_path("f"))
        assert segment(lam, (0, 0), (0, 1)) == flip.edge_path("f")
        assert segment(lam, (0, 1), (1, 1)) == flip.edge_path("b")

    def test_trivial_segments(self, bouquet2):
        lam = bouquet2.path(["a", "b", "a"])
        assert segment(lam, (0,), lam.degree) == lam
        mid = segment(lam, (1,), (1,))
        assert mid.is_vertex() and mid.range_vertex == "v"

    def test_degree_out_of_range(self, bouquet2):
        lam = bouquet2.path(["a", "b"])
        with pytest.raises(KGraphError,
                           match=r"^need m <= n <= d\(λ\); got m=\(1,\), n=\(3,\), d=\(2,\)$"):
            segment(lam, (1,), (3,))

    def test_vertex_at(self, c3):
        lam = c3.path(["e0", "e1"])
        assert vertex_at(lam, (0,)) == "v0"
        assert vertex_at(lam, (1,)) == "v1"
        assert vertex_at(lam, (2,)) == "v2"


class TestEnumeration:
    def test_bouquet_counts(self, bouquet2):
        assert len(paths_of_degree(bouquet2, (3,))) == 8

    def test_omega_uniqueness(self, omega22):
        from kgraphkit.core import _omega_vertex

        assert len(paths_of_degree(omega22, (1, 1), range_vertex=_omega_vertex((0, 0)))) == 1
        for p in [(0, 0), (1, 0), (0, 1)]:
            for q in [(1, 1), (2, 2), (2, 1)]:
                if all(a <= b for a, b in zip(p, q)):
                    got = paths_of_degree(
                        omega22, tuple(b - a for a, b in zip(p, q)),
                        range_vertex=_omega_vertex(p), source_vertex=_omega_vertex(q))
                    assert len(got) == 1

    def test_unknown_endpoint_vertex_rejected(self, omega22):
        # an undeclared source is an error like an undeclared range, not an
        # empty filter
        for endpoint in ("range_vertex", "source_vertex"):
            with pytest.raises(KGraphError, match="unknown vertex 'zzz'"):
                paths_of_degree(omega22, (1, 0), **{endpoint: "zzz"})

    def test_cycle_walks(self, c3):
        got = paths_of_degree(c3, (2,), range_vertex="v0")
        assert [p.word for p in got] == [("e0", "e1")]

    def test_deterministic_order(self, bouquet2):
        got = [p.label() for p in paths_of_degree(bouquet2, (2,))]
        assert got == ["a.a", "a.b", "b.a", "b.b"]

    def test_omega_path_helper(self, omega22):
        lam = omega_path(omega22, (0, 0), (1, 1))
        assert lam.degree == Degree((1, 1))
        assert lam == paths_of_degree(omega22, (1, 1), range_vertex="v0_0")[0]

    def test_omega_segments_match_lattice_arithmetic(self, omega222):
        # lattice translation is an oracle for the rewrite-based segments
        lam = omega_path(omega222, (0, 0, 0), (2, 2, 2))
        for m in degrees_up_to(lam.degree):
            for n in degrees_up_to(lam.degree):
                if m <= n:
                    assert segment(lam, m, n) == omega_path(
                        omega222, tuple(m), tuple(n))


class TestEnumerationMemo:
    """paths_of_degree memoises per graph and degrees_up_to per cap."""

    def test_returned_lists_are_fresh(self):
        g = validate_presentation(flip_presentation())
        calls = [
            lambda: paths_of_degree(g, (1, 1)),
            lambda: paths_of_degree(g, (1, 1), range_vertex="v"),
            lambda: paths_of_degree(g, (1, 1), source_vertex="v"),
            lambda: paths_up_to_degree(g, (1, 1)),
            lambda: paths_up_to_degree(g, (1, 1), range_vertex="v"),
            lambda: degrees_up_to(Degree((1, 1))),
        ]
        for call in calls:
            first = call()
            expected = list(first)
            first.reverse()
            first.append(first[0])
            again = call()
            assert type(again) is list and again == expected

    def test_memo_is_per_graph(self):
        # both graphs name their one vertex v
        b2, b3 = make_bouquet(2), make_bouquet(3)
        for n in (0, 1, 2, 1, 0, 2):
            for g, loops in ((b2, 2), (b3, 3), (b2, 2)):
                for got in (paths_of_degree(g, (n,), range_vertex="v"),
                            paths_of_degree(g, (n,), source_vertex="v")):
                    assert len(got) == loops ** n
                    assert all(p.graph is g for p in got)
        for g in (b3, b2):
            assert all(p.graph is g for p in paths_up_to_degree(g, (2,)))

    def test_memo_matches_fresh_enumeration(self, corpus):
        for name in ("c3", "flip", "omega22", "omega222"):
            g = corpus[name]
            cap = Degree((2,) * g.rank)
            ends = (None, *g.vertices)
            # degrees in reverse and source filters first, so the memo fills
            # in a different order than it is read
            for n in reversed(degrees_up_to(cap)):
                fresh = paths_of_degree(validate_presentation(kgraph_to_dict(g)), n)
                for r in ends:
                    for s in reversed(ends):
                        expected = [(p.range_vertex, p.source_vertex, p.word, p.degree)
                                    for p in fresh if r in (None, p.range_vertex)
                                    and s in (None, p.source_vertex)]
                        for _ in range(2):
                            got = paths_of_degree(g, n, range_vertex=r, source_vertex=s)
                            assert [(p.range_vertex, p.source_vertex, p.word, p.degree)
                                    for p in got] == expected, (name, n, r, s)


class TestFiniteness:
    def test_cycle_is_infinite(self, c3, bouquet2):
        assert not c3.has_finite_path_category()
        assert not bouquet2.has_finite_path_category()

    def test_omega_is_finite(self, omega22):
        assert omega22.has_finite_path_category()
        assert omega22.max_path_degree() == Degree((2, 2))

    @staticmethod
    def _two_lines(second_loops: bool = False):
        """A color-1 line u0 -> u3 beside a color-2 line w0 -> w2, or beside a
        color-2 loop at w0 when second_loops is set."""
        edges = [{"name": f"e{i}", "color": 1, "range": f"u{i}", "source": f"u{i + 1}"}
                 for i in range(3)]
        if second_loops:
            vertices = ["w0"]
            edges.append({"name": "f0", "color": 2, "range": "w0", "source": "w0"})
        else:
            vertices = ["w0", "w1", "w2"]
            edges += [{"name": f"f{i}", "color": 2, "range": f"w{i}", "source": f"w{i + 1}"}
                      for i in range(2)]
        return validate_presentation({"rank": 2, "vertices": [f"u{i}" for i in range(4)]
                                      + vertices, "edges": edges, "squares": []})

    def test_max_degree_matches_path_enumeration(self, omega222):
        # referee: the join of the degrees of every path, enumerated past the maximum
        two_lines = self._two_lines()
        for g, expected in ((make_omega(1, (3,)), (3,)), (omega222, (2, 2, 2)),
                            (two_lines, (3, 2))):
            beyond = g.max_path_degree() + Degree((1,) * g.rank)
            degrees = [p.degree for p in paths_up_to_degree(g, beyond)]
            assert g.max_path_degree() == join_degrees(degrees, g.rank) == Degree(expected)
        # no single path of the two lines has the joined degree
        assert Degree((3, 2)) not in [p.degree for p in paths_up_to_degree(two_lines, (3, 2))]

    def test_cycle_in_second_component_is_infinite(self):
        g = self._two_lines(second_loops=True)
        assert not g.has_finite_path_category()
        with pytest.raises(KGraphError):
            g.max_path_degree()


# property checks over the corpus ------------------------------------------


def _all_paths(g, cap):
    return paths_up_to_degree(g, cap)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_factorization_round_trip(data, flip):
    paths = _all_paths(flip, (2, 2))
    lam = data.draw(st.sampled_from(paths))
    pairs = [(m, n) for m in degrees_up_to(lam.degree)
             for n in degrees_up_to(lam.degree) if m <= n]
    m, n = data.draw(st.sampled_from(pairs))
    left = segment(lam, Degree.zero(2), m)
    mid = segment(lam, m, n)
    right = segment(lam, n, lam.degree)
    assert compose(left, compose(mid, right)) == lam


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_degree_functoriality(data, flip):
    paths = _all_paths(flip, (2, 1))
    lam = data.draw(st.sampled_from(paths))
    mus = [p for p in paths if p.range_vertex == lam.source_vertex]
    mu = data.draw(st.sampled_from(mus))
    assert compose(lam, mu).degree == lam.degree + mu.degree


def test_canonical_form_idempotent(flip):
    for lam in _all_paths(flip, (2, 2)):
        assert flip.normalize(lam.word) == lam.word
