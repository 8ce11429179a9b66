"""Boundary handles: windows, shifts, extensions, and the two checks."""

from __future__ import annotations

import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgraphkit import Degree, KGraphError, compose, kgraph_to_dict
from kgraphkit.boundary import (
    INF,
    BoundaryPathHandle,
    DerivedHandle,
    WordStreamHandle,
    aperiodicity_window_check,
    check_boundary_condition,
    extend,
    finite_boundary_paths,
    normal_form,
    periodic_path,
    shift,
    substitution_path,
    thue_morse_path,
)
from kgraphkit.cli import main
from kgraphkit.core import _omega_vertex, degrees_up_to, paths_up_to_degree

from oracles import nested_extend, nested_shift


def tm_word(handle, n):
    return "".join(handle.window((0,), (n,)).word)


class TestSubstitution:
    def test_thue_morse_prefix(self, bouquet2):
        tm = thue_morse_path(bouquet2)
        assert tm_word(tm, 8) == "abbabaab"

    def test_single_letter_rule_rejected(self, bouquet2):
        with pytest.raises(KGraphError, match=r"^substitution never leaves 'a'; "
                                              r"use periodic_path for 'a'\^inf$"):
            substitution_path(bouquet2, {"a": ["a", "a"]}, "a")

    def test_wrong_start_rejected(self, bouquet2):
        with pytest.raises(KGraphError,
                           match=r"^rule 'a' -> ba has no growing fixed point at 'a'$"):
            substitution_path(bouquet2, {"a": ["b", "a"], "b": ["a", "b"]}, "a")

    def test_periodic_word_windows(self, bouquet2):
        x = periodic_path(bouquet2, ["a"])
        assert tm_word(x, 3) == "aaa"
        assert x.degree == (INF,)


class TestShiftExtend:
    def test_shift_zero_is_identity(self, bouquet2):
        tm = thue_morse_path(bouquet2)
        assert shift(tm, (0,)) is tm

    def test_shift_window(self, bouquet2):
        tm = thue_morse_path(bouquet2)
        assert tm_word(shift(tm, (1,)), 7) == "bbabaab"

    def test_shift_collapses(self, bouquet2):
        tm = thue_morse_path(bouquet2)
        twice = shift(shift(tm, (2,)), (3,))
        assert tm_word(twice, 5) == tm_word(shift(tm, (5,)), 5)

    def test_extend_then_shift_recovers(self, bouquet2):
        tm = thue_morse_path(bouquet2)
        lam = bouquet2.path(["b", "a"])
        lx = extend(lam, tm)
        assert lx.window((0,), lam.degree) == lam
        back = shift(lx, lam.degree)
        assert back.graph is tm.graph and back.fingerprint((32,)) == tm.fingerprint((32,))

    def test_extend_vertex_is_identity(self, bouquet2):
        tm = thue_morse_path(bouquet2)
        assert extend(bouquet2.vertex_path("v"), tm) is tm

    def test_shift_beyond_degree(self, omega22):
        x = finite_boundary_paths(omega22)[0]
        with pytest.raises(KGraphError, match=r"^shift \(3, 3\) exceeds degree \(0, 0\)$"):
            shift(x, (3, 3))

    def test_omega_shift_and_extend(self, omega22):
        handles = {h.range_vertex: h for h in finite_boundary_paths(omega22)}
        x00 = handles[_omega_vertex((0, 0))]
        x11 = handles[_omega_vertex((1, 1))]
        moved = shift(x00, (1, 1))
        assert moved.graph is x11.graph and moved.fingerprint((2, 2)) == x11.fingerprint((2, 2))
        lam = x00.window((0, 0), (1, 1))
        lx = extend(lam, x11)
        assert lx.graph is x00.graph and lx.fingerprint((2, 2)) == x00.fingerprint((2, 2))

    def test_window_consistency_random_probes(self, bouquet2, flip, omega22):
        rng = random.Random(4422)
        tm = thue_morse_path(bouquet2)
        cases = [tm, shift(tm, (3,)), extend(bouquet2.path(["b", "b"]), tm)]
        cases += finite_boundary_paths(omega22)[:3]
        for x in cases:
            k = x.graph.rank
            for _ in range(25):
                hi = [c if c != INF else 6 for c in x.degree]
                p = [rng.randint(0, hi[i]) for i in range(k)]
                q = [rng.randint(p[i], hi[i]) for i in range(k)]
                r = [rng.randint(q[i], hi[i]) for i in range(k)]
                whole = x.window(p, r)
                left = x.window(p, q)
                right = x.window(q, r)
                assert compose(left, right) == whole


def corner_handle(omega22):
    """The boundary path of degree (2, 2)."""
    return next(h for h in finite_boundary_paths(omega22) if h.degree == (2, 2))


class TestWindowMemo:
    def test_invalid_windows_raise_after_memo_filled(self, bouquet2, omega22):
        x = corner_handle(omega22)
        tm = thue_morse_path(bouquet2)
        for h, top in ((x, x.degree), (tm, (6,))):
            cells = [Degree(c) for c in itertools.product(*(range(t + 1) for t in top))]
            for n in cells:
                for m in cells:
                    if n <= m:
                        h.window(n, m)
        with pytest.raises(KGraphError, match=r"^window needs n <= m, got \(1, 0\), \(0, 1\)$"):
            x.window(Degree((1, 0)), Degree((0, 1)))  # n and m incomparable
        with pytest.raises(KGraphError, match=r"^window \(2, 3\) exceeds degree \(2, 2\)$"):
            x.window(Degree((0, 0)), Degree((2, 3)))  # beyond the finite degree
        with pytest.raises(KGraphError, match=r"^window needs n <= m, got \(3,\), \(2,\)$"):
            tm.window(Degree((3,)), Degree((2,)))
        for h, n, m in ((x, (0, -1), (1, 1)), (tm, (-1,), (2,)), (tm, (0,), (-2,))):
            with pytest.raises(ValueError):
                h.window(n, m)

    def test_tuple_and_list_arguments(self, bouquet2, omega22):
        x = corner_handle(omega22)
        for h, n, m in ((x, (0, 1), (2, 2)), (thue_morse_path(bouquet2), (3,), (40,))):
            fresh = h.window(list(n), list(m))  # a miss, stored under Degree keys
            assert h.window(Degree(n), Degree(m)) is fresh
            assert h.window(n, m) is fresh
            assert h.window(list(n), list(m)) is fresh


class FlipStreamHandle(BoundaryPathHandle):
    """Rank-2 user oracle: a blue letter stream over the flip graph.

    Crossing one red level flips every blue letter, which is exactly what
    the flip squares dictate, so windows are consistent by construction.
    """

    provenance = "user"

    def __init__(self, graph, letters):
        super().__init__(graph, (INF, INF), "v", "flipstream")
        self._letters = letters

    def _window(self, n, m):
        word = list(self._letters(m[0])[n[0]:m[0]])
        if n[1] % 2:
            word = ["b" if c == "a" else "a" for c in word]
        word += ["f"] * (m[1] - n[1])
        if not word:
            return self.graph.vertex_path("v")
        return self.graph.path(word)


def flip_stream(flip, bouquet2):
    tm = thue_morse_path(bouquet2)
    return FlipStreamHandle(flip, lambda n: tm.window((0,), (n,)).word)


class TestRankTwoUserHandle:
    @pytest.fixture()
    def stream(self, flip, bouquet2):
        return flip_stream(flip, bouquet2)

    def test_nested_shift_of_extension(self, flip, stream):
        # shift degree (0,1) is incomparable with the prefix degree (1,0):
        # σ^(0,1)(a·y) = x((0,1), (1,1))·σ^(0,1)(y), a new prefix and so a
        # new name, where the nested rule keeps the extension inside the shift
        x = extend(flip.edge_path("a"), stream)
        y = shift(x, (0, 1))
        got = y.window((0, 0), (2, 1))
        assert got.word == ("b", "b", "f")
        assert normal_form(y) == (flip.edge_path("b"), stream, Degree((0, 1)))
        assert y.name == "b*flipstream>>(0, 1)"
        assert nested_shift(x, (0, 1)).name == "a*flipstream>>(0, 1)"

    def test_window_consistency_probes(self, stream):
        rng = random.Random(9182)
        handles = [stream, shift(stream, (2, 1)),
                   extend(stream.graph.path(["a", "f"]), stream),
                   shift(extend(stream.graph.edge_path("b"), stream), (0, 1))]
        for x in handles:
            for _ in range(20):
                p = [rng.randint(0, 4), rng.randint(0, 4)]
                q = [rng.randint(p[0], 5), rng.randint(p[1], 5)]
                r = [rng.randint(q[0], 6), rng.randint(q[1], 6)]
                assert compose(x.window(p, q), x.window(q, r)) == x.window(p, r)

    def test_shift_extend_equations(self, flip, stream):
        lam = flip.path(["a", "f"])
        lx = extend(lam, stream)
        assert lx.window((0, 0), lam.degree) == lam
        back = shift(lx, lam.degree)
        assert back.graph is stream.graph
        assert back.fingerprint((4, 4)) == stream.fingerprint((4, 4))

    def test_boundary_condition_window(self, stream):
        assert check_boundary_condition([stream], (2, 2), (1, 1)) == [None]


# name -> (graph, roots, cap of the shifts, extension prefixes and windows)
NORMAL_FORM_INPUTS = {
    "thue-morse": ("bouquet2", lambda g, b2: [thue_morse_path(g)], (3,)),
    "flip-stream": ("flip", lambda g, b2: [flip_stream(g, b2)], (2, 2)),
    "omega22-finite": ("omega22", lambda g, b2: finite_boundary_paths(g), (2, 2)),
}


def windows(x, cap) -> dict:
    """x(n, m) for every n <= m <= cap ∧ d(x)."""
    return {(n, m): x.window(n, m) for m in degrees_up_to(Degree(cap).meet(x.degree))
            for n in degrees_up_to(m)}


@settings(max_examples=60, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("name", list(NORMAL_FORM_INPUTS))
def test_normal_form_matches_nested_rule(request, bouquet2, data, name):
    """A random chain of shifts and extensions, applied in the normal form
    and by the nested rule of tests/oracles.py: the same windows, degree,
    range and fingerprint at every step, a root that is never derived, and
    the same name while every shift is comparable with the current prefix."""
    graph, roots, cap = NORMAL_FORM_INPUTS[name]
    g = request.getfixturevalue(graph)
    prefixes = paths_up_to_degree(g, cap)
    new = old = data.draw(st.sampled_from(roots(g, bouquet2)))
    comparable = True
    for _ in range(data.draw(st.integers(1, 5))):
        lam = normal_form(new)[0]
        if data.draw(st.booleans()):
            n = data.draw(st.sampled_from(degrees_up_to(Degree(cap).meet(new.degree))))
            comparable &= n <= lam.degree or lam.degree <= n
            new, old = shift(new, n), nested_shift(old, n)
        else:
            mu = data.draw(st.sampled_from(
                [p for p in prefixes if p.source_vertex == new.range_vertex]))
            new, old = extend(mu, new), nested_extend(mu, old)
        assert not isinstance(normal_form(new)[1], DerivedHandle)
        assert (new.degree, new.range_vertex) == (old.degree, old.range_vertex)
        assert windows(new, cap) == windows(old, cap)
        assert new.fingerprint(cap) == old.fingerprint(cap)
        if comparable:
            assert new.name == old.name


class TestFiniteBoundary:
    def test_omega22_nine_maximal(self, omega22):
        handles = finite_boundary_paths(omega22)
        assert len(handles) == 9
        for h in handles:
            p = [int(c) for c in h.range_vertex[1:].split("_")]
            assert h.degree == tuple(2 - c for c in p)

    def test_line_graph(self):
        from kgraphkit import make_omega

        handles = finite_boundary_paths(make_omega(1, (3,)))
        assert len(handles) == 4

    def test_cycle_rejected(self, bouquet2):
        with pytest.raises(KGraphError,
                           match=r"^path category is infinite \(skeleton has a cycle\)$"):
            finite_boundary_paths(bouquet2)


class TestBoundaryCondition:
    def test_thue_morse_passes(self, bouquet2):
        tm = thue_morse_path(bouquet2)
        assert check_boundary_condition([tm], (8,), (1,)) == [None]

    def test_omega_corner_passes(self, omega22):
        handles = {h.range_vertex: h for h in finite_boundary_paths(omega22)}
        x = handles[_omega_vertex((0, 0))]
        assert check_boundary_condition([x], (2, 2), (1, 1)) == [None]

    def test_non_maximal_path_fails(self, omega22):
        from kgraphkit.boundary import FinitePathHandle

        stub = FinitePathHandle(omega22.edge_path("e1_0_0"))
        [witness] = check_boundary_condition([stub], (1, 0), (1, 1))
        assert witness is not None
        n, E = witness
        assert Degree(n) <= Degree((1, 0))
        assert E  # the unmet finite exhaustive set is reported

    def test_positions_are_not_rebuilt_per_handle(self, bouquet2, tmp_path, capsys,
                                                  monkeypatch):
        # boundary-check on the 64 Thue-Morse shifts at window 512: 576
        # distinct positions.  A Degree per (handle, position) for the memo
        # key s + n made 37,005 Degree.__add__ calls, 32,832 of them that sum;
        # the rest come from windows, FE tests and shifts
        calls = []
        real = Degree.__add__
        monkeypatch.setattr(Degree, "__add__", lambda a, b: calls.append(1) or real(a, b))
        graph, seeds = tmp_path / "bouquet2.kg", tmp_path / "tm64.json"
        graph.write_text(json.dumps(kgraph_to_dict(bouquet2)), encoding="utf-8")
        seeds.write_text(json.dumps({"handles": [{"kind": "substitution", "seed": "a",
                                                  "rules": {"a": "ab", "b": "ba"},
                                                  "shifts": 64}]}), encoding="utf-8")
        assert main(["boundary-check", str(graph), "--seeds", str(seeds), "--window", "512",
                     "--fe-cap", "1", "--shift-bound", "8"]) == 0
        assert capsys.readouterr().err == "kgraphkit boundary-check: pass=128\n"
        assert len(calls) <= 5_000

    def test_truncated_user_handle_raises(self, bouquet2):
        # a window the handle cannot supply is never read as a pass or a fail
        letters = list("abbabaab")
        x = WordStreamHandle(bouquet2, lambda n: letters, "trunc")
        for fe_cap in ((0,), (1,)):
            with pytest.raises(KGraphError,
                               match=r"^trunc has only 8 letters, window needs 9$"):
                check_boundary_condition([x], (10,), fe_cap)


class TestWindowedAperiodicity:
    def test_periodic_fails_immediately(self, bouquet2):
        x = periodic_path(bouquet2, ["a"])
        witness = aperiodicity_window_check(x, (2,), (16,))
        assert witness is not None
        assert tuple(witness[0]) == (0,) and tuple(witness[1]) == (1,)

    def test_thue_morse_passes(self, bouquet2):
        tm = thue_morse_path(bouquet2)
        assert aperiodicity_window_check(tm, (8,), (64,)) is None

    def test_omega_trivially_passes(self, omega22):
        for h in finite_boundary_paths(omega22):
            assert aperiodicity_window_check(h, (2, 2), (2, 2)) is None

    def test_shift_inherits_pass(self, bouquet2):
        # windowed restatement: a passing handle keeps passing after a shift,
        # with the shift budget reduced accordingly
        tm = thue_morse_path(bouquet2)
        assert aperiodicity_window_check(tm, (8,), (64,)) is None
        for m in range(1, 4):
            assert aperiodicity_window_check(shift(tm, (m,)), (8 - m,), (64,)) is None

    def test_extension_inherits_pass(self, bouquet2):
        tm = thue_morse_path(bouquet2)
        for word in (["a"], ["b", "a"], ["b", "b", "a"]):
            lam = bouquet2.path(word)
            assert aperiodicity_window_check(extend(lam, tm), (4 + len(word),), (64,)) is None
