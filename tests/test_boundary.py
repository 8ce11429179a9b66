"""Boundary handles: windows, shifts, extensions, and the two checks."""

from __future__ import annotations

import random

import pytest

from kgraphkit import Degree, compose
from kgraphkit.boundary import (
    INF,
    BoundaryPathHandle,
    DegreeExceeded,
    GraphHasCycles,
    NoFixedPoint,
    WordStreamHandle,
    aperiodicity_window_check,
    check_boundary_condition,
    extend,
    finite_boundary_paths,
    periodic_path,
    shift,
    substitution_path,
    thue_morse_path,
)
from kgraphkit.core import _omega_vertex


def tm_word(handle, n):
    return "".join(handle.window((0,), (n,)).word)


class TestSubstitution:
    def test_thue_morse_prefix(self, bouquet2):
        tm = thue_morse_path(bouquet2)
        assert tm_word(tm, 8) == "abbabaab"

    def test_single_letter_rule_rejected(self, bouquet2):
        with pytest.raises(NoFixedPoint):
            substitution_path(bouquet2, {"a": ["a", "a"]}, "a")

    def test_wrong_start_rejected(self, bouquet2):
        with pytest.raises(NoFixedPoint):
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
        with pytest.raises(DegreeExceeded):
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


class TestRankTwoUserHandle:
    @pytest.fixture()
    def stream(self, flip, bouquet2):
        tm = thue_morse_path(bouquet2)
        letters = lambda n: [c for c in tm.window((0,), (n,)).word]
        return FlipStreamHandle(flip, letters)

    def test_nested_shift_of_extension(self, flip, stream):
        # shift degree (0,1) is incomparable with the prefix degree (1,0),
        # so this goes through the generic nested window computation
        y = shift(extend(flip.edge_path("a"), stream), (0, 1))
        got = y.window((0, 0), (2, 1))
        assert got.word == ("b", "b", "f")

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
        assert check_boundary_condition(stream, (2, 2), (1, 1))


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
        with pytest.raises(GraphHasCycles):
            finite_boundary_paths(bouquet2)


class TestBoundaryCondition:
    def test_thue_morse_passes(self, bouquet2):
        tm = thue_morse_path(bouquet2)
        assert check_boundary_condition(tm, (8,), (1,))

    def test_omega_corner_passes(self, omega22):
        handles = {h.range_vertex: h for h in finite_boundary_paths(omega22)}
        x = handles[_omega_vertex((0, 0))]
        assert check_boundary_condition(x, (2, 2), (1, 1))

    def test_non_maximal_path_fails(self, omega22):
        from kgraphkit.boundary import FinitePathHandle

        stub = FinitePathHandle(omega22.edge_path("e1_0_0"))
        verdict = check_boundary_condition(stub, (1, 0), (1, 1))
        assert verdict.status == "fail"
        n, E = verdict.witness
        assert Degree(n) <= Degree((1, 0))
        assert E  # the unmet finite exhaustive set is reported

    def test_truncated_user_handle_unknown(self, bouquet2):
        letters = list("abbabaab")
        x = WordStreamHandle(bouquet2, lambda n: letters, "trunc")
        verdict = check_boundary_condition(x, (10,), (1,))
        assert verdict.status == "unknown"


class TestWindowedAperiodicity:
    def test_periodic_fails_immediately(self, bouquet2):
        x = periodic_path(bouquet2, ["a"])
        verdict = aperiodicity_window_check(x, (2,), (16,))
        assert verdict.status == "fail"
        assert tuple(verdict.witness[0]) == (0,) and tuple(verdict.witness[1]) == (1,)

    def test_thue_morse_passes(self, bouquet2):
        tm = thue_morse_path(bouquet2)
        assert aperiodicity_window_check(tm, (8,), (64,))

    def test_omega_trivially_passes(self, omega22):
        for h in finite_boundary_paths(omega22):
            assert aperiodicity_window_check(h, (2, 2), (2, 2))

    def test_shift_inherits_pass(self, bouquet2):
        # windowed restatement: a passing handle keeps passing after a shift,
        # with the shift budget reduced accordingly
        tm = thue_morse_path(bouquet2)
        assert aperiodicity_window_check(tm, (8,), (64,))
        for m in range(1, 4):
            assert aperiodicity_window_check(shift(tm, (m,)), (8 - m,), (64,))

    def test_extension_inherits_pass(self, bouquet2):
        tm = thue_morse_path(bouquet2)
        for word in (["a"], ["b", "a"], ["b", "b", "a"]):
            lam = bouquet2.path(word)
            assert aperiodicity_window_check(extend(lam, tm), (4 + len(word),), (64,))
