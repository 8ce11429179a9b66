"""Path factorization against the quadratic reference algorithm.

`segment` splits a canonical word block by block and `compose` skips the
rewrite when the seam is already color-sorted.  The reference below is the
edge-by-edge algorithm they replace: it scans for each edge of the front,
drags it past the lower colors one square at a time, and sorts every
concatenation by square swaps.  Unique factorization makes both answers
the same path.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgraphkit import Degree, compose, degrees_up_to, paths_up_to_degree, segment
from kgraphkit.boundary import thue_morse_path

CAPS = {"bouquet2": (4,), "flip": (3, 2), "omega22": (2, 2), "omega222": (2, 2, 2)}


def normalize_ref(g, word):
    w = list(word)
    for i in range(1, len(w)):
        j = i
        while j > 0 and g.color(w[j - 1]) > g.color(w[j]):
            w[j - 1], w[j] = g._bottom_to_top[(w[j - 1], w[j])]
            j -= 1
    return tuple(w)


def split_ref(g, word, m):
    front = []
    rest = list(word)
    for color in range(1, g.rank + 1):
        for _ in range(m[color - 1]):
            pos = next(i for i, name in enumerate(rest) if g.color(name) == color)
            for p in range(pos, 0, -1):
                rest[p - 1], rest[p] = g._top_to_bottom[(rest[p - 1], rest[p])]
            front.append(rest.pop(0))
    return tuple(front), tuple(rest)


def segment_ref(lam, m, n):
    """(range vertex, source vertex, word, degree) of λ(m, n)."""
    g = lam.graph
    front, rest = split_ref(g, lam.word, m)
    mid_range = g.edges[front[-1]].source_vertex if front else lam.range_vertex
    mid, _ = split_ref(g, rest, n - m)
    mid_source = g.edges[mid[-1]].source_vertex if mid else mid_range
    return mid_range, mid_source, mid, n - m


def _shape(p):
    return p.range_vertex, p.source_vertex, p.word, p.degree


@pytest.fixture(scope="module")
def pools(corpus):
    return {name: (corpus[name], paths_up_to_degree(corpus[name], cap))
            for name, cap in CAPS.items()}


@settings(max_examples=30, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("name", list(CAPS))
def test_segment_matches_reference(data, pools, name):
    g, paths = pools[name]
    lam = data.draw(st.sampled_from(paths))
    zero = Degree.zero(g.rank)
    for m in degrees_up_to(lam.degree):
        assert compose(segment(lam, zero, m), segment(lam, m, lam.degree)) == lam
        for n in degrees_up_to(lam.degree):
            if m <= n:
                got = segment(lam, m, n)
                assert _shape(got) == segment_ref(lam, m, n), (lam.label(), m, n)
                assert type(got.degree) is Degree


@settings(max_examples=40, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("name", list(CAPS))
def test_compose_matches_reference(data, pools, name):
    g, paths = pools[name]
    lam = data.draw(st.sampled_from(paths))
    mu = data.draw(st.sampled_from([p for p in paths if p.range_vertex == lam.source_vertex]))
    got = compose(lam, mu)
    assert got.word == normalize_ref(g, lam.word + mu.word)
    assert got.degree == lam.degree + mu.degree
    assert (got.range_vertex, got.source_vertex) == (lam.range_vertex, mu.source_vertex)


def test_compose_inverted_seam(flip):
    # a color-2 edge before color-1 edges forces square swaps at the seam
    f, ab = flip.edge_path("f"), flip.path(["a", "b"])
    seams = [(f, ab), (flip.path(["a", "f"]), ab), (flip.path(["f", "f"]), flip.edge_path("b"))]
    for lam, mu in seams:
        assert flip.color(lam.word[-1]) > flip.color(mu.word[0])
        got = compose(lam, mu)
        assert got.word == normalize_ref(flip, lam.word + mu.word)
        assert got.word != lam.word + mu.word
        assert got == flip.path(lam.word + mu.word)


def test_thue_morse_window_factors_by_slicing(bouquet2):
    lam = thue_morse_path(bouquet2).window((0,), (512,))
    assert len(lam.word) == 512
    for m in range(0, 513, 16):
        for n in range(m, 513, 48):
            mid = segment(lam, (m,), (n,))
            assert mid.word == lam.word[m:n]
            assert mid.degree == Degree((n - m,))
        assert compose(segment(lam, (0,), (m,)), segment(lam, (m,), (512,))) == lam
    assert _shape(segment(lam, (100,), (400,))) == segment_ref(lam, Degree((100,)), Degree((400,)))


@pytest.mark.parametrize("name", ["flip", "omega22", "omega222"])
def test_segment_end_fast_paths_match_reference(pools, name):
    # m = 0 skips the front split and n = d(λ) the tail split
    _, paths = pools[name]
    for lam in paths:
        zero = Degree.zero(len(lam.degree))
        for p in degrees_up_to(lam.degree):
            assert _shape(segment(lam, zero, p)) == segment_ref(lam, zero, p)
            assert _shape(segment(lam, p, lam.degree)) == segment_ref(lam, p, lam.degree)
        assert segment(lam, zero, lam.degree) is lam


def test_segment_end_fast_paths_on_long_word(bouquet2):
    lam = thue_morse_path(bouquet2).window((0,), (512,))
    d = lam.degree
    for k in list(range(0, 513, 11)) + [511, 512]:
        p = Degree((k,))
        assert _shape(segment(lam, (0,), p)) == segment_ref(lam, Degree((0,)), p)
        assert _shape(segment(lam, p, d)) == segment_ref(lam, p, d)
    assert segment(lam, (0,), (512,)) is lam
