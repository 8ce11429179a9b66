"""MCE against brute force, vee closure, exhaustivity, FE enumeration."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgraphkit import Degree, make_bouquet, paths_up_to_degree, validate_presentation
from kgraphkit.alignment import (
    CapTooLargeForBudget,
    EmptyEError,
    NotLocallyConvex,
    _test_degree,
    _test_set,
    enumerate_fe,
    extends,
    is_exhaustive,
    is_exhaustive_brute,
    mce,
    mce_brute,
    mce_set,
    mce_set_brute,
    vee,
)
from kgraphkit.core import _omega_vertex

from conftest import nlc_presentation
from oracles import enumerate_fe_brute, vee_brute


class TestMce:
    def test_omega_edges_meet_in_square(self, omega22):
        mu = omega22.edge_path("e1_0_0")
        nu = omega22.edge_path("e2_0_0")
        got = mce(omega22, mu, nu)
        assert len(got) == 1
        assert got[0].degree == Degree((1, 1))
        assert got[0].range_vertex == _omega_vertex((0, 0))

    def test_distinct_loops_disjoint(self, bouquet2):
        assert mce(bouquet2, bouquet2.edge_path("a"), bouquet2.edge_path("b")) == []

    def test_cycle_prefix(self, c3):
        e0 = c3.edge_path("e0")
        e0e1 = c3.path(["e0", "e1"])
        assert mce(c3, e0, e0e1) == [e0e1]
        assert mce_brute(c3, e0, e0e1) == [e0e1]

    def test_different_ranges_empty(self, c3):
        assert mce(c3, c3.edge_path("e0"), c3.edge_path("e1")) == []

    def test_mce_set_singleton(self, bouquet2):
        lam = bouquet2.path(["a", "b"])
        assert mce_set(bouquet2, [lam]) == [lam]

    def test_vee_empty(self, bouquet2):
        assert vee(bouquet2, []) == []

    def test_vee_vertex_and_loops(self, bouquet2):
        F = [bouquet2.vertex_path("v"), bouquet2.edge_path("a"), bouquet2.edge_path("b")]
        assert vee(bouquet2, F) == sorted(F, key=lambda p: p.sort_key())

    def test_vee_monotone(self, flip):
        small = [flip.vertex_path("v"), flip.edge_path("a")]
        large = small + [flip.edge_path("f")]
        assert set(vee(flip, small)) <= set(vee(flip, large))

    def test_vee_of_degree_truncation_is_itself(self, corpus):
        # an MCE of two paths below a cap lies below it, so the truncation is
        # vee-closed, in its own sort order (rep-verify uses it as its F)
        caps = {1: [(0,), (1,), (2,), (3,)],
                2: [(0, 0), (1, 1), (1, 2), (2, 1), (0, 3), (2, 2)],
                3: [(0, 0, 0), (1, 1, 1), (1, 0, 2), (2, 2, 1)]}
        for g in [*corpus.values(), make_bouquet(3)]:
            for cap in caps[g.rank]:
                F = paths_up_to_degree(g, cap)
                assert vee(g, F) == F, (g.vertices, cap)


@pytest.fixture(scope="module")
def twin():
    """Single-vertex 2-graph where MCE(a, f) = {a.f, a.g} has two paths."""
    loops = [("a", 1), ("b", 1), ("f", 2), ("g", 2)]
    squares = [(("a", "f"), ("f", "a")), (("a", "g"), ("f", "b")),
               (("b", "f"), ("g", "a")), (("b", "g"), ("g", "b"))]
    return validate_presentation({
        "rank": 2, "vertices": ["v"],
        "edges": [{"name": n, "color": c, "range": "v", "source": "v"} for n, c in loops],
        "squares": [{"top": list(t), "bottom": list(b)} for t, b in squares]})


def test_twin_mce_has_two_paths(twin):
    got = mce(twin, twin.edge_path("a"), twin.edge_path("f"))
    assert [p.label() for p in got] == ["a.f", "a.g"]
    assert got == mce_brute(twin, twin.edge_path("a"), twin.edge_path("f"))


def _pair_cap(g):
    cap = Degree((2,) * g.rank)
    if g.has_finite_path_category():
        cap = cap.meet(g.max_path_degree())
    return cap


@pytest.mark.parametrize("name", ["c3", "bouquet2", "flip", "omega22"])
def test_mce_matches_brute_force(corpus, name):
    g = corpus[name]
    paths = paths_up_to_degree(g, _pair_cap(g))
    for mu in paths:
        for nu in paths:
            assert mce(g, mu, nu) == mce_brute(g, mu, nu), (mu.label(), nu.label())


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_mce_symmetric(data, flip):
    paths = paths_up_to_degree(flip, (2, 2))
    mu = data.draw(st.sampled_from(paths))
    nu = data.draw(st.sampled_from(paths))
    assert mce(flip, mu, nu) == mce(flip, nu, mu)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_mce_set_matches_brute(data, bouquet2):
    paths = paths_up_to_degree(bouquet2, (2,))
    F = data.draw(st.lists(st.sampled_from(paths), min_size=1, max_size=3))
    assert mce_set(bouquet2, F) == mce_set_brute(bouquet2, F)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_mce_set_matches_brute_rank2(data, flip):
    paths = paths_up_to_degree(flip, (1, 1))
    F = data.draw(st.lists(st.sampled_from(paths), min_size=1, max_size=3))
    assert mce_set(flip, F) == mce_set_brute(flip, F)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("name", ["bouquet2", "flip", "omega22", "omega222", "twin"])
def test_vee_matches_subset_oracle(data, corpus, twin, name):
    # the pool spans every range vertex, so F may mix ranges
    g = twin if name == "twin" else corpus[name]
    pool = paths_up_to_degree(g, _pair_cap(g))
    F = data.draw(st.lists(st.sampled_from(pool), max_size=7))
    assert vee(g, F) == vee_brute(g, F), [p.label() for p in F]


class TestExhaustive:
    def test_both_loops(self, bouquet2):
        E = [bouquet2.edge_path("a"), bouquet2.edge_path("b")]
        assert is_exhaustive(bouquet2, "v", E)

    def test_single_loop_fails_with_witness(self, bouquet2):
        verdict = is_exhaustive(bouquet2, "v", [bouquet2.edge_path("a")])
        assert not verdict
        assert verdict.witness == bouquet2.edge_path("b")

    def test_omega_single_edge(self, omega22):
        v = _omega_vertex((0, 0))
        E = [omega22.edge_path("e1_0_0")]
        assert is_exhaustive(omega22, v, E)
        assert is_exhaustive_brute(omega22, v, E)

    def test_empty_e_rejected(self, bouquet2):
        with pytest.raises(EmptyEError):
            is_exhaustive(bouquet2, "v", [])
        with pytest.raises(EmptyEError):
            is_exhaustive_brute(bouquet2, "v", [])

    def test_vertex_alone_exhaustive(self, c3):
        assert is_exhaustive(c3, "v0", [c3.vertex_path("v0")])

    @pytest.mark.parametrize("name", ["c3", "bouquet2", "flip", "omega22"])
    def test_agrees_with_oracle_randomized(self, corpus, name):
        g = corpus[name]
        rng = random.Random(97531)
        for v in g.vertices:
            pool = paths_up_to_degree(g, _pair_cap(g), range_vertex=v)
            for _ in range(12):
                E = rng.sample(pool, k=min(len(pool), rng.randint(1, 3)))
                fast = is_exhaustive(g, v, E)
                slow = is_exhaustive_brute(g, v, E)
                assert fast.exhaustive == slow.exhaustive, (v, [p.label() for p in E])


class TestEnumerateFe:
    def test_bouquet_cap1(self, bouquet2):
        got = enumerate_fe(bouquet2, "v", (1,))
        labels = [[p.label() for p in E] for E in got]
        assert labels == [["v"], ["a", "b"]]

    def test_cycle_contains_unique_edge(self, c3):
        got = enumerate_fe(c3, "v0", (1,))
        assert [c3.edge_path("e0")] in got

    def test_cap_zero(self, flip):
        got = enumerate_fe(flip, "v", (0, 0))
        assert got == [[flip.vertex_path("v")]]

    def test_budget_enforced(self, bouquet2):
        with pytest.raises(CapTooLargeForBudget):
            enumerate_fe(bouquet2, "v", (3,), budget=5)

    def test_members_are_exhaustive_and_minimal(self, flip):
        for E in enumerate_fe(flip, "v", (1, 1)):
            assert is_exhaustive(flip, "v", E)
            for i in range(len(E)):
                rest = E[:i] + E[i + 1:]
                if rest:
                    assert not is_exhaustive(flip, "v", rest)

    def test_omega_singletons(self, omega22):
        got = enumerate_fe(omega22, _omega_vertex((1, 1)), (1, 1))
        assert all(len(E) == 1 for E in got)


_FE_CAPS = {"c3": [(1,), (3,)], "bouquet2": [(1,), (2,)], "flip": [(1, 0), (1, 1)],
            "omega22": [(1, 1), (2, 2)], "omega222": [(1, 1, 1)], "twin": [(1, 1)],
            "nlc": [(1, 1)], "ladder3": [(1, 1), (1, 3)]}


@pytest.fixture(scope="module")
def graphs(corpus, twin, nlc, ladder2, ladder3):
    """The corpus plus the twin and the graphs that are not locally convex."""
    return {**corpus, "twin": twin, "nlc": nlc, "ladder2": ladder2, "ladder3": ladder3}


@pytest.mark.parametrize("name,cap", [(name, cap) for name, caps in _FE_CAPS.items()
                                      for cap in caps])
def test_enumerate_fe_matches_subset_oracle(graphs, name, cap):
    g = graphs[name]
    for v in g.vertices:
        got = enumerate_fe(g, v, cap)
        assert got == enumerate_fe_brute(g, v, cap), (v, cap)
        for E in got:
            for i, lam in enumerate(E):
                for mu in E[:i] + E[i + 1:]:
                    assert not extends(lam, mu), (v, lam.label(), mu.label())


@settings(max_examples=40, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("name", ["c3", "bouquet2", "flip", "omega22", "omega222", "twin",
                                  "nlc", "ladder2", "ladder3"])
def test_is_exhaustive_matches_brute_on_random_sets(data, graphs, name):
    # the cover test of enumerate_fe at a cap agrees too: one test set
    # decides every member set below it
    g = graphs[name]
    v = data.draw(st.sampled_from(g.vertices))
    cap = _pair_cap(g)
    pool = paths_up_to_degree(g, cap, range_vertex=v)
    E = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4))
    fast = is_exhaustive(g, v, E)
    assert fast.exhaustive == is_exhaustive_brute(g, v, E).exhaustive, [p.label() for p in E]
    test = _test_set(g, v, _test_degree(g, cap))
    assert fast.exhaustive == all(any(extends(mu, lam) for lam in E) for mu in test)


class TestNotLocallyConvex:
    def test_corpus_is_locally_convex(self, graphs):
        assert [n for n, g in graphs.items() if not g.locally_convex] == [
            "nlc", "ladder2", "ladder3"]

    def test_nlc_edge_alone_is_not_exhaustive(self, nlc):
        verdict = is_exhaustive(nlc, "u", [nlc.edge_path("e")])
        assert not verdict and verdict.witness == nlc.edge_path("f")
        got = enumerate_fe(nlc, "u", (1, 1))
        assert [[p.label() for p in E] for E in got] == [["u"], ["f", "e"]]

    def test_ladder_rung_is_not_exhaustive(self, ladder3):
        verdict = is_exhaustive(ladder3, "u0", [ladder3.edge_path("e0")])
        assert not verdict and verdict.witness.label() == "f1.f2.f3"

    def test_infinite_graph_raises(self):
        g = validate_presentation(nlc_presentation(loop=True))
        assert not g.locally_convex and not g.has_finite_path_category()
        with pytest.raises(NotLocallyConvex):
            is_exhaustive(g, "u", [g.edge_path("e")])
        with pytest.raises(NotLocallyConvex):
            enumerate_fe(g, "u", (1, 1))


@pytest.mark.parametrize("loops,cap,count", [(2, (4,), 677), (3, (3,), 730)])
def test_fe_caps_reached_at_default_budget(loops, cap, count):
    assert len(enumerate_fe(make_bouquet(loops), "v", cap)) == count
