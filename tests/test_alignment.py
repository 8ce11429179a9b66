"""MCE against brute force, vee closure, exhaustivity, FE enumeration."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgraphkit import (
    Degree,
    KGraphError,
    alignment,
    degrees_up_to,
    make_bouquet,
    paths_up_to_degree,
    validate_presentation,
)
from kgraphkit.alignment import (
    _test_degree,
    _test_set,
    enumerate_fe,
    extends,
    is_exhaustive,
    is_exhaustive_brute,
    mce,
    mce_set,
    mce_set_brute,
    mce_table,
    vee,
)
from kgraphkit.core import Path, _omega_vertex, segment

from conftest import nlc_presentation
from oracles import NotMceClosed, enumerate_fe_brute, mce_brute, mce_closed_pairwise, vee_brute


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

    def test_different_ranges_enumerate_nothing(self, omega22, monkeypatch):
        calls = []
        real = alignment.paths_of_degree

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(alignment, "paths_of_degree", counted)
        mu = omega22.edge_path("e1_0_0")
        nu = omega22.edge_path("e2_1_0")
        assert mu.range_vertex != nu.range_vertex
        assert mce(omega22, mu, nu) == []
        assert mce_set(omega22, [omega22.vertex_path("v0_0"), mu, nu]) == []
        assert calls == []
        assert mce(omega22, mu, omega22.edge_path("e2_0_0")) != []
        assert calls != []

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


def test_twin_mce_has_two_paths(twin):
    got = mce(twin, twin.edge_path("a"), twin.edge_path("f"))
    assert [p.label() for p in got] == ["a.f", "a.g"]
    assert got == mce_brute(twin, twin.edge_path("a"), twin.edge_path("f"))


def _pair_cap(g):
    cap = Degree((2,) * g.rank)
    if g.has_finite_path_category():
        cap = cap.meet(g.max_path_degree())
    return cap


@pytest.mark.parametrize("name", ["c3", "bouquet2", "flip", "omega22", "omega222"])
def test_mce_matches_brute_force(corpus, name):
    # every pair below the gen-cap, ranges equal or not (omega222: (2, 2, 2))
    g = corpus[name]
    paths = paths_up_to_degree(g, _pair_cap(g))
    for mu in paths:
        for nu in paths:
            assert mce(g, mu, nu) == mce_brute(g, mu, nu), (mu.label(), nu.label())


def _exact(p: Path) -> tuple:
    """Everything a Path carries: Path equality reads the range and word only."""
    return p.range_vertex, p.word, p.source_vertex, type(p.degree), tuple(p.degree)


def _mce_table_by_pairs(g, cap) -> dict:
    """The sweep's referee: pairwise mce on every ordered pair of paths below
    the cap, each member's tails taken by segment."""
    paths = paths_up_to_degree(g, cap)
    return {(_exact(mu), _exact(nu)): [(_exact(lam), _exact(segment(lam, mu.degree, lam.degree)),
                                        _exact(segment(lam, nu.degree, lam.degree)))
                                       for lam in got]
            for mu in paths for nu in paths if (got := mce(g, mu, nu))}


def _exact_table(table) -> dict:
    return {(_exact(mu), _exact(nu)): [tuple(map(_exact, row)) for row in rows]
            for (mu, nu), rows in table.items()}


@pytest.mark.parametrize("name, cap", [
    ("bouquet2", (4,)), ("c3", (4,)), ("flip", (2, 2)), ("omega22", (2, 2)),
    ("omega222", (2, 2, 2)), ("nlc", (2, 2)), ("ladder3", (2, 3))],
    ids=["bouquet2", "c3", "flip", "omega22", "omega222", "nlc", "ladder3"])
def test_mce_table_matches_pairwise_mce(request, name, cap):
    # every ordered pair below the cap, ranges equal or not: the members in
    # mce's order, and the tails' words, endpoints and degrees as segment's
    g = request.getfixturevalue(name)
    table = mce_table(g, cap)
    assert table is mce_table(g, Degree(cap))
    assert _exact_table(table) == _mce_table_by_pairs(g, cap)


@settings(max_examples=30, deadline=None)
@given(cap=st.tuples(st.integers(0, 3), st.integers(0, 3)))
def test_mce_table_matches_pairwise_mce_on_flip(cap, flip):
    # flip's squares swap a and b past f, so the tails are reordered words
    assert _exact_table(mce_table(flip, cap)) == _mce_table_by_pairs(flip, cap)


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


def _closed_pairwise(g, F):
    try:
        mce_closed_pairwise(g, F)
    except NotMceClosed:
        return False
    return True


@settings(max_examples=40, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("name", ["bouquet2", "flip", "omega22", "twin"])
def test_mce_closed_matches_pairwise_referee(data, corpus, twin, name):
    # F is MCE-closed exactly when vee F adds nothing to it.  The pool spans
    # every range vertex, so F may hold cross-range pairs; half the draws are
    # vee-closed, then given at most one more path, so that both outcomes occur
    g = twin if name == "twin" else corpus[name]
    pool = paths_up_to_degree(g, _pair_cap(g))
    F = data.draw(st.lists(st.sampled_from(pool), max_size=7))
    if data.draw(st.booleans()):
        F = vee(g, F) + data.draw(st.lists(st.sampled_from(pool), max_size=1))
    assert ((vee(g, F) == sorted(set(F), key=Path.sort_key))
            == _closed_pairwise(g, F)), [p.label() for p in F]


def test_mce_closed_check_names_the_first_path_outside(omega22):
    F = [omega22.edge_path("e1_0_0"), omega22.edge_path("e2_0_0")]
    (gamma,) = mce(omega22, *F)
    assert [w for w in vee(omega22, F) if w not in F] == [gamma]
    with pytest.raises(NotMceClosed, match=f"contains {gamma.label()} outside F$"):
        mce_closed_pairwise(omega22, F)


def _counted_mce_set(monkeypatch) -> list:
    """Count every alignment.mce_set call, vee's pairwise MCEs among them."""
    calls = []
    real = alignment.mce_set
    monkeypatch.setattr(alignment, "mce_set", lambda g, F: calls.append(1) or real(g, F))
    return calls


def test_mce_closed_check_is_one_vee(omega222, monkeypatch):
    # omega222's 216 paths up to (2, 2, 2) took 46,656 pairwise MCEs
    calls = _counted_mce_set(monkeypatch)
    F = paths_up_to_degree(omega222, (2, 2, 2))
    assert vee(omega222, F) == sorted(F, key=Path.sort_key)
    assert len(F) == 216 and 0 < len(calls) <= 2_000


def test_vee_of_a_rank3_down_set_skips_its_mces(bouquet2_cubed, monkeypatch):
    # bouquet2³'s 343 paths up to (2, 2, 2): every path of degree nonzero in
    # two colors is an MCE of two earlier prefixes, already closed when its
    # turn comes.  Folding it in anyway took 109,905 mce_set calls
    calls = _counted_mce_set(monkeypatch)
    F = paths_up_to_degree(bouquet2_cubed, (2, 2, 2))
    assert vee(bouquet2_cubed, F) == sorted(F, key=Path.sort_key)
    assert len(F) == 343 and 0 < len(calls) <= 2_000


def test_vee_skips_a_path_it_holds(bouquet2_cubed, monkeypatch):
    # a1.a2 = MCE(a1, a2) is closed before its turn: one MCE, not four
    calls = _counted_mce_set(monkeypatch)
    a1, a2 = bouquet2_cubed.edge_path("a1"), bouquet2_cubed.edge_path("a2")
    (a1a2,) = mce_brute(bouquet2_cubed, a1, a2)
    assert vee(bouquet2_cubed, [a1a2, a2, a1]) == [a2, a1, a1a2]
    assert len(calls) == 1


def test_vee_matches_subset_oracle_on_rank3_sets(bouquet2_cubed):
    # 200 seeded sets below (1, 1, 2): up to 5 prefixes of one path, whose
    # MCEs are prefixes of it too, and up to 2 other paths.  In many sets a
    # member is an MCE of earlier ones, so the skip fires and is refereed
    g = bouquet2_cubed
    pool = paths_up_to_degree(g, (1, 1, 2))
    skipped = 0
    for seed in range(200):
        rng = random.Random(seed)
        lam = rng.choice(pool)
        prefixes = [segment(lam, Degree.zero(3), a) for a in degrees_up_to(lam.degree)]
        F = (rng.sample(prefixes, min(len(prefixes), rng.randint(1, 5)))
             + rng.sample(pool, rng.randint(0, 2)))
        assert vee(g, F) == vee_brute(g, F), seed
        ordered = sorted(set(F), key=Path.sort_key)
        skipped += any(rho in vee(g, ordered[:i]) for i, rho in enumerate(ordered))
    assert skipped >= 40


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
        with pytest.raises(KGraphError, match=r"^empty candidate set at 'v' is not exhaustive$"):
            is_exhaustive(bouquet2, "v", [])
        with pytest.raises(KGraphError, match=r"^empty candidate set at 'v' is not exhaustive$"):
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
        with pytest.raises(KGraphError, match=r"^examined more than 5 search nodes at cap \(3,\)$"):
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
        with pytest.raises(KGraphError, match=r"^exhaustiveness needs a locally convex graph "
                                              r"or finitely many paths$"):
            is_exhaustive(g, "u", [g.edge_path("e")])
        with pytest.raises(KGraphError, match=r"^exhaustiveness needs a locally convex graph "
                                              r"or finitely many paths$"):
            enumerate_fe(g, "u", (1, 1))


@pytest.mark.parametrize("loops,cap,count", [(2, (4,), 677), (3, (3,), 730)])
def test_fe_caps_reached_at_default_budget(loops, cap, count):
    assert len(enumerate_fe(make_bouquet(loops), "v", cap)) == count
