"""Separating-extension search and the pairs it reports on the corpus."""

from __future__ import annotations

import pytest

from kgraphkit import KGraphError, aperiodicity, compose, core, paths_up_to_degree
from kgraphkit.aperiodicity import (
    aperiodicity_report,
    find_separating_extension,
    separate_family,
)

from oracles import mce_brute


class TestFindSeparatingExtension:
    def test_already_disjoint(self, bouquet2):
        tau = find_separating_extension(
            bouquet2, bouquet2.edge_path("a"), bouquet2.edge_path("b"), (2,))
        assert tau == bouquet2.vertex_path("v")

    def test_prefix_pair_needs_depth_one(self, bouquet2):
        aa = bouquet2.path(["a", "a"])
        a = bouquet2.edge_path("a")
        tau = find_separating_extension(bouquet2, aa, a, (2,))
        assert tau == bouquet2.edge_path("b")
        assert mce_brute(bouquet2, compose(aa, tau), compose(a, tau)) == []

    def test_cycle_pair_never_separates(self, c3):
        cyc = c3.path(["e0", "e1", "e2"])
        v0 = c3.vertex_path("v0")
        assert find_separating_extension(c3, cyc, v0, (6,)) is None

    def test_source_mismatch(self, c3):
        with pytest.raises(KGraphError, match=r"^family members must share a source vertex$"):
            find_separating_extension(c3, c3.edge_path("e0"), c3.edge_path("e1"), (2,))

    def test_search_stops_at_first_hit(self, bouquet2, monkeypatch):
        # a and b are separated by the vertex itself, so only degree 0 is enumerated
        calls = []
        real = core.paths_of_degree

        def counted(*args, **kwargs):
            calls.append(args[1])
            return real(*args, **kwargs)

        monkeypatch.setattr(core, "paths_of_degree", counted)
        monkeypatch.setattr(aperiodicity, "paths_of_degree", counted, raising=False)
        tau = find_separating_extension(
            bouquet2, bouquet2.edge_path("a"), bouquet2.edge_path("b"), (12,))
        assert tau == bouquet2.vertex_path("v")
        assert len(calls) == 1

    def test_equal_pair_enumerates_nothing(self, bouquet2, monkeypatch):
        # MCE(μτ, μτ) = {μτ} for every τ, so no candidate is examined
        calls = []
        monkeypatch.setattr(aperiodicity, "paths_of_degree",
                            lambda *args, **kwargs: calls.append(args) or [])
        a = bouquet2.edge_path("a")
        assert find_separating_extension(bouquet2, a, a, (6,)) is None
        assert calls == []

    def test_monotone_in_depth(self, bouquet2):
        aa = bouquet2.path(["a", "a"])
        a = bouquet2.edge_path("a")
        t1 = find_separating_extension(bouquet2, aa, a, (1,))
        t2 = find_separating_extension(bouquet2, aa, a, (3,))
        assert t1 == t2 is not None


class TestSeparateFamily:
    def test_singleton(self, bouquet2):
        H = [bouquet2.edge_path("a")]
        assert separate_family(bouquet2, H, (2,)) == bouquet2.vertex_path("v")

    def test_chain_family(self, bouquet2):
        H = [bouquet2.vertex_path("v"), bouquet2.edge_path("a"), bouquet2.path(["a", "a"])]
        tau = separate_family(bouquet2, H, (2,))
        assert tau is not None and tau.degree.total() <= 2
        for i in range(len(H)):
            for j in range(i + 1, len(H)):
                assert mce_brute(bouquet2, compose(H[i], tau), compose(H[j], tau)) == []

    def test_cycle_family_not_found(self, c3):
        H = [c3.vertex_path("v0"), c3.path(["e0", "e1", "e2"])]
        assert separate_family(c3, H, (6,)) is None

    def test_mixed_sources_rejected(self, c3):
        with pytest.raises(KGraphError, match=r"^family members must share a source vertex$"):
            separate_family(c3, [c3.edge_path("e0"), c3.edge_path("e1")], (2,))


def unseparated(pairs):
    return [(mu, nu) for mu, nu, tau in pairs if tau is None]


class TestReport:
    def test_omega_certified(self, omega22):
        P, D, pairs = aperiodicity_report(omega22, (1, 1), (1, 1))
        assert P == D == omega22.max_path_degree()
        assert pairs and unseparated(pairs) == []

    def test_cycle_periodic(self, c3):
        _, _, pairs = aperiodicity_report(c3, (3,), (6,))
        assert unseparated(pairs)[0] == (c3.path(["e0", "e1", "e2"]), c3.vertex_path("v0"))

    def test_flip_periodic_ff(self, flip):
        _, _, pairs = aperiodicity_report(flip, (0, 2), (2, 2))
        assert unseparated(pairs)[0] == (flip.path(["f", "f"]), flip.vertex_path("v"))

    def test_bouquet_evidence(self, bouquet2):
        P, D, pairs = aperiodicity_report(bouquet2, (2,), (3,))
        assert (P, D) == ((2,), (3,))
        assert len(pairs) == 21 and unseparated(pairs) == []

    def test_report_reproducible(self, c3):
        assert aperiodicity_report(c3, (3,), (6,)) == aperiodicity_report(c3, (3,), (6,))


REFEREE_BOUNDS = {
    "c3": ((3,), (3,)),
    "bouquet2": ((3,), (3,)),
    "flip": ((1, 2), (2, 2)),
    "twin": ((1, 1), (2, 2)),
    "omega22": ((1, 1), (1, 1)),
    "omega222": ((1, 1, 1), (1, 1, 1)),
    "nlc": ((1, 1), (1, 1)),
    "ladder2": ((1, 1), (1, 1)),
    "ladder3": ((1, 1), (1, 1)),
}


def referee_disagreements(g, pair_bound, tau_bound) -> list:
    """The triples of aperiodicity_report that mce_brute contradicts: a τ that
    is past the τ bound or leaves MCE(μτ, ντ) nonempty, and for a pair reported
    unseparated, each τ′ up to the τ bound with MCE(μτ′, ντ′) empty."""
    _, D, pairs = aperiodicity_report(g, pair_bound, tau_bound)
    out = []
    for mu, nu, tau in pairs:
        if tau is not None:
            if not tau.degree <= D or mce_brute(g, compose(mu, tau), compose(nu, tau)):
                out.append((mu.label(), nu.label(), tau.label()))
        else:
            out += [(mu.label(), nu.label(), t.label())
                    for t in paths_up_to_degree(g, D, range_vertex=mu.source_vertex)
                    if not mce_brute(g, compose(mu, t), compose(nu, t))]
    return out


class TestReferee:
    """mce_brute referees each τ the search finds and each pair it leaves."""

    @pytest.mark.parametrize("name", sorted(REFEREE_BOUNDS))
    def test_search_agrees_with_brute_force(self, request, name):
        g = request.getfixturevalue(name)
        assert referee_disagreements(g, *REFEREE_BOUNDS[name]) == []

    @pytest.mark.parametrize("name", ["c3", "flip", "twin"])
    def test_absence_direction_runs(self, request, name):
        _, _, pairs = aperiodicity_report(request.getfixturevalue(name), *REFEREE_BOUNDS[name])
        assert unseparated(pairs)

    @pytest.mark.parametrize("fake", [lambda g, mu, nu: [], lambda g, mu, nu: [mu]],
                             ids=["never-meets", "always-meets"])
    def test_wrong_mce_is_caught(self, bouquet2, monkeypatch, fake):
        monkeypatch.setattr(aperiodicity, "mce", fake)
        assert referee_disagreements(bouquet2, *REFEREE_BOUNDS["bouquet2"])
