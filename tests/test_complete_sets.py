"""The lifting lemma behind deciding a Fock identity on its complete set.

Right concatenation R_γ e_β = e_{βγ} commutes with every t_λ on ℓ²(Λ).  So
an identity whose adjoints strip at most D beyond what the generators before
them added holds at a column x exactly when it holds at the prefix
x(0, d(x) ∧ D), and repalg decides it on the paths of degree <= D only.

The referee builds wrong identities from the family's own generator arrays,
composed over the whole basis: TCK3 and the product rule each with the last
member of its MCE dropped, and the CK gaps of seeded random non-exhaustive
sets.  At every column safe at the identity's budget, each has the outcome
it has at the column's prefix, and each fails somewhere, so the comparison
is not vacuous.  Right equivariance of the edge generators, t_e[βγ] = t_e[β]·γ
wherever both sides are inside the cap, is checked for γ each edge, which
gives it for every γ by induction on γ's edges.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from kgraphkit.alignment import is_exhaustive, mce_table
from kgraphkit.core import Degree, compose, join_degrees, paths_up_to_degree, segment
from kgraphkit.repalg import build_fock_family, compose_maps, inverse_map

# (graph fixture, basis cap, degree bound of the identities' paths)
CASES = {
    "bouquet2": ((6,), (2,)),
    "omega22": ((3, 3), (1, 1)),
    "flip": ((4, 4), (2, 2)),
    "bouquet2_cubed": ((3, 3, 3), (1, 1, 1)),
}


class Referee:
    """A Fock family with its basis as paths, the degree of each basis
    vector, and each vector's prefix x(0, d(x) ∧ D), built once per D."""

    def __init__(self, g, cap):
        self.g = g
        self.fam = build_fock_family(g, cap)
        self.cap = Degree(cap)
        self.paths = paths_up_to_degree(g, cap)
        assert [p.label() for p in self.paths] == list(self.fam.basis.labels)
        self.index = {p: i for i, p in enumerate(self.paths)}
        self.degrees = np.array([tuple(p.degree) for p in self.paths], dtype=np.intp)
        self._prefix: dict = {}
        self.adjoint = {}

    def t_star(self, lam):
        if lam not in self.adjoint:
            self.adjoint[lam] = inverse_map(self.fam.generator(lam))
        return self.adjoint[lam]

    def safe(self, budget):
        """The columns safe at the budget: degree <= cap - budget."""
        return np.flatnonzero(np.all(self.degrees <= np.array(self.cap - budget), axis=1))

    def prefix(self, reach):
        got = self._prefix.get(reach)
        if got is None:
            zero = Degree.zero(self.g.rank)
            got = self._prefix[reach] = np.array(
                [self.index[segment(x, zero, x.degree.meet(reach))] for x in self.paths])
        return got

    def lifts(self, holds, reach, budget):
        """(columns where holds differs from holds at the prefix, failing
        columns), both over the columns safe at the budget."""
        cols = self.safe(budget)
        return (np.count_nonzero(holds[cols] != holds[self.prefix(reach)[cols]]),
                np.count_nonzero(~holds[cols]))


def maps_agree(lhs, rhs):
    """Per column: a map and a sum of maps agree, each hit by one defined
    term on lhs's row, or by none where lhs is undefined."""
    if not rhs:
        return lhs < 0
    hits = np.stack(rhs)
    return (hits.max(axis=0) == lhs) & ((hits >= 0).sum(axis=0) == (lhs >= 0))


@pytest.fixture(scope="module", params=list(CASES))
def referee(request):
    cap, bound = CASES[request.param]
    return Referee(request.getfixturevalue(request.param), cap), Degree(bound)


def test_tck3_without_its_last_mce_member_lifts(referee):
    ref, bound = referee
    t = ref.fam.generator
    mismatched = failed = 0
    for (mu, nu), members in mce_table(ref.g, bound).items():
        if not members:
            continue
        rhs = [compose_maps(t(alpha), ref.t_star(beta)) for _, alpha, beta in members[:-1]]
        holds = maps_agree(compose_maps(ref.t_star(mu), t(nu)), rhs)
        budget = mu.degree.join(nu.degree)
        m, f = ref.lifts(holds, budget - nu.degree, budget)
        mismatched, failed = mismatched + m, failed + f
    assert mismatched == 0 and failed > 0


def test_product_rule_without_its_last_mce_member_lifts(referee):
    ref, bound = referee
    mismatched = failed = 0
    for (mu, nu), members in mce_table(ref.g, bound).items():
        if not members:
            continue
        q = [ref.t_star(lam) >= 0 for lam in (mu, nu)]
        total = sum((ref.t_star(lam) >= 0).astype(int) for lam, _, _ in members[:-1])
        holds = (q[0] & q[1]).astype(int) == total
        budget = mu.degree.join(nu.degree)
        m, f = ref.lifts(holds, budget, budget)
        mismatched, failed = mismatched + m, failed + f
    assert mismatched == 0 and failed > 0


def test_ck_gap_of_random_non_exhaustive_sets_lifts(referee):
    ref, bound = referee
    rng = random.Random(20110)
    drawn = []
    for v in ref.g.vertices:
        candidates = [p for p in paths_up_to_degree(ref.g, bound, range_vertex=v) if p.word]
        drawn += [(v, rng.sample(candidates, rng.randint(1, min(3, len(candidates)))))
                  for _ in range(8 if candidates else 0)]
    # omega22 has no non-exhaustive set (two paths from a vertex always have a
    # common extension), so there the sets are kept as drawn: each CK gap is
    # still a wrong identity on the Toeplitz family, nonzero at the vertex
    wrong = [(v, E) for v, E in drawn
             if is_exhaustive(ref.g, v, E).witness is not None] or drawn
    mismatched = failed = 0
    for v, E in wrong:
        gap = ref.fam.generator(ref.g.vertex_path(v)) >= 0
        for lam in E:
            gap = gap & (ref.t_star(lam) < 0)
        budget = join_degrees((lam.degree for lam in E), ref.g.rank)
        m, f = ref.lifts(~gap, budget, budget)
        mismatched, failed = mismatched + m, failed + f
    assert mismatched == 0 and failed > 0


def test_edge_generators_are_right_equivariant(referee):
    ref, _ = referee
    edges = [ref.g.edge_path(e) for e in ref.g.edges]
    checked = 0
    for gamma in edges:
        # R_γ on the basis: β -> βγ, -1 where βγ is no path or leaves the cap
        right = np.array([ref.index.get(compose(beta, gamma), -1)
                          if beta.source_vertex == gamma.range_vertex
                          and beta.degree + gamma.degree <= ref.cap else -1
                          for beta in ref.paths], dtype=np.intp)
        for e in edges:
            t = ref.fam.generator(e)
            inside = np.all(ref.degrees + np.array(e.degree) + np.array(gamma.degree)
                            <= np.array(ref.cap), axis=1)
            lhs, rhs = compose_maps(t, right)[inside], compose_maps(right, t)[inside]
            assert np.array_equal(lhs, rhs), (e.label(), gamma.label())
            checked += np.count_nonzero(lhs >= 0)
    assert checked
