"""0/1 partial injections and masks against the sparse dict product as referee.

Every 0/1 check in ``repalg`` composes index arrays and ANDs masks; here each
of those operations is compared with the arithmetic of the dict-matrix
referee ``conftest.OperatorMatrix`` on the same 0/1 matrices, on random
partial injections and on every generator of small Fock and boundary families.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import OperatorMatrix, as_matrix
from kgraphkit import repalg
from kgraphkit.boundary import shift, thue_morse_path
from kgraphkit.core import Degree, paths_up_to_degree
from kgraphkit.repalg import (
    Basis,
    FockFamily,
    IsometryFamily,
    KGraphError,
    boolean_rep,
    build_boundary_family,
    build_fock_family,
    build_separating_system,
    compose_maps,
    first_difference_on,
    inverse_map,
    lem3_check,
    q_decomposition,
    range_mask,
    verify_ck,
    verify_phi2,
    verify_tck,
)
from kgraphkit.alignment import vee


@st.composite
def injections(draw, n):
    """A random partial injection on n points: a permutation with holes."""
    perm = draw(st.permutations(range(n)))
    keep = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return np.array([i if k else -1 for i, k in zip(perm, keep)], dtype=np.intp)


@st.composite
def injection_sets(draw, count):
    n = draw(st.integers(1, 8))
    return Basis([f"e{i}" for i in range(n)]), [draw(injections(n)) for _ in range(count)]


def check_against_referee(basis, a, b):
    """Composition, adjoint, range mask, AND and AND-NOT against dict products."""
    ma, mb = as_matrix(basis, a), as_matrix(basis, b)
    assert as_matrix(basis, compose_maps(a, b)) == ma @ mb
    assert as_matrix(basis, inverse_map(a)) == ma.adjoint()
    qa, qb = range_mask(a), range_mask(b)
    mqa, mqb = ma @ ma.adjoint(), mb @ mb.adjoint()
    assert as_matrix(basis, qa) == mqa
    assert as_matrix(basis, qa & qb) == mqa @ mqb
    assert as_matrix(basis, qa & ~qb) == mqa @ (mqa + mqb * -1)


class TestReferee:
    @settings(max_examples=300, deadline=None)
    @given(injection_sets(2))
    def test_operations_match_dict_products(self, data):
        basis, (a, b) = data
        check_against_referee(basis, a, b)

    @settings(max_examples=400, deadline=None)
    @given(st.integers(1, 5).flatmap(injection_sets), st.data())
    def test_first_difference_order_and_values(self, data, draw):
        """One term against a sum of them, on drawn columns: the rest of the
        drawn terms, or the one term cut into pieces, so that both agreement
        and each kind of difference are drawn."""
        basis, (lhs, *rhs) = data
        n = len(basis)
        cols = np.array(sorted(draw.draw(st.sets(st.integers(0, n - 1)))), dtype=np.intp)
        if draw.draw(st.booleans()):  # lhs cut into pieces, each column to one piece or none
            where = draw.draw(st.lists(st.integers(-1, 2), min_size=n, max_size=n))
            rhs = [np.where(np.array(where) == k, lhs, -1) for k in range(3)]
        if draw.draw(st.booleans()):  # sums of diagonal 0/1 projections
            lhs, rhs = range_mask(lhs), [range_mask(t) for t in rhs]

        def restricted_sum(side):
            total = OperatorMatrix.sum(basis, [as_matrix(basis, t) for t in side])
            return OperatorMatrix(basis, {k: v for k, v in total.entries.items()
                                          if k[1] in set(cols.tolist())})

        assert (first_difference_on(basis, lhs, rhs, cols)
                == restricted_sum([lhs]).first_difference(restricted_sum(rhs)))

    def test_overlap_reports_value_two(self):
        basis = Basis(["e0", "e1"])
        t = np.array([1, -1], dtype=np.intp)
        assert first_difference_on(basis, t, [t, t], np.arange(2)) == ("e1", "e0", 1, 2)


def boundary_tm_family(bouquet2):
    tm = thue_morse_path(bouquet2)
    seeds = [shift(tm, (j,)) for j in range(16)]
    return build_boundary_family(bouquet2, seeds, (128,), (2,))


@pytest.mark.parametrize("name, cap", [("bouquet2", (3,)), ("flip", (2, 1)),
                                       ("omega22", (2, 2)), ("boundary_tm", (2,))])
def test_every_generator_matches_referee(corpus, name, cap):
    if name == "boundary_tm":
        g = corpus["bouquet2"]
        fam = boundary_tm_family(g)
    else:
        g = corpus[name]
        fam = build_fock_family(g, cap)
    gens = [fam.generator(lam) for lam in paths_up_to_degree(g, cap)]
    for t in gens:
        m = as_matrix(fam.basis, t)
        assert (m @ m.adjoint() @ m) == m  # a partial isometry
    for a, b in itertools.product(gens, repeat=2):
        check_against_referee(fam.basis, a, b)


def test_generator_rejects_repeated_image(bouquet2):
    """A family whose hook sends two basis vectors to one is refused at build
    time, for every family, before the inverse map could drop one of them."""
    class Folded(FockFamily):
        def _edge_generator(self, e):
            dom, img = super()._edge_generator(e)
            return dom, [img[0]] * len(img)

    folded = Folded(bouquet2, Degree((2,)))
    with pytest.raises(KGraphError, match=r"t_a is not injective"):
        folded.generator(bouquet2.edge_path("a"))


class _NoProduct(Exception):
    pass


def test_zero_one_checks_use_no_sparse_products(bouquet2, monkeypatch):
    """tck, ck, lem1, lem3 and phi2 run with evaluation into linear
    combinations and the numeric norm disabled."""
    def refuse(*args, **kwargs):
        raise _NoProduct

    monkeypatch.setattr(IsometryFamily, "evaluate", refuse)
    monkeypatch.setattr(repalg, "operator_norm", refuse)
    fam = build_fock_family(bouquet2, (6,))
    F_small = paths_up_to_degree(bouquet2, (1,))
    F_closed = vee(bouquet2, F_small)
    assert all(c.ok for c in verify_tck(fam, cap=(2,)))
    assert [c.id for c in verify_ck(fam, (1,)) if not c.ok] == ["CK:v:{a,b}"]
    Q = q_decomposition(boolean_rep(fam, cap=(1,)), F_closed)
    assert all(c.ok for c in lem3_check(fam, Q))
    phi = build_separating_system(fam, F_closed)
    assert all(verify_phi2(fam, phi, mu, nu, lam).ok
               for lam in phi for mu in phi for nu in phi)
