"""Hypothesis controls: a family on periodic boundary paths breaks the
expectation.

The paper's representation lives on the aperiodic boundary paths, where
Lewin–Sims separation holds: for μ ≠ ν some path x has μx ≠ νx.  On bouquet2
the periodic path x = a^∞ has a·x = x = v·x, so t_a t_v* and t_v t_v* agree at
x, and the element a = t_v t_v* − t_a t_v* evaluates to 0 there though its
diagonal part t_v t_v* does not.  build_boundary_family's screen refuses
such seeds (test_repalg pins that refusal), so the families here are built
with BoundaryFamily directly.
"""

from __future__ import annotations

import pytest

from kgraphkit.boundary import extend, periodic_path
from kgraphkit.repalg import (
    BoundaryFamily,
    FormalElement,
    verify_claim1,
    verify_exp_square,
    verify_tck,
)


@pytest.fixture(scope="module")
def control(bouquet2):
    """(F, table) for F = [v, a] and a = t_v t_v* − t_a t_v*."""
    v, a = bouquet2.vertex_path("v"), bouquet2.edge_path("a")
    return [v, a], {(v, v): 1, (a, v): -1}


@pytest.fixture(scope="module")
def a_inf(bouquet2):
    """The family on the one periodic path a^∞, built without the screen."""
    return BoundaryFamily(bouquet2, [periodic_path(bouquet2, ["a"])], (8,))


def test_periodic_path_is_fixed_by_a_non_vertex(bouquet2, a_inf):
    # a·a^∞ = a^∞: t_a fixes the only basis vector, as t_v does
    assert a_inf.generator(bouquet2.edge_path("a")).tolist() == [0]
    assert a_inf.generator(bouquet2.vertex_path("v")).tolist() == [0]


def test_claim1_fails_on_a_periodic_path(bouquet2, a_inf, control):
    # M = evaluate(a) vanishes on [a^∞], while E(a) = t_v t_v* is 1 there
    F, table = control
    assert len(a_inf.evaluate(FormalElement(bouquet2, table)).vals) == 0
    check, = verify_claim1(a_inf, F, [table])
    assert check.status == "fail"
    assert check.witness == "lhs=1.0 upper=0.0"
    assert check.detail["method"] == "zero"


def test_exp_fails_on_a_periodic_path(bouquet2, a_inf, control):
    # left route: the formal diagonal t_v t_v* is 1 at x000; right route:
    # the evaluated element's diagonal is 0 there
    _, table = control
    check = verify_exp_square(a_inf, FormalElement(bouquet2, table))
    assert check.status == "fail"
    assert check.witness == "('x000', 'x000', (1+0j), 0j)"


def test_tck_holds_where_exp_fails(bouquet2, control):
    # on [a^∞, b·a^∞] the Toeplitz–Cuntz–Krieger relations hold, so the
    # failure of exp is due to the periodic path alone
    _, table = control
    ainf = periodic_path(bouquet2, ["a"])
    fam = BoundaryFamily(bouquet2, [ainf, extend(bouquet2.edge_path("b"), ainf)], (8,))
    checks = verify_tck(fam, cap=(1,))
    assert [c.status for c in checks] == ["pass"] * 15
    check = verify_exp_square(fam, FormalElement(bouquet2, table))
    assert check.status == "fail"
    assert check.witness == "('x000', 'x000', (1+0j), 0j)"
