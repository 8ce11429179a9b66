"""The Toeplitz control: a Fock family satisfies TCK but not CK.

The path-space (Fock) family is the Toeplitz representation of the paper.
For a finite exhaustive set E at v, t_v − Σ_{λ∈E} t_λ t_λ* is the projection
onto the paths with range v that extend no member of E; below the cap, that
is the vertex vector v alone.  So each CK gap product fails at the vertex
column v, unless E is {v} itself, while the Toeplitz–Cuntz–Krieger
relations, the boolean representation with its Q decomposition (lem1) and
lem3 all hold: of these checks, CK alone tells a Cuntz–Krieger family from
a Toeplitz one.
"""

from __future__ import annotations

import pytest

from kgraphkit import make_bouquet, make_omega
from kgraphkit.core import paths_up_to_degree
from kgraphkit.repalg import (
    boolean_rep,
    build_fock_family,
    lem3_check,
    q_decomposition,
    verify_ck,
    verify_tck,
)

# name -> (graph, cap, gen_cap, fe_cap)
FOCK = {
    "bouquet2": (lambda: make_bouquet(2), (4,), (2,), (1,)),
    "bouquet3": (lambda: make_bouquet(3), (3,), (1,), (2,)),
    "omega22": (lambda: make_omega(2, (2, 2)), (2, 2), (1, 1), (1, 1)),
}


@pytest.mark.parametrize("name", list(FOCK))
def test_ck_fails_at_the_vertex_columns_where_tck_lem1_and_lem3_pass(name):
    make, cap, gen_cap, fe_cap = FOCK[name]
    g = make()
    fam = build_fock_family(g, cap)
    failed = 0
    for check in verify_ck(fam, fe_cap):
        v, members = check.id.removeprefix("CK:").split(":")
        if members == "{" + v + "}":
            assert check.status == "pass", check.id
        else:
            assert (check.status, check.witness) == ("fail", v), check.id
            failed += 1
    assert failed > 0

    assert {c.status for c in verify_tck(fam, cap=gen_cap)} == {"pass"}
    # lem1: the final projections form a boolean representation and the Q
    # pieces reconstruct it, else these raise
    pieces = q_decomposition(boolean_rep(fam, cap=gen_cap), paths_up_to_degree(g, gen_cap))
    assert {c.status for c in lem3_check(fam, pieces)} == {"pass"}
