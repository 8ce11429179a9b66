"""Fock generators built from edge generators against the path-by-path referee.

``FockFamily`` builds t_e for each edge by a label lookup and every longer
t_lam by composing edge generators along lam's word.  The referee is the
direct construction: t_lam e_beta = e_{lam·beta}, one ``compose`` and one
``Path``-keyed lookup per domain vector, defined exactly when s(lam) = r(beta)
and d(lam·beta) <= cap.
"""

from __future__ import annotations

import numpy as np
import pytest

from kgraphkit.core import compose, paths_up_to_degree
from kgraphkit.repalg import CapTooSmall, build_fock_family


def fock_generator_reference(fam, paths, index, lam):
    t = np.full(len(paths), -1, dtype=np.intp)
    for j, beta in enumerate(paths):
        if beta.range_vertex == lam.source_vertex and lam.degree + beta.degree <= fam.cap:
            t[j] = index[compose(lam, beta)]
    return t


@pytest.mark.parametrize("name, cap, gen_cap", [
    ("bouquet2", (9,), (3,)),
    ("bouquet2", (13,), (2,)),
    ("flip", (2, 2), (2, 2)),  # f·a and f·b need square swaps
    ("c3", (7,), (4,)),
    ("omega22", (2, 2), (2, 2)),
    ("omega222", (2, 2, 2), (2, 2, 2)),
], ids=["bouquet2-cap9", "bouquet2-cap13", "flip", "c3", "omega22", "omega222"])
def test_generators_match_referee(corpus, name, cap, gen_cap):
    g = corpus[name]
    fam = build_fock_family(g, cap)
    paths = paths_up_to_degree(g, cap)
    assert [p.label() for p in paths] == list(fam.basis.labels)
    index = {p: i for i, p in enumerate(paths)}
    lams = paths_up_to_degree(g, gen_cap)
    assert any(len(lam.word) > 1 for lam in lams)
    for lam in lams:
        t = fam.generator(lam)
        assert np.array_equal(t, fock_generator_reference(fam, paths, index, lam)), lam.label()


def test_composed_generator_above_cap_raises(bouquet2):
    """A word longer than the cap is refused, not composed into the zero map."""
    fam = build_fock_family(bouquet2, (2,))
    assert np.count_nonzero(fam.generator(bouquet2.path(["a", "a"])) >= 0) == 1
    with pytest.raises(CapTooSmall, match=r"^generator degree \(3,\) exceeds basis cap \(2,\)$"):
        fam.generator(bouquet2.path(["a", "a", "a"]))
