"""Boundary generators built from edge generators against the handle-by-handle referee.

``BoundaryFamily`` builds t_e for each edge by one extension per handle and
every longer t_lam by composing edge generators along lam's word.  The
referee is the direct construction: t_lam x_j = x_i where i is the basis
index of the windowed handle lam·x_j, one ``handle_index(extend(lam, x))``
per handle with range s(lam), undefined where lam·x_j has no basis index.
Composition could only lose vectors at the rim, where an intermediate
extension falls outside the closure; these families show none.
"""

from __future__ import annotations

import numpy as np
import pytest

from kgraphkit.boundary import extend, finite_boundary_paths, shift, thue_morse_path
from kgraphkit.core import paths_up_to_degree
from kgraphkit.repalg import boundary_family_from_graph, build_boundary_family


def boundary_generator_reference(bfam, lam):
    t = np.full(len(bfam.handles), -1, dtype=np.intp)
    for j, x in enumerate(bfam.handles):
        if x.range_vertex == lam.source_vertex:
            i = bfam.handle_index(extend(lam, x))
            if i is not None:
                t[j] = i
    return t


def tm_family(g, shifts, window, gen_cap):
    tm = thue_morse_path(g)
    return build_boundary_family(g, [shift(tm, (j,)) for j in range(shifts)],
                                 (window,), (gen_cap,))


FAMILIES = {
    # the boundary workload's two Thue-Morse families
    "tm64-w512": ("bouquet2", lambda g: tm_family(g, 64, 512, 2), (4,), 267),
    "tm32-w256": ("bouquet2", lambda g: tm_family(g, 32, 256, 1), (4,), None),
    # the finite boundary-path set at window (2, 2) and gen-cap (1, 1), and
    # at the maximal path degree for both
    "omega22-w22": ("omega22", lambda g: build_boundary_family(
        g, finite_boundary_paths(g), (2, 2), (1, 1)), (2, 2), None),
    "omega22-max": ("omega22", boundary_family_from_graph, (2, 2), None),
}


@pytest.mark.parametrize("name", list(FAMILIES))
def test_generators_match_referee(request, name):
    graph, build, degree, handles = FAMILIES[name]
    g = request.getfixturevalue(graph)
    bfam = build(g)
    if handles is not None:
        assert len(bfam.handles) == handles
    lams = paths_up_to_degree(g, degree)
    assert any(len(lam.word) > 1 for lam in lams)
    defined = 0
    for lam in lams:
        t = bfam.generator(lam)
        assert np.array_equal(t, boundary_generator_reference(bfam, lam)), lam.label()
        defined += int(np.count_nonzero(t >= 0))
    assert defined > 0
