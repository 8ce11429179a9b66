"""Boundary generators, safe columns and basis against handle-by-handle referees.

``BoundaryFamily`` builds t_e for each edge by one extension per handle and
every longer t_lam by composing edge generators along lam's word.  The
referee is the direct construction: t_lam x_j = x_i where i is the basis
index of the windowed handle lam·x_j, one ``handle_index(extend(lam, x))``
per handle with range s(lam), undefined where lam·x_j has no basis index.
Composition could only lose vectors at the rim, where an intermediate
extension falls outside the closure; these families show none.

Safe columns are read from the tail ids and the composed generators; their
referee fingerprints every shift σ^m(x) and extension lam·σ^m(x) of each
handle.  The basis is built with one extension pass per distinct shift; its
referee extends every shift of every seed.
"""

from __future__ import annotations

import gc

import numpy as np
import pytest

from kgraphkit.boundary import (
    BoundaryPathHandle,
    aperiodicity_window_check,
    ext_degree,
    ext_meet,
    extend,
    finite_boundary_paths,
    shift,
    thue_morse_path,
)
from kgraphkit.core import Degree, degrees_up_to, paths_up_to_degree
from kgraphkit.repalg import CapTooSmall, build_boundary_family

from oracles import boundary_family_from_graph


def boundary_generator_reference(bfam, lam):
    t = np.full(len(bfam.handles), -1, dtype=np.intp)
    for j, x in enumerate(bfam.handles):
        if x.range_vertex == lam.source_vertex:
            i = bfam.handle_index(extend(lam, x))
            if i is not None:
                t[j] = i
    return t


def neighbourhood(x, bound, exts):
    """Each shift σ^m(x) with m <= bound, followed by its extensions λσ^m(x)
    by the non-vertex paths λ of exts, in that order."""
    for m in degrees_up_to(ext_meet(x.degree, ext_degree(bound))):
        base = shift(x, m)
        yield base
        for lam in exts:
            if not lam.is_vertex() and lam.source_vertex == base.range_vertex:
                yield extend(lam, base)


def safe_columns_reference(bfam, budget):
    """x is safe when every handle of its neighbourhood has a basis index."""
    exts = paths_up_to_degree(bfam.graph, budget)
    safe = [j for j, x in enumerate(bfam.handles)
            if all(bfam.handle_index(y) is not None for y in neighbourhood(x, budget, exts))]
    if not safe:
        raise CapTooSmall(f"no safe basis vectors at budget {tuple(budget)}")
    return safe


def basis_reference(g, seeds, window, gen_cap):
    """(fingerprints in basis order, check labels) of the closure that puts
    every handle of every kept seed's neighbourhood in first."""
    window, gen_cap = Degree(window), Degree(gen_cap)
    screen = ext_degree(gen_cap + gen_cap)
    kept = [x for x in seeds
            if aperiodicity_window_check(x, ext_meet(x.degree, screen), window)]
    exts = paths_up_to_degree(g, gen_cap)
    first = {}
    for x in kept:
        for y in neighbourhood(x, gen_cap, exts):
            first.setdefault(y.fingerprint(window), y)
    ordered = sorted(first)
    return ordered, [f"x{i:03d}({first[fp].describe()})" for i, fp in enumerate(ordered)]


def tm_seeds(g, shifts):
    tm = thue_morse_path(g)
    return [shift(tm, (j,)) for j in range(shifts)]


def finite_spec(window, gen_cap):
    return lambda g: (finite_boundary_paths(g), window or g.max_path_degree(),
                      gen_cap or g.max_path_degree())


def tm_spec(shifts, window, gen_cap, order=1):
    return lambda g: (tm_seeds(g, shifts)[::order], (window,), (gen_cap,))


# name -> (graph, seeds/window/gen_cap, largest lam or budget, basis size)
FAMILIES = {
    # the boundary workload's two Thue-Morse families
    "tm64-w512": ("bouquet2", tm_spec(64, 512, 2), (4,), 267),
    "tm32-w256": ("bouquet2", tm_spec(32, 256, 1), (4,), None),
    # the finite boundary-path set at window (2, 2) and gen-cap (1, 1), and
    # at the maximal path degree for both (boundary_family_from_graph)
    "omega22-w22": ("omega22", finite_spec((2, 2), (1, 1)), (2, 2), None),
    "omega22-max": ("omega22", finite_spec(None, None), (2, 2), None),
    # gen-caps above the workload's
    "tm32-w256-gc3": ("bouquet2", tm_spec(32, 256, 3), (4,), None),
    "tm16-w32-gc4": ("bouquet2", tm_spec(16, 32, 4), (4,), None),
    # seeds in reverse order: each shift σ^j first appears as the extension
    # b·σ^(j+1) or a·σ^(j+1) of a later seed, before it is a base itself
    "tm32-w256-reversed": ("bouquet2", tm_spec(32, 256, 2, order=-1), (4,), None),
}


def build(request, name):
    graph, spec, degree, handles = FAMILIES[name]
    g = request.getfixturevalue(graph)
    seeds, window, gen_cap = spec(g)
    bfam = build_boundary_family(g, seeds, window, gen_cap)
    if handles is not None:
        assert len(bfam.handles) == handles
    return g, (seeds, window, gen_cap), degree, bfam


@pytest.mark.parametrize("name", list(FAMILIES))
def test_generators_match_referee(request, name):
    g, _, degree, bfam = build(request, name)
    lams = paths_up_to_degree(g, degree)
    assert any(len(lam.word) > 1 for lam in lams)
    defined = 0
    for lam in lams:
        t = bfam.generator(lam)
        assert np.array_equal(t, boundary_generator_reference(bfam, lam)), lam.label()
        defined += int(np.count_nonzero(t >= 0))
    assert defined > 0


@pytest.mark.parametrize("name", list(FAMILIES))
def test_safe_columns_match_referee(request, name):
    g, _, degree, bfam = build(request, name)
    checked = 0
    for budget in degrees_up_to(degree):
        try:
            expected = safe_columns_reference(bfam, budget)
        except CapTooSmall:
            with pytest.raises(CapTooSmall):
                bfam.safe_columns(budget)
            continue
        assert bfam.safe_columns(budget).tolist() == expected, tuple(budget)
        checked += 1
    assert checked > 1


@pytest.mark.parametrize("name", list(FAMILIES))
def test_basis_matches_referee(request, name):
    g, spec, _, bfam = build(request, name)
    fingerprints, labels = basis_reference(g, *spec)
    assert [x.fingerprint(bfam.window) for x in bfam.handles] == fingerprints
    assert bfam.check_labels == labels


def test_family_from_graph_is_the_maximal_degree_build(omega22):
    assert (boundary_family_from_graph(omega22).check_labels
            == build_boundary_family(omega22, *finite_spec(None, None)(omega22)).check_labels)


def test_tail_ids_name_basis_indices(bouquet2):
    bfam = build_boundary_family(bouquet2, *tm_spec(64, 512, 2)(bouquet2))
    n = len(bfam.handles)
    gc.collect()
    before = {id(o) for o in gc.get_objects() if isinstance(o, BoundaryPathHandle)}
    ids = {(j, m): bfam.tail_id(j, Degree((m,))) for j in range(n) for m in range(5)}
    gc.collect()
    assert [o for o in gc.get_objects()
            if isinstance(o, BoundaryPathHandle) and id(o) not in before] == []
    assert all(type(t) is int for t in bfam._tails.values())

    fps = {(j, m): shift(bfam.handles[j], (m,)).fingerprint(bfam.window)
           for j in range(n) for m in range(5)}
    outside = 0
    for key, i in ids.items():
        index = bfam.handle_index(shift(bfam.handles[key[0]], (key[1],)))
        assert (i if i < n else None) == index
        outside += i >= n
    assert 0 < outside < len(ids)
    # equal ids exactly when equal fingerprints
    assert len(set(ids.values())) == len(set(fps.values()))
    assert len(set(zip(ids.values(), fps.values()))) == len(set(fps.values()))
