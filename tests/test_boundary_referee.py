"""Boundary generators, safe columns and basis against handle-by-handle referees.

``BoundaryFamily`` builds t_e for each edge by one extension per handle and
every longer t_lam by composing edge generators along lam's word.  The
referee is the direct construction: t_lam x_j = x_i where x_i is the basis
handle with the fingerprint of lam·x_j, extending each handle with range
s(lam) by lam itself, undefined where lam·x_j has no basis index.
Composition could only lose vectors at the rim, where an intermediate
extension falls outside the closure; these families show none.

Safe columns are read from the tail ids and the composed generators; their
referee fingerprints every shift σ^m(x) and extension lam·σ^m(x) of each
handle.  The basis is built with one extension pass per distinct shift; its
referee extends every shift of every seed.

``aperiodicity_window_check`` takes each shift's fingerprint once and names
the first shift with a later equal one; its referee compares every pair of
shifts of equal degree and range vertex in scan order.

``check_boundary_condition`` tests each position of a root once and reads the
witness of a shift σ^s(y), a handle in normal form with a vertex prefix,
from the positions of its root y; its referee scans every position of each
handle through the handle's own windows.  Both checks return None for a
pass and the witness for a fail.
"""

from __future__ import annotations

import gc
import re

import numpy as np
import pytest

from kgraphkit import make_omega
from kgraphkit.boundary import (
    BoundaryPathHandle,
    FinitePathHandle,
    WordStreamHandle,
    aperiodicity_window_check,
    check_boundary_condition,
    extend,
    finite_boundary_paths,
    periodic_path,
    shift,
    thue_morse_path,
)
from kgraphkit.core import Degree, KGraphError, degrees_up_to, paths_up_to_degree
from kgraphkit.repalg import build_boundary_family

from oracles import (
    aperiodicity_window_pairwise,
    boundary_family_from_graph,
    boundary_witness_per_handle,
)


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
    for m in degrees_up_to(bound.meet(x.degree)):
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
        raise KGraphError(f"no safe basis vectors at budget {tuple(budget)}")
    return safe


def basis_reference(g, seeds, window, gen_cap):
    """(fingerprints in basis order, check labels) of the closure that puts
    every handle of every kept seed's neighbourhood in first."""
    window, gen_cap = Degree(window), Degree(gen_cap)
    screen = gen_cap + gen_cap
    kept = [x for x in seeds
            if aperiodicity_window_check(x, screen.meet(x.degree), window) is None]
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
        except KGraphError as exc:
            with pytest.raises(KGraphError, match=f"^{re.escape(str(exc))}; enlarge gen_cap$"):
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


def all_shifts(x):
    bound = Degree((3,) * len(x.degree)).meet(x.degree)
    return [shift(x, m) for m in degrees_up_to(bound)]


def witnesses_matching_referee(handles, window, fe_cap):
    got = check_boundary_condition(handles, window, fe_cap)
    assert got == [boundary_witness_per_handle(x, window, fe_cap) for x in handles]
    assert all(w is None or (type(w[0]) is Degree and w[1]) for w in got)
    return got


def test_boundary_condition_of_stream_shifts_matches_referee(bouquet2):
    tm = thue_morse_path(bouquet2)
    handles = [shift(tm, (j,)) for j in range(64)]
    assert all(x.root is tm for x in handles[1:])
    assert witnesses_matching_referee(handles, (512,), (1,)) == [None] * len(handles)
    periodic = [shift(periodic_path(bouquet2, list(w)), (j,)) for w in ("a", "ab", "abb")
                for j in range(5)]
    # the seeds and their shifts in one call, one handle twice, at three caps
    mixed = periodic + handles[:8] + [tm, handles[3]]
    for fe_cap in ((0,), (1,), (2,)):
        assert witnesses_matching_referee(mixed, (32,), fe_cap) == [None] * len(mixed)


@pytest.mark.parametrize("graph", ["omega22", "line3"])
def test_boundary_condition_of_finite_shifts_matches_referee(request, graph):
    g = make_omega(1, (3,)) if graph == "line3" else request.getfixturevalue(graph)
    md = g.max_path_degree()
    seeds = [FinitePathHandle(lam) for lam in paths_up_to_degree(g, md)]
    handles = [y for x in seeds for y in all_shifts(x)]
    assert any(y not in seeds for y in handles)
    witnesses = witnesses_matching_referee(handles, md, md)
    assert {w is None for w in witnesses} == {True, False}
    # a shift reads other positions of its seed, so some shift's witness
    # differs from its seed's
    of = dict(zip(handles, witnesses))
    assert any(of[y] != of[y.root] for y in handles if y not in seeds)
    witnesses_matching_referee(handles[::-1], md, md)


@pytest.mark.parametrize("fe_cap", [(0,), (1,)])
def test_boundary_condition_of_truncated_stream_raises(bouquet2, fe_cap):
    """Eight letters: the vertex at position 8 is available, its one-letter
    windows are not, and the vertex at 9 is not.  At cap 0 only the vertex
    set is tested, so the vertex at 9 is the first window missing; at cap 1
    it is the set {a, b} one position earlier.  Both need letter 9, and
    every shift reads it from the root, so each handle raises alike."""
    letters = list("abbabaab")
    x = WordStreamHandle(bouquet2, lambda n: letters, "trunc")
    missing = r"^trunc has only 8 letters, window needs 9$"
    for y in [shift(x, (j,)) for j in range(9)]:
        with pytest.raises(KGraphError, match=missing):
            check_boundary_condition([y], (10,), fe_cap)
        with pytest.raises(KGraphError, match=missing):
            boundary_witness_per_handle(y, (10,), fe_cap)


def window_check_matching_referee(x, shift_bound, window):
    got = aperiodicity_window_check(x, shift_bound, window)
    assert got == aperiodicity_window_pairwise(x, shift_bound, window)
    return got


def test_window_check_of_streams_matches_referee(bouquet2):
    tm = thue_morse_path(bouquet2)
    passes = {window_check_matching_referee(x, (8,), (w,)) is None
              for x in (tm, shift(tm, (3,))) for w in (0, 1, 2, 3, 4, 8, 64)}
    assert passes == {True, False}
    for word in ("a", "ab", "abb", "abbab", "abba"):
        x = periodic_path(bouquet2, list(word))
        for w in (1, 2, 5, 16):
            assert window_check_matching_referee(x, (6,), (w,)) is not None


def test_window_check_names_the_first_colliding_shift(bouquet2):
    # abba at window 1 reads a, b, b, a: the pair (1, 2) is complete first in
    # n order, but the scan's first collision is (0, 3)
    x = periodic_path(bouquet2, list("abba"))
    witness = window_check_matching_referee(x, (3,), (1,))
    assert tuple(map(tuple, witness)) == ((0,), (3,))


@pytest.mark.parametrize("window", [(0, 0), (1, 1), (2, 2)])
def test_window_check_of_finite_handles_matches_referee(omega22, window):
    handles = finite_boundary_paths(omega22)
    handles += [y for x in handles for y in all_shifts(x)]
    witnesses = [window_check_matching_referee(x, (2, 2), window) for x in handles]
    assert witnesses == [None] * len(handles)
