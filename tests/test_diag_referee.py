"""The diagonal-formula suite against its per-handle reference loop.

`verify_diagonal_formula` reads per-family handle facts: check labels,
prefixes x(0, d) built once per degree, and interned fingerprints of the
shifted handles σ^d(x).  The reference below is the loop those facts
replace: for every (μ, ν) it asks each handle for its prefix windows, builds
fresh shift handles and compares their fingerprints.  Both must report the
same check ids, statuses and witnesses for every pair with matching sources.
"""

from __future__ import annotations

import gc

from kgraphkit import Degree, paths_up_to_degree
from kgraphkit.boundary import BoundaryPathHandle, ext_le, shift, thue_morse_path
from kgraphkit.repalg import (
    build_boundary_family,
    compose_maps,
    inverse_map,
    verify_diagonal_formula,
)

from oracles import boundary_family_from_graph


def diag_reference(bfam, mu, nu) -> list[tuple]:
    """(check id, status, witness) of each handle, computed pair by pair."""
    title = f"diag[{mu.label()},{nu.label()}]"
    width = bfam.window
    zero = Degree.zero(bfam.graph.rank)
    matrix = compose_maps(bfam.generator(mu), inverse_map(bfam.generator(nu)))
    safe = set(bfam.safe_columns(mu.degree.join(nu.degree)).tolist())
    out = []
    for j, x in enumerate(bfam.handles):
        label = f"{bfam.basis.labels[j]}({x.describe()})"
        mu_prefix = ext_le(mu.degree, x.degree) and x.window(zero, mu.degree) == mu
        nu_prefix = ext_le(nu.degree, x.degree) and x.window(zero, nu.degree) == nu
        if not (mu_prefix and nu_prefix):
            expected = 0
        else:
            ya, yb = shift(x, mu.degree), shift(x, nu.degree)
            if ya.degree != yb.degree or ya.range_vertex != yb.range_vertex:
                expected = 0
            elif ya.fingerprint(width) != yb.fingerprint(width):
                expected = 0
            elif mu == nu:
                expected = 1
            else:
                out.append((f"{title}@{label}", "inconclusive", label))
                continue
        got = int(matrix[j] == j)
        if j in safe and got != expected:
            out.append((f"{title}@{label}", "fail",
                        f"{label}: matrix {got} vs window {expected}"))
            continue
        out.append((f"{title}@{label}", "pass", None))
    return out


def assert_matches_reference(bfam, F) -> dict:
    """Compare every pair with matching sources; return the status counts."""
    counts: dict = {}
    for mu in F:
        for nu in F:
            if mu.source_vertex != nu.source_vertex:
                continue
            got = [(c.id, c.status, c.witness)
                   for c in verify_diagonal_formula(bfam, mu, nu).checks]
            assert got == diag_reference(bfam, mu, nu), (mu.label(), nu.label())
            for _, status, _ in got:
                counts[status] = counts.get(status, 0) + 1
    return counts


def tm_family(g, shifts, window, gen_cap):
    tm = thue_morse_path(g)
    return build_boundary_family(g, [shift(tm, (j,)) for j in range(shifts)],
                                 (window,), (gen_cap,))


def test_benchmark_shape_thue_morse(bouquet2):
    # 64 Thue-Morse shifts at window 512 and gen-cap 2: 267 handles, 49 pairs
    bfam = tm_family(bouquet2, 64, 512, 2)
    assert len(bfam.handles) == 267
    counts = assert_matches_reference(bfam, paths_up_to_degree(bouquet2, (2,)))
    assert counts == {"pass": 49 * 267}


def test_omega22_finite_boundary_family(omega22):
    bfam = boundary_family_from_graph(omega22)
    counts = assert_matches_reference(bfam, paths_up_to_degree(omega22, (2, 2)))
    assert set(counts) == {"pass"}


def test_tampered_generator_fail_witnesses(bouquet2):
    bfam = tm_family(bouquet2, 16, 128, 2)
    a, b = bouquet2.edge_path("a"), bouquet2.edge_path("b")
    bfam._gens[b] = bfam.generator(a)  # t_b := t_a, so t_a t_b* has a diagonal
    counts = assert_matches_reference(bfam, paths_up_to_degree(bouquet2, (2,)))
    assert counts["fail"] > 0 and counts["pass"] > 0


def test_diag_keeps_no_derived_handles(bouquet2):
    bfam = tm_family(bouquet2, 8, 64, 1)
    gc.collect()
    before = [o for o in gc.get_objects() if isinstance(o, BoundaryPathHandle)]
    F = paths_up_to_degree(bouquet2, (1,))
    for mu in F:
        for nu in F:
            verify_diagonal_formula(bfam, mu, nu)
    gc.collect()
    known = {id(o) for o in before}
    after = [o for o in gc.get_objects()
             if isinstance(o, BoundaryPathHandle) and id(o) not in known]
    assert after == []
    assert all(type(t) is int for t in bfam._tails.values())
