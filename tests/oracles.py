"""Brute-force referees that only the test suite calls, each checking a fast
routine by direct enumeration (vee E and finite exhaustive sets as defined by
Raeburn-Sims-Yeend, JFA 2004).  The referees the package itself needs stay in
kgraphkit.alignment (its docstring says why).

No assert statement here: pytest rewrites the asserts of test modules only,
not of the helpers they import, so an assert here would vanish under -O.
"""

from __future__ import annotations

import itertools
from typing import Iterable

import numpy as np

from kgraphkit.alignment import CapTooLargeForBudget, is_exhaustive_brute, mce_set
from kgraphkit.boundary import finite_boundary_paths
from kgraphkit.core import Degree, KGraph, Path, paths_up_to_degree
from kgraphkit.repalg import BoundaryFamily, build_boundary_family


def vee_brute(g: KGraph, F: Iterable[Path]) -> list[Path]:
    """Oracle: mce_set over every nonempty subset of F, deduplicated."""
    F = sorted(set(F), key=Path.sort_key)
    seen: set[Path] = set()
    for size in range(1, len(F) + 1):
        for G in itertools.combinations(F, size):
            seen.update(mce_set(g, list(G)))
    return sorted(seen, key=Path.sort_key)


def enumerate_fe_brute(g: KGraph, v: str, cap, budget: int = 100_000
                       ) -> list[list[Path]]:
    """Oracle: every subset of the universe by size, tested with is_exhaustive_brute."""
    cap = Degree(cap)
    if g.has_finite_path_category():
        cap = cap.meet(g.max_path_degree())
    universe = paths_up_to_degree(g, cap, range_vertex=v)
    found: list[frozenset[Path]] = []
    out: list[list[Path]] = []
    checked = 0
    for size in range(1, len(universe) + 1):
        any_live = False
        for combo in itertools.combinations(universe, size):
            cand = frozenset(combo)
            if any(prev <= cand for prev in found):
                continue
            any_live = True
            checked += 1
            if checked > budget:
                raise CapTooLargeForBudget(
                    f"examined more than {budget} candidate sets at cap {tuple(cap)}")
            if is_exhaustive_brute(g, v, list(combo)):
                found.append(cand)
                out.append(sorted(combo, key=Path.sort_key))
        if not any_live:
            break
    out.sort(key=lambda E: (len(E), [p.sort_key() for p in E]))
    return out


def boundary_family_from_graph(g: KGraph) -> BoundaryFamily:
    """Boundary family seeded with the complete finite boundary-path set,
    with window and gen_cap both the maximal path degree."""
    md = g.max_path_degree()
    return build_boundary_family(g, finite_boundary_paths(g), md, md)


def matrix_unit_span_rank(bfam: BoundaryFamily) -> int:
    """Rank of the span of all products S_lam S_mu* with matching sources."""
    g = bfam.graph
    paths = paths_up_to_degree(g, g.max_path_degree())
    vecs = []
    n = len(bfam.basis)
    for lam in paths:
        for mu in paths:
            if lam.source_vertex != mu.source_vertex:
                continue
            tl, tm = bfam.generator(lam), bfam.generator(mu)
            k = (tl >= 0) & (tm >= 0)
            if k.any():
                vec = np.zeros(n * n)
                vec[tl[k] * n + tm[k]] = 1
                vecs.append(vec)
    if not vecs:
        return 0
    return int(np.linalg.matrix_rank(np.array(vecs)))
