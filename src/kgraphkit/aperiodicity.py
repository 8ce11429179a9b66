"""Bounded search for separating extensions over source-sharing pairs.

A pair of distinct paths with a common source is separated by an extension
τ when μτ and ντ admit no common extension.  Both existence and absence of
such a τ are semi-decidable in general, so the search returns what it found
below its bounds; only on graphs with finitely many paths do the bounds cover
the whole category.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

from .core import (
    Degree,
    KGraph,
    KGraphError,
    Path,
    compose,
    degrees_up_to,
    paths_of_degree,
    paths_up_to_degree,
)
from .alignment import mce


def _tau_candidates(g: KGraph, v: str, depth: Degree) -> Iterator[Path]:
    """Extensions at v ordered breadth-first in degree, lexicographic within;
    each degree is enumerated only when the search reaches it."""
    if g.has_finite_path_category():
        depth = depth.join(g.max_path_degree())
    for n in degrees_up_to(depth):
        yield from paths_of_degree(g, n, range_vertex=v)


def find_separating_extension(g: KGraph, mu: Path, nu: Path, depth
                              ) -> Optional[Path]:
    """Shortest τ from s(μ) with MCE(μτ, ντ) empty, or None below the depth."""
    return None if mu == nu else separate_family(g, [mu, nu], depth)


def separate_family(g: KGraph, H: Sequence[Path], depth) -> Optional[Path]:
    """One τ separating every distinct pair of H simultaneously, or None."""
    H = list(H)
    if not H:
        return None
    v = H[0].source_vertex
    if any(p.source_vertex != v for p in H):
        raise KGraphError("family members must share a source vertex")
    pairs = [(H[i], H[j]) for i in range(len(H)) for j in range(i + 1, len(H))
             if H[i] != H[j]]
    if not pairs:
        return g.vertex_path(v)
    depth = Degree(depth)
    for tau in _tau_candidates(g, v, depth):
        if all(not mce(g, compose(mu, tau), compose(nu, tau)) for mu, nu in pairs):
            return tau
    return None


def aperiodicity_report(g: KGraph, pair_bound, tau_bound
                        ) -> tuple[Degree, Degree, list[tuple[Path, Path, Optional[Path]]]]:
    """Try to separate every source-sharing pair below the pair bound.

    Returns the two bounds as searched and one (μ, ν, τ or None) per pair,
    grouped by source vertex, with ν before μ in path order.  On graphs with
    finitely many paths both bounds are raised to cover the whole category,
    the only situation where the universal quantifier is exhausted.
    """
    pair_bound = Degree(pair_bound)
    tau_bound = Degree(tau_bound)
    if g.has_finite_path_category():
        pair_bound = pair_bound.join(g.max_path_degree())
        tau_bound = tau_bound.join(g.max_path_degree())

    # pools by source vertex, each in path order
    pools: dict[str, list[Path]] = {v: [] for v in g.vertices}
    for p in paths_up_to_degree(g, pair_bound):
        pools[p.source_vertex].append(p)

    pairs = [(pool[a], pool[b], find_separating_extension(g, pool[a], pool[b], tau_bound))
             for pool in pools.values() for a in range(len(pool)) for b in range(a)]
    return pair_bound, tau_bound, pairs
