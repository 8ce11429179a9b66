"""Minimal common extensions, the vee closure, and exhaustive sets.

The fast MCE versions extend one participant along degree complements and
filter by the prefix condition, vee is built from pairwise MCEs, and
is_exhaustive and enumerate_fe share one finite test set (_test_degree).
Each has a brute-force referee, which the test suite keeps wired to it.
mce_brute stays here because aperiodicity re-checks every separation with it
at run time; mce_set_brute and is_exhaustive_brute stay while the benchmark's
record script imports them from here; the rest live in tests/oracles.py.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .core import (
    Degree,
    KGraph,
    KGraphError,
    Path,
    compose,
    degrees_up_to,
    join_degrees,
    paths_of_degree,
    paths_up_to_degree,
)


class EmptyEError(KGraphError):
    """An empty candidate set is never exhaustive; reported explicitly."""


class CapTooLargeForBudget(KGraphError):
    pass


class NotLocallyConvex(KGraphError):
    """No finite test set decides exhaustiveness: the graph is neither
    locally convex nor finite."""


def extends(lam: Path, mu: Path) -> bool:
    """True when lam = mu.mu' for some mu', i.e. mu is an initial segment."""
    if not mu.degree <= lam.degree or lam.range_vertex != mu.range_vertex:
        return False
    return lam.graph._split(lam.word, lam.degree, mu.degree)[0] == mu.word


def mce(g: KGraph, mu: Path, nu: Path) -> list[Path]:
    """Common extensions of degree exactly d(mu) v d(nu), sorted by word."""
    return mce_set(g, (mu, nu))


def mce_brute(g: KGraph, mu: Path, nu: Path) -> list[Path]:
    """Oracle: scan every path of the joined degree for the prefix conditions."""
    target = mu.degree.join(nu.degree)
    out = [lam for lam in paths_of_degree(g, target, range_vertex=mu.range_vertex)
           if extends(lam, mu) and extends(lam, nu)]
    out.sort(key=Path.sort_key)
    return out


def mce_set(g: KGraph, F: Iterable[Path]) -> list[Path]:
    """Paths of degree v_{a in F} d(a) extending every member of F.

    The first member of largest total degree is the base: it is extended
    along the smallest degree complement, and since every such composite
    extends the base, only the other members are tested.
    """
    F = list(F)
    if not F:
        return []
    target = join_degrees((a.degree for a in F), g.rank)
    base = max(F, key=lambda a: a.degree.total())
    others = [a for a in F if a != base]
    out = []
    for ext in paths_of_degree(g, target - base.degree, range_vertex=base.source_vertex):
        lam = compose(base, ext)
        if all(extends(lam, a) for a in others):
            out.append(lam)
    out.sort(key=Path.sort_key)
    return out


def mce_set_brute(g: KGraph, F: Iterable[Path]) -> list[Path]:
    F = list(F)
    if not F:
        return []
    target = join_degrees((a.degree for a in F), g.rank)
    out = [lam for lam in paths_of_degree(g, target, range_vertex=F[0].range_vertex)
           if all(extends(lam, a) for a in F)]
    out.sort(key=Path.sort_key)
    return out


def vee(g: KGraph, F: Iterable[Path]) -> list[Path]:
    """Union of MCE(G) over all nonempty subsets G of F, deduplicated and sorted.

    Folds F in sort order one path at a time:
    vee(S ∪ {rho}) = vee(S) ∪ {rho} ∪ ⋃_{lam in vee(S)} MCE(lam, rho), which
    follows from MCE(G ∪ {rho}) = ⋃_{lam in MCE(G)} MCE(lam, rho).  That is
    one pairwise MCE per (path of F, path already closed) with a common range,
    instead of one MCE(G) per subset.
    """
    closed: set[Path] = set()
    for rho in sorted(set(F), key=Path.sort_key):
        new = {rho}
        for lam in closed:
            if lam.range_vertex == rho.range_vertex:
                new.update(mce(g, lam, rho))
        closed |= new
    return sorted(closed, key=Path.sort_key)


@dataclass(frozen=True)
class ExhaustiveVerdict:
    exhaustive: bool
    witness: Optional[Path]
    test_degree: Degree
    test_set_size: int

    def __bool__(self) -> bool:
        return self.exhaustive


def _test_set(g: KGraph, v: str, D: Degree) -> list[Path]:
    """Paths μ from v of degree <= D with no edge at s(μ) of any color i
    where d(μ)_i < D_i: those of degree D and the source-blocked ones."""
    return sorted((mu for n in degrees_up_to(D) for mu in paths_of_degree(g, n, range_vertex=v)
                   if all(n[i] == D[i] or not g.edges_at(mu.source_vertex, i + 1)
                          for i in range(g.rank))), key=Path.sort_key)


def _test_degree(g: KGraph, D: Degree) -> Degree:
    """The C with: E (degrees <= D) is exhaustive at v exactly when every
    μ ∈ T(C) = _test_set(g, v, C) has a member of E as a prefix.

    For μ ∈ T(C) and d(λ) <= C, μ meets λ only as a prefix: if γ extends
    both, each color has d(μ)_i = C_i or d(γ)_i = d(μ)_i, so d(λ) <= d(μ).
    Locally convex graph, C = D: extend a path ν meeting no member of E
    greedily in the colors where d_i < C_i, to ν̃.  By induction on local
    convexity along the rest of ν̃, μ = ν̃(0, d(ν̃) ∧ C) lies in T(C); a member
    that is a prefix of μ would be one of ν̃.  Without local convexity this
    fails: with e: u <- w of color 1, f: u <- x of color 2 and no squares,
    T(d(e)) = {e} though f meets no extension of e.  With finitely many
    paths, C = max_path_degree() makes T(C) the maximal paths, which is
    exact; any other graph raises NotLocallyConvex.
    """
    if g.locally_convex:
        return D
    if g.has_finite_path_category():
        return g.max_path_degree()
    raise NotLocallyConvex(
        "exhaustiveness needs a locally convex graph or finitely many paths")


def is_exhaustive(g: KGraph, v: str, E: Sequence[Path]) -> ExhaustiveVerdict:
    """Decide whether every path from v has a common extension with some λ in E.

    Runs on the finite test set at _test_degree of the joined degree D of E;
    the brute-force oracle below stays in the test suite as a permanent
    guard on this reduction.
    """
    E = list(E)
    if not E:
        raise EmptyEError(f"empty candidate set at {v!r} is not exhaustive")
    for lam in E:
        if lam.range_vertex != v:
            raise KGraphError(f"{lam.label()} does not have range {v!r}")
    C = _test_degree(g, join_degrees((lam.degree for lam in E), g.rank))
    test = _test_set(g, v, C)
    for mu in test:
        if not any(extends(mu, lam) for lam in E):
            return ExhaustiveVerdict(False, mu, C, len(test))
    return ExhaustiveVerdict(True, None, C, len(test))


def is_exhaustive_brute(g: KGraph, v: str, E: Sequence[Path]) -> ExhaustiveVerdict:
    """Oracle: test every path from v up to max_path_degree() when there are
    finitely many, else every one of degree <= D + (1,...,1).

    Exact on graphs with finitely many paths; on the others only when they
    are locally convex (the argument at _test_degree).
    """
    E = list(E)
    if not E:
        raise EmptyEError(f"empty candidate set at {v!r} is not exhaustive")
    D = join_degrees((lam.degree for lam in E), g.rank)
    cap = (g.max_path_degree() if g.has_finite_path_category()
           else D + Degree((1,) * g.rank))
    count = 0
    for mu in paths_up_to_degree(g, cap, range_vertex=v):
        count += 1
        if not any(mce_brute(g, mu, lam) for lam in E):
            return ExhaustiveVerdict(False, mu, D, count)
    return ExhaustiveVerdict(True, None, D, count)


def enumerate_fe(g: KGraph, v: str, cap, budget: int = 100_000) -> list[list[Path]]:
    """All inclusion-minimal exhaustive subsets of the paths from v below cap.

    By _test_degree, a subset is exhaustive exactly when it covers the one
    test set T at _test_degree(g, cap), each test path being covered by its
    prefixes.  So the minimal FE sets are the minimal covers of T, found by
    MMCS (Murakami–Uno 2014): branch on the uncovered test path with the
    fewest candidates left, and keep every chosen member's critical test
    paths (those only it covers) nonempty.  A minimal cover is an antichain,
    since an extension of a member covers only test paths the member does.
    The budget bounds the search nodes; past it CapTooLargeForBudget is raised.
    """
    cap = Degree(cap)
    if g.has_finite_path_category():
        cap = cap.meet(g.max_path_degree())
    universe = paths_up_to_degree(g, cap, range_vertex=v)
    test = _test_set(g, v, _test_degree(g, cap))
    # bit i of rows[t]: member i covers test path t; cols is the transpose
    rows = [sum(1 << i for i, lam in enumerate(universe) if extends(mu, lam)) for mu in test]
    cols = [sum(1 << t for t, row in enumerate(rows) if row >> i & 1)
            for i in range(len(universe))]
    out: list[list[Path]] = []
    nodes = 0

    def search(crit: dict[int, int], uncovered: int, cand: int) -> None:
        """crit maps each chosen member to the test paths only it covers."""
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise CapTooLargeForBudget(
                f"examined more than {budget} search nodes at cap {tuple(cap)}")
        if not uncovered:
            out.append(sorted((universe[i] for i in crit), key=Path.sort_key))
            return
        branch = min((rows[t] & cand for t in range(len(test)) if uncovered >> t & 1),
                     key=int.bit_count)
        cand &= ~branch
        for i in range(len(universe)):
            if branch >> i & 1:
                kept = {j: c & ~cols[i] for j, c in crit.items()}
                if all(kept.values()):
                    kept[i] = uncovered & cols[i]
                    search(kept, uncovered & ~cols[i], cand)
                cand |= 1 << i

    search({}, (1 << len(test)) - 1, (1 << len(universe)) - 1)
    out.sort(key=lambda E: (len(E), [p.sort_key() for p in E]))
    return out
