"""Minimal common extensions, the vee closure, and exhaustive sets.

MCEs come two ways.  mce_table is the batch route: one sweep over the paths
below a cap gives MCE(μ, ν) with the tails of every member for all pairs
below it, memoised on the graph per cap; verify_tck and boolean_rep read it.
The pairwise mce and mce_set serve single pairs and sets (the mce command,
vee, the Lemma 3 chain) and referee the sweep in the tests: they extend one
participant along degree complements and filter by the prefix condition.
vee is built from pairwise MCEs and skips a path it already holds, and
is_exhaustive and enumerate_fe share one finite test set (_test_degree).
Each has a brute-force referee, which the test suite keeps wired to it.
mce_set_brute and is_exhaustive_brute stay here while the benchmark's record
script imports them from here; the rest, mce_brute among them, live in
tests/oracles.py.  No other module of the package calls a referee.
"""

from __future__ import annotations

import itertools
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


def extends(lam: Path, mu: Path) -> bool:
    """True when lam = mu.mu' for some mu', i.e. mu is an initial segment."""
    if lam.range_vertex != mu.range_vertex or not mu.degree <= lam.degree:
        return False
    return lam.graph._split(lam.word, lam.degree, mu.degree)[0] == mu.word


def mce(g: KGraph, mu: Path, nu: Path) -> list[Path]:
    """Common extensions of degree exactly d(mu) v d(nu), sorted by word.

    One pair at a time; mce_table gives every pair below a cap in one sweep.
    """
    return mce_set(g, (mu, nu))


def mce_table(g: KGraph, cap) -> dict[tuple[Path, Path], list[tuple[Path, Path, Path]]]:
    """(μ, ν) -> [(λ, α, β) for λ in MCE(μ, ν)] for the paths μ, ν of degree
    <= cap, where λ = μα = νβ; the lists are in mce's word order, and a pair
    with no common extension has no key.

    A member λ of MCE(μ, ν) has degree d(μ) ∨ d(ν) <= cap and μ = λ(0, d(μ)),
    so λ lies in MCE(λ(0, a), λ(0, b)) for exactly the a, b <= d(λ) with
    a ∨ b = d(λ): in each color a_i = d_i or b_i = d_i.  One sweep over the
    paths below the cap splits each λ once at every a <= d(λ) and files it
    under each such pair.  Paths come in (degree, range, word) order and each
    key's members share degree and range, so each list is in word order.
    The table is built once per graph and cap and shared by its readers,
    which never change it.
    """
    cap = Degree(cap)
    table = g._mce_tables.get(cap)
    if table is None:
        table = g._mce_tables[cap] = _mce_sweep(g, cap)
    return table


def _mce_sweep(g: KGraph, cap: Degree) -> dict:
    table: dict = {}
    joins: dict = {}  # d -> the pairs (a, b) with a ∨ b = d, as plain tuples
    for lam in paths_up_to_degree(g, cap):
        d = lam.degree
        pairs = joins.get(d)
        if pairs is None:
            per_color = [[(c, x) for x in range(c + 1)] + [(x, c) for x in range(c)] for c in d]
            pairs = joins[d] = [tuple(zip(*ab)) for ab in itertools.product(*per_color)]
        cuts = {a: _cut(g, lam, a) for a in degrees_up_to(d)}
        for a, b in pairs:
            (mu, alpha), (nu, beta) = cuts[a], cuts[b]
            table.setdefault((mu, nu), []).append((lam, alpha, beta))
    return table


def _cut(g: KGraph, lam: Path, a: Degree) -> tuple[Path, Path]:
    """(λ(0, a), λ(a, d(λ))) from one split of λ's word."""
    d = lam.degree
    if not any(a):
        return g.vertex_path(lam.range_vertex), lam
    if a == d:
        return lam, g.vertex_path(lam.source_vertex)
    front, rest = g._split(lam.word, d, a)
    mid = g.edges[front[-1]].source_vertex
    return (Path(g, lam.range_vertex, mid, front, a),
            Path(g, mid, lam.source_vertex, rest, d - a))


def mce_set(g: KGraph, F: Iterable[Path]) -> list[Path]:
    """Paths of degree v_{a in F} d(a) extending every member of F.

    The first member of largest total degree is the base: it is extended
    along the smallest degree complement, and since every such composite
    extends the base, only the other members are tested.  Members with
    different ranges have no common extension, so nothing is enumerated.
    """
    F = list(F)
    if not F or any(a.range_vertex != F[0].range_vertex for a in F):
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
    instead of one MCE(G) per subset.  A rho already in vee(S) is skipped, as
    vee(S) is MCE-closed: MCE(lam1, lam2) ⊆ MCE(G1 ∪ G2) for lam_i ∈ MCE(G_i).
    So in a down-set a path of degree nonzero in two colors, an MCE of two
    earlier prefixes, costs no MCE.
    """
    closed: set[Path] = set()
    for rho in sorted(set(F), key=Path.sort_key):
        if rho in closed:
            continue
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
    exact; any other graph is refused.
    """
    if g.locally_convex:
        return D
    if g.has_finite_path_category():
        return g.max_path_degree()
    raise KGraphError(
        "exhaustiveness needs a locally convex graph or finitely many paths")


def is_exhaustive(g: KGraph, v: str, E: Sequence[Path]) -> ExhaustiveVerdict:
    """Decide whether every path from v has a common extension with some λ in E.

    Runs on the finite test set at _test_degree of the joined degree D of E;
    the brute-force oracle below stays in the test suite as a permanent
    guard on this reduction.
    """
    if v not in g.vertices:
        raise KGraphError(f"unknown vertex {v!r}")
    E = list(E)
    if not E:
        raise KGraphError(f"empty candidate set at {v!r} is not exhaustive")
    for lam in E:
        if lam.range_vertex != v:
            raise KGraphError(f"{lam.label()} does not have range {v!r}")
    C = _test_degree(g, join_degrees((lam.degree for lam in E), g.rank))
    test = _test_set(g, v, C)
    for mu in test:
        if not any(extends(mu, lam) for lam in E):
            return ExhaustiveVerdict(False, mu, len(test))
    return ExhaustiveVerdict(True, None, len(test))


def is_exhaustive_brute(g: KGraph, v: str, E: Sequence[Path]) -> ExhaustiveVerdict:
    """Oracle: test every path from v up to max_path_degree() when there are
    finitely many, else every one of degree <= D + (1,...,1).

    Exact on graphs with finitely many paths; on the others only when they
    are locally convex (the argument at _test_degree).
    """
    E = list(E)
    if not E:
        raise KGraphError(f"empty candidate set at {v!r} is not exhaustive")
    D = join_degrees((lam.degree for lam in E), g.rank)
    cap = (g.max_path_degree() if g.has_finite_path_category()
           else D + Degree((1,) * g.rank))
    count = 0
    for mu in paths_up_to_degree(g, cap, range_vertex=v):
        count += 1
        if not any(mce_set_brute(g, [mu, lam]) for lam in E):
            return ExhaustiveVerdict(False, mu, count)
    return ExhaustiveVerdict(True, None, count)


def enumerate_fe(g: KGraph, v: str, cap, budget: int = 100_000) -> list[list[Path]]:
    """All inclusion-minimal exhaustive subsets of the paths from v below cap.

    By _test_degree, a subset is exhaustive exactly when it covers the one
    test set T at _test_degree(g, cap), each test path being covered by its
    prefixes.  So the minimal FE sets are the minimal covers of T, found by
    MMCS (Murakami–Uno 2014): branch on the uncovered test path with the
    fewest candidates left, and keep every chosen member's critical test
    paths (those only it covers) nonempty.  A minimal cover is an antichain,
    since an extension of a member covers only test paths the member does.
    The budget bounds the search nodes; past it the search is refused.
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
            raise KGraphError(
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
