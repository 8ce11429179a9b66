"""Minimal common extensions, the vee closure, and exhaustive sets.

Every operation here has a brute-force counterpart enumerating candidate
paths or subsets directly; the fast MCE versions extend one participant
along degree complements and filter by the prefix condition, and vee and
enumerate_fe are built from pairwise MCEs.  The test suite keeps the oracles
wired to the fast paths permanently.
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
    segment,
)


class EmptyEError(KGraphError):
    """An empty candidate set is never exhaustive; reported explicitly."""


class CapTooLargeForBudget(KGraphError):
    pass


def extends(lam: Path, mu: Path) -> bool:
    """True when lam = mu.mu' for some mu', i.e. mu is an initial segment."""
    if not mu.degree <= lam.degree:
        return False
    if lam.range_vertex != mu.range_vertex:
        return False
    return segment(lam, Degree.zero(lam.graph.rank), mu.degree) == mu


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


def vee_brute(g: KGraph, F: Iterable[Path]) -> list[Path]:
    """Oracle: mce_set over every nonempty subset of F, deduplicated."""
    F = sorted(set(F), key=Path.sort_key)
    seen: set[Path] = set()
    for size in range(1, len(F) + 1):
        for G in itertools.combinations(F, size):
            seen.update(mce_set(g, list(G)))
    return sorted(seen, key=Path.sort_key)


@dataclass(frozen=True)
class ExhaustiveVerdict:
    exhaustive: bool
    witness: Optional[Path]
    test_degree: Degree
    test_set_size: int

    def __bool__(self) -> bool:
        return self.exhaustive


def _test_set(g: KGraph, v: str, D: Degree) -> list[Path]:
    """Paths from v of degree D plus source-blocked maximal ones below D.

    A path below D is kept only when every deficient color has no edge at
    its source, so no extension could raise it toward D.
    """
    out = []
    for n in degrees_up_to(D):
        for mu in paths_of_degree(g, n, range_vertex=v):
            if tuple(n) == tuple(D):
                out.append(mu)
                continue
            blocked = all(
                g.edges_at(mu.source_vertex, i + 1) == []
                for i in range(g.rank) if n[i] < D[i])
            if blocked:
                out.append(mu)
    out.sort(key=Path.sort_key)
    return out


def is_exhaustive(g: KGraph, v: str, E: Sequence[Path]) -> ExhaustiveVerdict:
    """Decide whether every path from v has a common extension with some λ in E.

    Runs on the finite test set of degree-D and source-blocked paths, where
    D joins the degrees in E; the brute-force oracle below stays in the test
    suite as a permanent guard on this reduction.
    """
    E = list(E)
    if not E:
        raise EmptyEError(f"empty candidate set at {v!r} is not exhaustive")
    for lam in E:
        if lam.range_vertex != v:
            raise KGraphError(f"{lam.label()} does not have range {v!r}")
    D = join_degrees((lam.degree for lam in E), g.rank)
    test = _test_set(g, v, D)
    for mu in test:
        if not any(mce(g, mu, lam) for lam in E):
            return ExhaustiveVerdict(False, mu, D, len(test))
    return ExhaustiveVerdict(True, None, D, len(test))


def is_exhaustive_brute(g: KGraph, v: str, E: Sequence[Path], slack: int = 1
                        ) -> ExhaustiveVerdict:
    """Oracle: test every path from v of degree <= D + slack·(1,...,1)."""
    E = list(E)
    if not E:
        raise EmptyEError(f"empty candidate set at {v!r} is not exhaustive")
    D = join_degrees((lam.degree for lam in E), g.rank)
    cap = D + Degree((slack,) * g.rank)
    if g.has_finite_path_category():
        cap = cap.meet(g.max_path_degree().join(D))
    count = 0
    for mu in paths_up_to_degree(g, cap, range_vertex=v):
        count += 1
        if not any(mce_brute(g, mu, lam) for lam in E):
            return ExhaustiveVerdict(False, mu, D, count)
    return ExhaustiveVerdict(True, None, D, count)


def enumerate_fe(g: KGraph, v: str, cap, budget: int = 100_000) -> list[list[Path]]:
    """All inclusion-minimal exhaustive subsets of the paths from v below cap.

    Minimality is by inclusion only, an artifact convenience.  Candidates are
    scanned by size, and only antichains are grown: a minimal exhaustive set
    never holds both mu and a proper extension mu·alpha, since every path
    meeting mu·alpha meets mu, so the extension could be dropped.  A candidate
    of size s + 1 is a live candidate of size s plus one later universe member
    that extends none of its members (the universe is ordered by total
    degree, so a later member is never a proper prefix of an earlier one).
    Supersets of found sets are pruned, and the scan stops at the first size
    with no live candidate.

    Exhaustiveness is the is_exhaustive predicate on the test set of the
    joined degree D: each member contributes a bitmask of the test paths it
    has a common extension with, and a candidate is exhaustive when the OR of
    its members' masks covers the whole test set.  Test sets, masks and prefix
    tests are built on first use and live only for this call.

    The budget bounds the candidates examined, i.e. the antichains holding no
    found set; exceeding it fails loudly with CapTooLargeForBudget instead of
    hanging.
    """
    cap = Degree(cap)
    if g.has_finite_path_category():
        cap = cap.meet(g.max_path_degree())
    universe = paths_up_to_degree(g, cap, range_vertex=v)
    tests: dict[Degree, list[Path]] = {}
    rows: dict[tuple[Degree, int], int] = {}
    prefix_of: dict[tuple[int, int], bool] = {}

    def test_set(D: Degree) -> list[Path]:
        if D not in tests:
            tests[D] = _test_set(g, v, D)
        return tests[D]

    def row(D: Degree, i: int) -> int:
        """Bit t is set when test path t has a common extension with member i."""
        key = (D, i)
        if key not in rows:
            lam = universe[i]
            rows[key] = sum(1 << t for t, mu in enumerate(test_set(D)) if mce(g, mu, lam))
        return rows[key]

    def member_extends(j: int, i: int) -> bool:
        if (i, j) not in prefix_of:
            prefix_of[(i, j)] = extends(universe[j], universe[i])
        return prefix_of[(i, j)]

    found_by_last: list[list[int]] = [[] for _ in universe]  # masks by highest member
    out: list[list[Path]] = []
    checked = 0
    # live candidates that are not exhaustive: (member indices, joined degree)
    level: list[tuple[tuple[int, ...], Degree]] = [((), Degree.zero(g.rank))]
    while level:
        grown = []
        for members, D in level:
            mask = sum(1 << i for i in members)
            for j in range(members[-1] + 1 if members else 0, len(universe)):
                if any(member_extends(j, i) for i in members):
                    continue
                cand_mask = mask | (1 << j)
                # the live prefix holds no found set, so one inside must end at j
                if any(f & cand_mask == f for f in found_by_last[j]):
                    continue
                checked += 1
                if checked > budget:
                    raise CapTooLargeForBudget(
                        f"examined more than {budget} candidate sets at cap {tuple(cap)}")
                cand = members + (j,)
                joined = D.join(universe[j].degree)
                cover = 0
                for i in cand:
                    cover |= row(joined, i)
                if cover == (1 << len(test_set(joined))) - 1:
                    found_by_last[j].append(cand_mask)
                    out.append(sorted((universe[i] for i in cand), key=Path.sort_key))
                else:
                    grown.append((cand, joined))
        level = grown
    out.sort(key=lambda E: (len(E), [p.sort_key() for p in E]))
    return out


def enumerate_fe_brute(g: KGraph, v: str, cap, budget: int = 100_000
                       ) -> list[list[Path]]:
    """Oracle: every subset of the universe by size, tested with is_exhaustive."""
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
            if is_exhaustive(g, v, list(combo)):
                found.append(cand)
                out.append(sorted(combo, key=Path.sort_key))
        if not any_live:
            break
    out.sort(key=lambda E: (len(E), [p.sort_key() for p in E]))
    return out
