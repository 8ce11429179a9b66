"""Brute-force referees that only the test suite calls, each checking a fast
routine by direct enumeration: MCE of two paths, vee E, MCE closure of a
path set tested pair by pair, the boolean product rule and the orthogonality
of masks tested on every pair, the extensions of each member of a pool by a
scan of the whole pool, the completion closure of the Lemma 3 chain over
every ordered pair, the TCK relations from whole-basis compositions, the
CK gap products and the Q reconstruction one set or member at a time, each
identity compared on a Fock family's complete set found by label, the
spectral norm of an evaluated element from its dense matrix, the norm of a
diagonal combination from its Q-piece sectors, and finite exhaustive sets
as defined by
Raeburn-Sims-Yeend, JFA 2004, the boundary condition of Sims, Indiana Univ.
Math. J. 2006, tested position by position on each handle, windowed
aperiodicity by comparing every pair of shifts, windowed identity by a
fingerprint read through the handle's own windows, and shifts and extensions of
boundary handles by the nested rule, where a result may wrap another derived
handle.  mce_set_brute and is_exhaustive_brute stay in kgraphkit.alignment,
since the benchmark's record script imports them from there.

No assert statement here: pytest rewrites the asserts of test modules only,
not of the helpers they import, so an assert here would vanish under -O.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from typing import Iterable

import numpy as np

from kgraphkit.alignment import (
    enumerate_fe,
    extends,
    is_exhaustive_brute,
    mce,
    mce_set,
    mce_table,
    vee,
)
from kgraphkit.boundary import (
    INF,
    BoundaryPathHandle,
    finite_boundary_paths,
    shift,
)
from kgraphkit.core import (
    Degree,
    KGraph,
    KGraphError,
    Path,
    compose,
    degrees_up_to,
    paths_of_degree,
    paths_up_to_degree,
    segment,
)
from kgraphkit.repalg import (
    BoundaryFamily,
    FockFamily,
    SparseSum,
    build_boundary_family,
    compose_maps,
    inverse_map,
    q_decomposition,
)


class NotMceClosed(KGraphError):
    """Raised by mce_closed_pairwise on a set missing an MCE of two members."""


def mce_brute(g: KGraph, mu: Path, nu: Path) -> list[Path]:
    """Oracle: scan every path of the joined degree for the prefix conditions."""
    target = mu.degree.join(nu.degree)
    out = [lam for lam in paths_of_degree(g, target, range_vertex=mu.range_vertex)
           if extends(lam, mu) and extends(lam, nu)]
    out.sort(key=Path.sort_key)
    return out


def vee_brute(g: KGraph, F: Iterable[Path]) -> list[Path]:
    """Oracle: mce_set over every nonempty subset of F, deduplicated."""
    F = sorted(set(F), key=Path.sort_key)
    seen: set[Path] = set()
    for size in range(1, len(F) + 1):
        for G in itertools.combinations(F, size):
            seen.update(mce_set(g, list(G)))
    return sorted(seen, key=Path.sort_key)


def mce_closed_pairwise(g: KGraph, F: Iterable[Path]) -> list[Path]:
    """Oracle: F sorted and deduplicated, once every MCE of two members lies
    in it; else NotMceClosed."""
    F = sorted(set(F), key=Path.sort_key)
    members = set(F)
    for mu in F:
        for nu in F:
            for gamma in mce(g, mu, nu):
                if gamma not in members:
                    raise NotMceClosed(
                        f"MCE({mu.label()},{nu.label()}) contains {gamma.label()} outside F")
    return F


def closure_all_pairs(g: KGraph, F: Iterable[Path]) -> list[Path]:
    """Oracle: repalg._closure by every ordered pair (μ, ν) of F, each
    completion λβ′ and λδ′ composed from λ ∈ MCE(μ, ν) and the tails of
    ξ ∈ MCE(β, δ), where λ = μβ = νδ and ξ = ββ′ = δδ′."""
    F = list(F)
    out: set[Path] = set(F)
    for mu in F:
        for nu in F:
            for lam in mce(g, mu, nu):
                beta = segment(lam, mu.degree, lam.degree)
                delta = segment(lam, nu.degree, lam.degree)
                for xi in mce(g, beta, delta):
                    out.add(compose(lam, segment(xi, beta.degree, xi.degree)))
                    out.add(compose(lam, segment(xi, delta.degree, xi.degree)))
    return vee(g, out)


def compared_on(fam):
    """Oracle: (budget, reach) -> the columns an identity is compared on,
    reach the most its adjoints strip beyond what the generators before them
    added.  On a FockFamily that is the identity's complete set, the paths of
    degree <= reach, each found here by its label; on any other family, the
    safe columns at the budget."""
    if not isinstance(fam, FockFamily):
        return lambda budget, reach: fam.safe_columns(budget)
    at = {label: i for i, label in enumerate(fam.basis.labels)}
    return lambda budget, reach: np.array(
        sorted(at[p.label()] for p in paths_up_to_degree(fam.graph, reach)), dtype=np.intp)


def boolean_rep_all_pairs(fam, cap):
    """Oracle: the first pair (μ, ν), μ before ν in sort order, of all paths
    below the cap, whatever their ranges, where q_μ q_ν differs from the sum
    of q_γ over MCE(μ, ν) on the columns of d(μ) ∨ d(ν) (compared_on); or
    None.  Each side is read as a column count of masks."""
    g = fam.graph
    paths = paths_up_to_degree(g, cap)
    columns = compared_on(fam)
    for mu in paths:
        for nu in paths:
            if mu.sort_key() > nu.sort_key():
                continue
            join = mu.degree.join(nu.degree)
            cols = columns(join, join)
            total = np.zeros(len(cols), dtype=int)
            for gamma in mce(g, mu, nu):
                total += fam.q(gamma)[cols]
            if not np.array_equal(total, (fam.q(mu) & fam.q(nu))[cols]):
                return mu, nu
    return None


def first_difference_whole(basis, lhs, rhs, cols):
    """Oracle: repalg.first_difference_on on whole maps or masks, each read on
    cols here.  They agree where the top row rhs hits (-1 for none) is lhs's
    row and, with two or more terms, no column is hit twice; a difference
    is the first (row, col), in (row, col) order, with both values."""
    def as_map(term):
        return np.where(term, np.arange(len(term)), -1) if term.dtype == bool else term

    want = as_map(lhs)[cols]
    hits = [as_map(t)[cols] for t in rhs]
    if np.all(functools.reduce(np.maximum, hits, -1) == want) and (
            len(hits) < 2 or np.all(sum(h >= 0 for h in hits) <= 1)):
        return None
    a, b = (Counter((r, c) for t in side for r, c in zip(t.tolist(), cols.tolist()) if r >= 0)
            for side in ([want], hits))
    i, j = min(k for k in a.keys() | b.keys() if a[k] != b[k])
    return (basis.labels[i], basis.labels[j], a[(i, j)], b[(i, j)])


def tck_whole_maps(fam, cap) -> list[tuple]:
    """Oracle: repalg.verify_tck as (id, status, witness) triples, each
    product composed over the whole basis and then compared on the check's
    columns (compared_on: reach 0 for TCK2, d(μ) ∨ d(ν) - d(ν) for TCK3) by
    first_difference_whole; each adjoint is the inverse map of the family's
    generator, taken here."""
    g = fam.graph
    cap = Degree(cap)
    columns = compared_on(fam)
    vertex = Degree.zero(g.rank)  # TCK2's reach
    t = fam.generator
    t_star = functools.cache(lambda p: inverse_map(t(p)))
    out = []

    def compare(cid, lhs, rhs, cols):
        diff = first_difference_whole(fam.basis, lhs, rhs, cols)
        out.append((cid, "pass", None) if diff is None else (cid, "fail", str(diff)))

    verts = [g.vertex_path(v) for v in g.vertices]
    for v in verts:
        tv = t(v)
        ok = np.array_equal(tv, t_star(v)) and np.array_equal(compose_maps(tv, tv), tv)
        out.append((f"TCK1:{v.label()} projection", "pass" if ok else "fail", None))
    for v, w in itertools.combinations(verts, 2):
        zero = not np.any(compose_maps(t(v), t(w)) >= 0)
        out.append((f"TCK1:{v.label()}·{w.label()} orthogonal", "pass" if zero else "fail", None))
    paths = paths_up_to_degree(g, cap)
    for lam in paths:
        for mu in paths:
            if mu.range_vertex == lam.source_vertex and lam.degree + mu.degree <= cap:
                compare(f"TCK2:{lam.label()}·{mu.label()}", compose_maps(t(lam), t(mu)),
                        [t(compose(lam, mu))], columns(lam.degree + mu.degree, vertex))
    table = mce_table(g, cap)
    for mu in paths:
        for nu in paths:
            if nu.range_vertex == mu.range_vertex:
                compare(f"TCK3:{mu.label()}*{nu.label()}", compose_maps(t_star(mu), t(nu)),
                        [compose_maps(t(alpha), t_star(beta))
                         for _, alpha, beta in table.get((mu, nu), ())],
                        columns(mu.degree.join(nu.degree),
                                mu.degree.join(nu.degree) - nu.degree))
    return out


def ck_per_set(fam, cap) -> list[tuple]:
    """Oracle: repalg.verify_ck as (id, status, witness) triples, one FE set
    at a time: the whole-basis mask of t_v AND-NOT each q_lam, read on the
    columns of the set's degree (compared_on), names its first column."""
    g = fam.graph
    columns = compared_on(fam)
    out = []
    for v in g.vertices:
        tv = fam.generator(g.vertex_path(v))
        for E in enumerate_fe(g, v, Degree(cap)):
            gap = tv >= 0
            for lam in E:
                gap = gap & ~fam.q(lam)
            join = functools.reduce(Degree.join, (lam.degree for lam in E))
            cols = columns(join, join)
            hit = cols[gap[cols]]
            out.append((f"CK:{v}:" + "{" + ",".join(lam.label() for lam in E) + "}",
                        "fail" if len(hit) else "pass",
                        fam.basis.labels[hit[0]] if len(hit) else None))
    return out


def q_reconstruction_per_member(fam, pool) -> object:
    """Oracle: the first member mu of a pool, in order, where q_mu is not the
    sum of the Q pieces of the members extending mu, on the columns of the
    pool's degree (compared_on); None when every q_mu is.  The pieces are
    built here from q and a scan of the whole pool."""
    ext = extensions_by_scan(pool)
    pieces = {lam: functools.reduce(lambda m, w: m & ~fam.q(w), ext[lam], fam.q(lam))
              for lam in pool}
    join = functools.reduce(Degree.join, (lam.degree for lam in pool))
    cols = compared_on(fam)(join, join)
    for mu in pool:
        total = sum(pieces[w][cols].astype(int) for w in [mu, *ext[mu]])
        if not np.array_equal(total, fam.q(mu)[cols]):
            return mu
    return None


def overlapping_pairs(masks: dict, cols) -> list:
    """Oracle: every pair (a, b) of keys, a before b, whose masks share one
    of the columns."""
    return [(a, b) for a, b in itertools.combinations(masks, 2)
            if np.any((masks[a] & masks[b])[cols])]


def extensions_by_scan(pool) -> dict:
    """Oracle: repalg._extensions by scanning the whole pool for each λ, every
    range included: λ -> the members w != λ that extend λ, in pool order."""
    return {lam: [w for w in pool if w != lam and extends(w, lam)] for lam in pool}


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
                raise KGraphError(
                    f"examined more than {budget} candidate sets at cap {tuple(cap)}")
            if is_exhaustive_brute(g, v, list(combo)):
                found.append(cand)
                out.append(sorted(combo, key=Path.sort_key))
        if not any_live:
            break
    out.sort(key=lambda E: (len(E), [p.sort_key() for p in E]))
    return out


def boundary_witness_per_handle(x: BoundaryPathHandle, window, fe_cap):
    """Oracle: check_boundary_condition of the one handle x, scanning every
    position of x through x's own windows, with no outcome shared: None, or
    the first failing position with the labels of its first unmet set."""
    fe_cap = Degree(fe_cap)
    width = Degree(window)
    for n in degrees_up_to(width.meet(x.degree)):
        for E in enumerate_fe(x.graph, x.vertex_at(n), fe_cap):
            hit = False
            for e in E:
                target = n + e.degree
                if target <= x.degree and x.window(n, target) == e:
                    hit = True
                    break
            if not hit:
                return n, [e.label() for e in E]
    return None


def window_fingerprint(x: BoundaryPathHandle, width) -> tuple:
    """Oracle: the fingerprint of x at the width as x's own windows give it,
    with no identity key: its extended degree, range vertex and the word of
    x(0, m), m the width in infinite coordinates and the degree in finite ones."""
    m = Degree(w if d == INF else d for w, d in zip(Degree(width), x.degree))
    return x.degree, x.range_vertex, x.window(Degree.zero(len(m)), m).word


def aperiodicity_window_pairwise(x: BoundaryPathHandle, shift_bound, window):
    """Oracle: aperiodicity_window_check by the pairwise scan.  Each pair of
    shifts m before n with equal extended degree and range vertex is compared
    on its fingerprints; the first equal pair (m, n) is the collision, None
    when there is none."""
    width = Degree(window)
    shifts = [n for n in degrees_up_to(Degree(shift_bound)) if n <= x.degree]
    handles = {n: shift(x, n) for n in shifts}
    for i, m in enumerate(shifts):
        for n in shifts[i + 1:]:
            a, b = handles[m], handles[n]
            if a.degree != b.degree or a.range_vertex != b.range_vertex:
                continue
            if window_fingerprint(a, width) == window_fingerprint(b, width):
                return m, n
    return None


class NestedShift(BoundaryPathHandle):
    """Referee for σ^k(inner): reads inner(k + n, k + m)."""

    def __init__(self, inner: BoundaryPathHandle, by: Degree):
        degree = tuple(c if c == INF else c - b for c, b in zip(inner.degree, by))
        super().__init__(inner.graph, degree, inner.vertex_at(by), f"{inner.name}>>{tuple(by)}")
        self.inner = inner
        self.by = by

    def _window(self, n: Degree, m: Degree) -> Path:
        return self.inner.window(self.by + n, self.by + m)


class NestedExtension(BoundaryPathHandle):
    """Referee for λ·inner: cuts compose(λ, inner(0, (m ∨ d) - d)) to (n, m),
    with d = d(λ)."""

    def __init__(self, prefix: Path, inner: BoundaryPathHandle):
        degree = tuple(c + d for c, d in zip(inner.degree, prefix.degree))
        super().__init__(prefix.graph, degree, prefix.range_vertex,
                         f"{prefix.label()}*{inner.name}")
        self.prefix = prefix
        self.inner = inner

    def _window(self, n: Degree, m: Degree) -> Path:
        d = self.prefix.degree
        reach = m.join(d)
        return segment(compose(self.prefix, self.inner.window(Degree.zero(len(d)), reach - d)),
                       n, m)


def nested_shift(x: BoundaryPathHandle, n) -> BoundaryPathHandle:
    """Oracle: σ^n(x) by the nested rule.  A shift of a shift adds up, and a
    shift of an extension λ·y splits when n and d(λ) are comparable;
    otherwise the result wraps x."""
    n = Degree(n)
    if not any(n):
        return x
    if isinstance(x, NestedShift):
        return NestedShift(x.inner, x.by + n)
    if isinstance(x, NestedExtension):
        if n <= x.prefix.degree:
            rest = segment(x.prefix, n, x.prefix.degree)
            return nested_extend(rest, x.inner) if rest.word else x.inner
        if x.prefix.degree <= n:
            return nested_shift(x.inner, n - x.prefix.degree)
    return NestedShift(x, n)


def nested_extend(lam: Path, x: BoundaryPathHandle) -> BoundaryPathHandle:
    """Oracle: λx by the nested rule; an extension of an extension composes
    the prefixes."""
    if lam.is_vertex():
        return x
    if isinstance(x, NestedExtension):
        return NestedExtension(compose(lam, x.prefix), x.inner)
    return NestedExtension(lam, x)


def dense_norm(m: SparseSum) -> float:
    """‖M‖ as the largest singular value of the dense matrix of m."""
    n = len(m.basis)
    dense = np.zeros((n, n), dtype=complex)
    dense[m.rows, m.cols] = m.vals
    return float(np.linalg.norm(dense, 2))


def diagonal_norm_by_sectors(fam, coeffs: dict) -> float:
    """Oracle: ‖sum c_lam q_lam‖ from the Q pieces over the pool of the
    support.  The combination is constant on each nonzero piece Q_alpha,
    where it is the sector total of the c_lam with alpha extending lam, so
    the norm is the largest total in absolute value.  Each total is summed
    in the order of coeffs."""
    support = {lam: c for lam, c in coeffs.items() if c != 0}
    Q = q_decomposition(fam, sorted(support, key=Path.sort_key))
    return float(max((abs(sum(c for lam, c in support.items() if extends(alpha, lam)))
                      for alpha, piece in Q.items() if piece.any()), default=0.0))


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
