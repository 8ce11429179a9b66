"""Finite-dimensional partial-isometry families and their identity checks.

Two concrete families are built per graph: the path-space (Fock) family of
left-concatenation operators on a degree-truncated path basis, and the
boundary family acting on a basis of boundary-path handles.  All 0/1
identities are asserted in exact integer arithmetic on safe basis vectors,
where no truncation artifact can reach; norms are numeric and carry a
proven bracket, so a norm comparison can come out inconclusive but not wrong.

Each generator t_lam is a 0/1 partial injection, held as an int array with
t[j] = i when t e_j = e_i and -1 where t is undefined; each q_lam, Q piece,
phi_lam, CK gap product and lem3 test is a diagonal 0/1 matrix, held as a
boolean mask.  Products of generators compose arrays, adjoints invert them,
q_lam is the range mask, products of projections are AND and q_lam - q_w is
AND-NOT.  Sums of injections are compared entry by entry, overlaps counted.
A linear combination sum a t_mu t_nu* is evaluated by IsometryFamily.evaluate
into a SparseSum, its merged (rows, cols, vals) entry arrays, which the norm,
the exp-square and the co-universality check read.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .core import (
    Degree,
    KGraph,
    KGraphError,
    Path,
    compose,
    degrees_up_to,
    join_degrees,
    paths_up_to_degree,
    segment,
)
from .alignment import enumerate_fe, extends, is_exhaustive, mce, vee
from .aperiodicity import separate_family
from .boundary import (
    BoundaryPathHandle,
    aperiodicity_window_check,
    ext_degree,
    ext_le,
    ext_meet,
    ext_sub,
    extend,
    shift,
)


class CapTooSmall(KGraphError):
    pass


class EmptySeedSet(KGraphError):
    pass


class WindowCollision(KGraphError):
    pass


class BooleanRelationFailure(KGraphError):
    pass


class SourceClosureViolation(KGraphError):
    pass


class NotMceClosed(KGraphError):
    pass


class SeparationSearchExhausted(KGraphError):
    """Raised when no separating data was found within the depth budget.

    The graph may still be aperiodic; callers must surface this as an
    inconclusive outcome, never skip it.
    """

    def __init__(self, depth, detail: str):
        self.depth = depth
        super().__init__(f"{detail} (depth {tuple(depth)})")


class NonConvergence(KGraphError):
    pass


# -- sparse matrices over a named basis --------------------------------------


class Basis:
    def __init__(self, labels: Sequence[str]):
        self.labels = tuple(labels)
        if len(set(self.labels)) != len(self.labels):
            raise KGraphError("basis labels must be unique")

    def __len__(self) -> int:
        return len(self.labels)


class SparseSum(NamedTuple):
    """An evaluated element on a named basis: entry vals[k] at (rows[k],
    cols[k]), each (row, col) once and no val zero."""

    basis: Basis
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray


MAX_LANCZOS_STEPS = 1_000  # each residual test is a dense eigh of T_k, O(k³)
CLAIM1_TOL = 1e-8  # absolute tolerance of verify_claim1's comparison
COUNIVERSAL_TOL = 0.05  # absolute tolerance of couniversal_norm_check's comparison


def operator_norm(m: SparseSum) -> dict:
    """Largest singular value: an estimate "value" and a bracket "lower" <=
    ‖M‖ <= "upper", with the "method", Lanczos "steps" and the rounding
    "allowance" taken off the lower end.

    method "zero": M has no entries.  method "lanczos", at every other size:
    Lanczos on M*M from a fixed start vector; lower is the Rayleigh quotient
    ‖My‖/‖y‖ of the Ritz vector y minus the allowance, upper the
    Collatz–Wielandt bound on |M|ᵀ|M|, and both are proven bounds.

    M and M* are applied as bincount matvecs on the entry arrays.  Pass 1
    keeps only the tridiagonal coefficients and stops when the top Ritz
    value's residual β_k·|s_k| is below 1e-10 of it, which also covers an
    invariant subspace (β_k = 0); MAX_LANCZOS_STEPS steps without that raise
    NonConvergence.
    Pass 2 repeats the recurrence with the stored coefficients, so it
    rebuilds the same Lanczos vectors, and sums the Ritz vector y.  No basis
    is stored and none is reorthogonalised: the bounds hold for any y.
    """
    def bracket(value, lower, upper, method, steps, allowance) -> dict:
        return {"value": value, "method": method, "steps": steps, "lower": lower,
                "upper": upper, "allowance": allowance}

    def gamma(k: int) -> float:
        """γ_k = k·u/(1 - k·u), the relative error bound of k roundings."""
        u = 2.0 ** -53  # the unit roundoff of float64
        return k * u / (1 - k * u)

    def fsum_squares(x: np.ndarray) -> float:
        """‖x‖², each square rounded once and the sum rounded once: within γ_2."""
        return math.fsum(np.square(x.view(float)).tolist())

    n, rows, cols, vals = len(m.basis), m.rows, m.cols, m.vals
    if not len(vals):
        return bracket(0.0, 0.0, 0.0, "zero", 0, 0.0)
    conj = vals.conj()

    def apply(v: np.ndarray, x: np.ndarray, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """out[dst[k]] += v[k]·x[src[k]]: M x from (rows, cols), M* x from (cols, rows)."""
        t = v * x[src]
        if not np.iscomplexobj(t):
            return np.bincount(dst, t, minlength=n)
        out = np.empty(n, dtype=complex)
        out.real = np.bincount(dst, t.real, minlength=n)
        out.imag = np.bincount(dst, t.imag, minlength=n)
        return out

    def gram(x: np.ndarray) -> np.ndarray:
        return apply(conj, apply(vals, x, cols, rows), rows, cols)

    def step(q_prev, q, beta_prev, alpha=None):
        """One Lanczos step: α = q*Aq (unless given) and w = Aq - αq - β_prev q_prev."""
        w = gram(q) - beta_prev * q_prev
        if alpha is None:
            alpha = float(np.vdot(q, w).real)
        w -= alpha * q
        return alpha, w

    def ritz(k: int):
        """Top eigenvalue θ and unit eigenvector s of the k×k tridiagonal T_k."""
        t = np.diag(alphas[:k]) + np.diag(betas[:k - 1], 1) + np.diag(betas[:k - 1], -1)
        evals, evecs = np.linalg.eigh(t)
        return float(evals[-1]), evecs[:, -1]

    # 1 + frac(j·φ), φ = (√5 - 1)/2: the constant vector can be orthogonal to
    # the top singular vector of a 0/1 element (M = t_a t_a* - t_a t_b* on
    # the Fock basis sends it to 0); these irrational steps break the symmetry
    start = 1 + np.mod(np.arange(n) * ((math.sqrt(5) - 1) / 2), 1.0)
    start = (start / np.linalg.norm(start)).astype(complex)
    zeros = np.zeros(n, dtype=complex)
    alphas: list[float] = []
    betas: list[float] = []
    settle = 1e-10  # the Ritz residual test, relative to θ
    q_prev, q, beta, top = zeros, start, 0.0, 0.0
    while True:  # pass 1
        alpha, w = step(q_prev, q, beta)
        beta = float(np.linalg.norm(w))
        alphas.append(alpha)
        betas.append(beta)
        k, top = len(alphas), max(top, alpha)
        # θ >= every α and |s_k| <= 1, so β <= settle·max α (an invariant
        # subspace at β = 0) already meets the residual test
        if beta <= settle * top:
            break
        if k % 8 == 0 or k == MAX_LANCZOS_STEPS:
            theta, s = ritz(k)
            if beta * abs(s[-1]) <= settle * theta:
                break
        if k == MAX_LANCZOS_STEPS:
            raise NonConvergence(f"Lanczos residual did not settle in {k} steps")
        q_prev, q = q, w / beta
    theta, s = ritz(k)
    y = s[0] * start
    q_prev, q = zeros, start
    for j in range(k - 1):  # pass 2
        _, w = step(q_prev, q, betas[j - 1] if j else 0.0, alphas[j])
        q_prev, q = q, w / betas[j]
        y += s[j + 1] * q

    # Lower end.  With z = fl(My) and a = fl(|M||y|) from bincount sums of at
    # most r terms per row, ‖z - My‖ <= γ_{2r+4}‖|M||y|‖; the three squared
    # norms are fsums within γ_2; so ‖My‖/‖y‖ >= value - allowance below,
    # one extra rounding per operation folded into each γ.
    r = int(np.bincount(rows, minlength=n).max())
    sy = fsum_squares(y)
    value = math.sqrt(fsum_squares(apply(vals, y, cols, rows)) / sy)
    absm, absy = np.abs(vals), np.abs(y)
    abs_quotient = math.sqrt(fsum_squares(apply(absm, absy, cols, rows)) / sy)
    allowance = gamma(5) * value + gamma(3 * r + 16) * abs_quotient
    lower = max(0.0, float(np.nextafter(value - allowance, -np.inf)))

    # Upper end.  ‖M‖² = ρ(M*M) <= ρ(|M|ᵀ|M|) <= max_i (|M|ᵀ|M|p)_i / p_i for
    # every p > 0 (Collatz–Wielandt); p = |y| floored at √ε·max|y| keeps p > 0.
    # Every term is nonnegative, so the rounding is at most γ_{r+c+10}.
    c = int(np.bincount(cols, minlength=n).max())
    p = np.maximum(absy, math.sqrt(np.finfo(float).eps) * absy.max())
    ratio = float(np.max(apply(absm, apply(absm, p, cols, rows), rows, cols) / p))
    upper = float(np.nextafter(math.sqrt(ratio * (1 + gamma(r + c + 10))), np.inf))
    return bracket(value, lower, upper, "lanczos", k, allowance)


# -- 0/1 partial injections and diagonal masks ---------------------------------


def compose_maps(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The partial injection a∘b: defined at j when b is and a is at b[j]."""
    return np.where(b < 0, -1, a[b])


def inverse_map(t: np.ndarray) -> np.ndarray:
    """The adjoint t* of a partial injection: its inverse map."""
    inv = np.full(len(t), -1, dtype=np.intp)
    dom = np.flatnonzero(t >= 0)
    inv[t[dom]] = dom
    return inv


def range_mask(t: np.ndarray) -> np.ndarray:
    """The final projection t t* of a partial injection, as a mask."""
    mask = np.zeros(len(t), dtype=bool)
    mask[t[t >= 0]] = True
    return mask


def _as_map(term: np.ndarray) -> np.ndarray:
    """A mask read as the partial identity on it; an index array unchanged."""
    return np.where(term, np.arange(len(term)), -1) if term.dtype == bool else term


def _rows_hit(terms: Sequence[np.ndarray], cols: np.ndarray, depth: int) -> np.ndarray:
    """The rows a sum of partial injections or masks hits in each column, one
    per term and -1 for none, padded to depth terms and sorted down each column."""
    rows = np.full((depth, len(cols)), -1, dtype=np.intp)
    for r, t in enumerate(terms):
        rows[r] = _as_map(t)[cols]
    rows.sort(axis=0)
    return rows


def first_difference_on(basis: Basis, lhs: Sequence[np.ndarray],
                        rhs: Sequence[np.ndarray], cols: np.ndarray):
    """First (row, col), in (row, col) order, where two sums of partial
    injections or masks differ on the given columns, with both values; or None."""
    depth = max(len(lhs), len(rhs), 1)
    sides = [_rows_hit(terms, cols, depth) for terms in (lhs, rhs)]
    if np.array_equal(*sides):
        return None
    a, b = (Counter((r, c) for r, c in zip(side.ravel().tolist(), np.tile(cols, depth).tolist())
                    if r >= 0) for side in sides)
    i, j = min(k for k in a.keys() | b.keys() if a[k] != b[k])
    return (basis.labels[i], basis.labels[j], a[(i, j)], b[(i, j)])


# -- reports ------------------------------------------------------------------


@dataclass
class CheckResult:
    id: str
    status: str  # pass | fail | inconclusive | heuristic-pass | heuristic-fail
    witness: Optional[str] = None
    detail: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status in ("pass", "heuristic-pass")

    def to_jsonable(self) -> dict:
        data = {"id": self.id, "status": self.status}
        if self.witness is not None:
            data["witness"] = self.witness
        if self.detail:
            data["detail"] = self.detail
        return data


def _compare_on(cid: str, basis: Basis, lhs: Sequence[np.ndarray],
                rhs: Sequence[np.ndarray], cols) -> CheckResult:
    """Exact comparison on the given columns; a failure names the first difference."""
    diff = first_difference_on(basis, lhs, rhs, cols)
    if diff is None:
        return CheckResult(cid, "pass")
    return CheckResult(cid, "fail", witness=str(diff))


class VerificationReport:
    def __init__(self, title: str):
        self.title = title
        self.checks: list[CheckResult] = []

    def add(self, check: CheckResult) -> None:
        self.checks.append(check)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)


# -- isometry families --------------------------------------------------------


class IsometryFamily:
    """Indexed family λ -> 0/1 partial injection on a named basis.

    kind "fock": basis vectors are the paths of degree <= cap, acted on by
    left concatenation truncated at the cap.  kind "boundary": basis vectors
    are boundary-path handles, acted on by extension with windowed identity.
    Relations are only asserted on safe columns, where every operator word
    within the stated budget acts without hitting the truncation rim; a
    boundary family reads them from its tail ids and generator arrays.
    """

    cap: Optional[Degree] = None  # a truncated basis's cap, which bounds every generator
    _ranges: np.ndarray  # the range vertex of each basis vector, set by each subclass

    def __init__(self, kind: str, graph: KGraph, basis: Basis):
        self.kind = kind
        self.graph = graph
        self.basis = basis
        self._gens: dict[Path, np.ndarray] = {}  # index arrays j -> i or -1
        self._qs: dict[Path, np.ndarray] = {}  # range masks
        self._safe: dict[tuple, np.ndarray] = {}
        self._closure: dict[tuple, Degree] = {}  # sorted F -> degree of _closure(F)

    # subclass hooks: (domain, image) indices of t_e for an edge e, and safe columns
    def _edge_generator(self, e: Path) -> tuple[Sequence[int], Sequence[int]]:
        raise NotImplementedError

    def _safe_columns(self, budget: Degree) -> Sequence[int]:
        raise NotImplementedError

    @staticmethod
    def _memo(memo: dict, key, build) -> np.ndarray:
        """build() once per key, kept read-only."""
        got = memo.get(key)
        if got is None:
            got = memo[key] = build()
            got.flags.writeable = False
        return got

    def generator(self, lam: Path) -> np.ndarray:
        """t_lam as a read-only index array j -> i, -1 where undefined.

        t_v is the identity on the basis vectors with range v, t_e is the
        subclass hook's, and every longer t_lam composes the edge generators
        along lam's word: t_lam = t_e1 ⋯ t_en."""
        def build():
            if self.cap is not None and not lam.degree <= self.cap:
                raise CapTooSmall(f"generator degree {tuple(lam.degree)} "
                                  f"exceeds basis cap {tuple(self.cap)}")
            if lam.is_vertex():
                return _as_map(self._ranges == lam.range_vertex)
            edges = [self.graph.edge_path(e) for e in lam.word]
            if len(edges) > 1:
                t = self.generator(edges[-1])
                for e in reversed(edges[:-1]):
                    t = compose_maps(self.generator(e), t)
                return t
            dom, img = self._edge_generator(lam)
            t = np.full(len(self.basis), -1, dtype=np.intp)
            t[dom] = img
            if np.count_nonzero(range_mask(t)) != len(dom):
                raise KGraphError(f"t_{lam.label()} is not injective")
            return t
        return self._memo(self._gens, lam, build)

    def q(self, lam: Path) -> np.ndarray:
        """q_lam = t_lam t_lam* as a read-only mask."""
        return self._memo(self._qs, lam, lambda: range_mask(self.generator(lam)))

    def safe_columns(self, budget) -> np.ndarray:
        """Sorted indices of the basis vectors safe at the budget."""
        budget = Degree(budget)
        return self._memo(self._safe, tuple(budget),
                          lambda: np.array(self._safe_columns(budget), dtype=np.intp))

    def evaluate(self, element: "FormalElement") -> SparseSum:
        """Sum of a t_mu t_nu* over the sorted terms; term (mu, nu) has the
        entries (t_mu[k], t_nu[k]), k ascending, where both are defined.
        Each entry is summed in term order and kept in the order of its first
        appearance; entries that cancel exactly are dropped."""
        n = len(self.basis)
        keys, coeffs = [], []  # each term's entries as row·n + col, and its a
        for (mu, nu), a in element.sorted_items():
            tm, tn = self.generator(mu), self.generator(nu)
            k = (tm >= 0) & (tn >= 0)
            keys.append(tm[k] * n + tn[k])
            coeffs.append(a)
        weights = np.repeat(np.array(coeffs, dtype=complex), [len(k) for k in keys])
        keys = np.concatenate(keys) if keys else np.empty(0, dtype=np.intp)
        uniq, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        order = np.argsort(first)
        # bincount adds each bin's weights in input order, the term order
        vals = (np.bincount(inverse, weights.real, minlength=len(uniq))
                + 1j * np.bincount(inverse, weights.imag, minlength=len(uniq)))[order]
        kept = vals != 0
        rows, cols = np.divmod(uniq[order][kept], n)
        return SparseSum(self.basis, rows, cols, vals[kept])


class FockFamily(IsometryFamily):
    def __init__(self, graph: KGraph, cap: Degree):
        paths = paths_up_to_degree(graph, cap)
        basis = Basis([p.label() for p in paths])
        super().__init__("fock", graph, basis)
        self.cap = cap
        self._ranges = np.array([p.range_vertex for p in paths])
        self._paths = paths
        self._label_index = {label: i for i, label in enumerate(basis.labels)}
        self._degrees = np.array([tuple(p.degree) for p in paths], dtype=np.intp)

    def _within(self, d: Degree) -> np.ndarray:
        """Mask of the basis paths beta with d(beta) <= cap - d."""
        return np.all(self._degrees <= np.array(self.cap - d), axis=1)

    def _edge_generator(self, e: Path) -> tuple[np.ndarray, np.ndarray]:
        """t_e sends beta to e·beta, defined exactly when s(e) = r(beta) and
        d(e·beta) <= cap; the image is found by label."""
        g = self.graph
        dom = np.flatnonzero(self._within(e.degree) & (self._ranges == e.source_vertex))
        index, color = self._label_index, g._color
        (name,) = e.word
        img = []
        for j in dom.tolist():
            word = self._paths[j].word
            if not word:
                img.append(index[name])
                continue
            word = (name,) + word
            # beta's word is color-sorted, so only an inverted seam needs swaps
            if color[name] > color[word[1]]:
                word = g.normalize(word)
            img.append(index[".".join(word)])
        return dom, np.array(img, dtype=np.intp)

    def _safe_columns(self, budget: Degree) -> np.ndarray:
        if not budget <= self.cap:
            raise CapTooSmall(
                f"budget {tuple(budget)} exceeds basis cap {tuple(self.cap)}; "
                "the safe subspace is empty")
        return np.flatnonzero(self._within(budget))


class BoundaryFamily(IsometryFamily):
    def __init__(self, graph: KGraph, handles: Sequence[BoundaryPathHandle],
                 window: Degree, fingerprints: dict):
        basis = Basis([f"x{i:03d}" for i in range(len(handles))])
        super().__init__("boundary", graph, basis)
        self._ranges = np.array([x.range_vertex for x in handles])
        self.window = window
        self.handles = tuple(handles)
        self._fp_index = dict(fingerprints)  # fingerprint -> basis index, or tail_id's id
        # per-handle facts of the diagonal-formula checks, each built once
        self.check_labels = [f"{label}({x.describe()})"
                             for label, x in zip(basis.labels, self.handles)]
        self._prefixes: dict[Degree, list] = {}  # d -> [x(0, d) or None]
        self._tails: dict[tuple, int] = {}  # (j, d) -> id of σ^d(x_j)'s fingerprint

    def handle_index(self, x: BoundaryPathHandle) -> Optional[int]:
        i = self._fp_index.get(x.fingerprint(self.window), len(self.basis))
        return i if i < len(self.basis) else None

    def prefixes(self, d: Degree) -> list:
        """x(0, d) for each handle x, None where d exceeds d(x)."""
        got = self._prefixes.get(d)
        if got is None:
            zero = Degree.zero(self.graph.rank)
            got = self._prefixes[d] = [x.window(zero, d) if ext_le(d, x.degree) else None
                                       for x in self.handles]
        return got

    def tail_id(self, j: int, d: Degree) -> int:
        """The basis index of σ^d(x_j) when its fingerprint at the family window
        is in the basis, else a fresh id >= len(basis): equal ids, equal
        fingerprints.  Only the int is kept, not the shifted handle."""
        got = self._tails.get((j, d))
        if got is None:
            fp = shift(self.handles[j], d).fingerprint(self.window)
            ids = self._fp_index
            got = self._tails[j, d] = ids.setdefault(fp, len(ids))
        return got

    def _edge_generator(self, e: Path) -> tuple[list, list]:
        """Domain and image of t_e, one extension per handle; two handles with
        one windowed image would make t_e no partial isometry, so they raise
        WindowCollision."""
        source: dict[int, int] = {}  # image -> domain
        for j in np.flatnonzero(self._ranges == e.source_vertex).tolist():
            x = self.handles[j]
            i = self.handle_index(extend(e, x))
            if i is None:
                continue
            if i in source:
                raise WindowCollision(
                    f"t_{e.label()} sends {self.handles[source[i]].describe()} and "
                    f"{x.describe()} to one handle at window {tuple(self.window)}")
            source[i] = j
        return list(source.values()), list(source)

    def _safe_columns(self, budget: Degree) -> list:
        """x_j is safe when, for each m <= budget with m <= d(x_j), σ^m(x_j)
        has a basis index i (its tail id) and t_lam x_i is defined for each lam
        <= budget with s(lam) = r(x_i).  Then each lam·σ^m(x_j) has a basis
        index: its fingerprint depends only on σ^m(x_j)'s, which is x_i's, and
        a composed t_lam is defined at x_i only where lam·x_i has one."""
        n = len(self.basis)
        ok = np.ones(n, dtype=bool)  # x_i with every t_lam x_i defined
        for lam in paths_up_to_degree(self.graph, budget):
            ok &= (self.generator(lam) >= 0) | (self._ranges != lam.source_vertex)
        ok, bound = ok.tolist(), ext_degree(budget)
        safe = [j for j, x in enumerate(self.handles)
                if all(i < n and ok[i] for i in (self.tail_id(j, m) for m in
                                                 degrees_up_to(ext_meet(x.degree, bound))))]
        if not safe:
            raise CapTooSmall(
                f"no safe basis vectors at budget {tuple(budget)}; "
                "enlarge gen_cap")
        return safe


def build_fock_family(g: KGraph, cap) -> FockFamily:
    """Left-concatenation family on all paths of degree <= cap."""
    return FockFamily(g, Degree(cap))


def build_boundary_family(g: KGraph, seeds: Sequence[BoundaryPathHandle], window,
                          gen_cap) -> BoundaryFamily:
    """Concatenation family on the closure of the seeds under shifts and
    extensions up to gen_cap.

    Seeds failing the windowed shift-distinctness screen, on shifts up to
    2·gen_cap, are dropped, which mirrors the degenerate case of a periodic
    graph supplying no usable basis vectors.  Handle identity inside the
    basis is windowed equality at the given width; two declared seeds
    indistinguishable at that width are a WindowCollision.

    Each distinct shift σ^m(x), m <= gen_cap, is extended by every lam <=
    gen_cap once: the fingerprint of lam·y depends only on y's.  A shift equal
    only to an earlier extension, not to an extended shift, is extended.
    """
    window = Degree(window)
    gen_cap = Degree(gen_cap)
    seeds = list(seeds)
    if not seeds:
        raise EmptySeedSet("no boundary-path handles supplied")

    screen = ext_degree(gen_cap + gen_cap)
    kept = [x for x in seeds if aperiodicity_window_check(x, ext_meet(x.degree, screen), window)]
    if not kept:
        raise EmptySeedSet(
            "every seed failed the windowed aperiodicity screen; "
            "the aperiodic boundary-path space is empty at this resolution")

    fps = {}
    for x in kept:
        fp = x.fingerprint(window)
        if fp in fps:
            raise WindowCollision(
                f"seeds {fps[fp].name} and {x.name} agree on window {tuple(window)}")
        fps[fp] = x

    first: dict[tuple, BoundaryPathHandle] = {}  # fingerprint -> first handle with it
    expanded = set()  # fingerprints of the shifts extended so far
    exts = [lam for lam in paths_up_to_degree(g, gen_cap) if not lam.is_vertex()]
    for x in kept:
        for m in degrees_up_to(ext_meet(x.degree, ext_degree(gen_cap))):
            base = shift(x, m)
            fp = base.fingerprint(window)
            first.setdefault(fp, base)
            if fp in expanded:
                continue
            expanded.add(fp)
            for y in (extend(lam, base) for lam in exts if lam.source_vertex == base.range_vertex):
                first.setdefault(y.fingerprint(window), y)

    # a fingerprint is (degree, range vertex, head word): the basis order
    ordered = sorted(first)
    handles = [first[fp] for fp in ordered]
    fingerprints = {fp: i for i, fp in enumerate(ordered)}
    return BoundaryFamily(g, handles, window, fingerprints)


# -- TCK / CK verification ----------------------------------------------------


def verify_tck(fam: IsometryFamily, cap) -> VerificationReport:
    """Exact checks of the three defining relations on safe columns."""
    g = fam.graph
    cap = Degree(cap)
    report = VerificationReport(f"tck[{fam.kind}]")

    t = fam.generator
    verts = [g.vertex_path(v) for v in g.vertices]
    for v in verts:
        tv = t(v)
        ok = (np.array_equal(tv, inverse_map(tv))
              and np.array_equal(compose_maps(tv, tv), tv))
        report.add(CheckResult(f"TCK1:{v.label()} projection",
                               "pass" if ok else "fail"))
    for v, w in itertools.combinations(verts, 2):
        zero = not np.any(compose_maps(t(v), t(w)) >= 0)
        report.add(CheckResult(f"TCK1:{v.label()}·{w.label()} orthogonal",
                               "pass" if zero else "fail"))

    paths = paths_up_to_degree(g, cap)
    for lam in paths:
        for mu in paths:
            if lam.source_vertex != mu.range_vertex or not lam.degree + mu.degree <= cap:
                continue
            report.add(_compare_on(f"TCK2:{lam.label()}·{mu.label()}", fam.basis,
                                   [compose_maps(t(lam), t(mu))], [t(compose(lam, mu))],
                                   fam.safe_columns(lam.degree + mu.degree)))

    for mu in paths:
        for nu in paths:
            if mu.range_vertex != nu.range_vertex:
                continue
            rhs = []
            for lam in mce(g, mu, nu):
                alpha = segment(lam, mu.degree, lam.degree)
                beta = segment(lam, nu.degree, lam.degree)
                rhs.append(compose_maps(t(alpha), inverse_map(t(beta))))
            report.add(_compare_on(f"TCK3:{mu.label()}*{nu.label()}", fam.basis,
                                   [compose_maps(inverse_map(t(mu)), t(nu))], rhs,
                                   fam.safe_columns(mu.degree.join(nu.degree))))
    return report


def verify_ck(fam: IsometryFamily, cap) -> VerificationReport:
    """Gap-projection products over every minimal FE set below the cap."""
    g = fam.graph
    cap = Degree(cap)
    report = VerificationReport(f"ck[{fam.kind}]")
    for v in g.vertices:
        # t_v times each gap (t_v - q_lam) is diagonal once t_v is: the mask of
        # t_v AND-NOT every q_lam
        tv = fam.generator(g.vertex_path(v))
        if np.any((tv >= 0) & (tv != np.arange(len(tv)))):
            raise KGraphError(f"t_{v} is not a diagonal projection")
        for E in enumerate_fe(g, v, cap):
            gap = tv >= 0
            for lam in E:
                gap &= ~fam.q(lam)
            cols = fam.safe_columns(join_degrees((lam.degree for lam in E), g.rank))
            hit = cols[gap[cols]]
            label = "{" + ",".join(p.label() for p in E) + "}"
            report.add(CheckResult(f"CK:{v}:{label}", "fail" if len(hit) else "pass",
                                   witness=fam.basis.labels[hit[0]] if len(hit) else None))
    return report


# -- boolean representations and decompositions -------------------------------


def boolean_rep(fam: IsometryFamily, cap) -> IsometryFamily:
    """Check that the final projections q_lam of the family form a boolean
    representation, and return the family.

    The product rule q_mu q_nu = sum over MCE(mu, nu) of q_gamma is checked
    exactly on safe columns for every pair of paths below the cap.
    """
    g = fam.graph
    paths = paths_up_to_degree(g, cap)
    for mu in paths:
        for nu in paths:
            if mu.sort_key() > nu.sort_key():
                continue
            diff = first_difference_on(
                fam.basis, [fam.q(mu) & fam.q(nu)], [fam.q(gamma) for gamma in mce(g, mu, nu)],
                fam.safe_columns(mu.degree.join(nu.degree)))
            if diff is not None:
                raise BooleanRelationFailure(
                    f"q_{mu.label()} q_{nu.label()} != sum over MCE; "
                    f"first difference {diff}")
    return fam


def _extensions_in(lam: Path, pool: Sequence[Path]) -> list[Path]:
    """Members of the pool of the form lam·alpha with alpha nonzero degree."""
    return [w for w in pool if w != lam and extends(w, lam)]


def _q_piece(fam: IsometryFamily, lam: Path, pool: Sequence[Path]) -> np.ndarray:
    """Q_lam = q_lam times (q_lam - q_w) over the proper extensions w of lam in
    the pool: the mask q_lam AND-NOT every q_w."""
    acc = fam.q(lam)
    for w in _extensions_in(lam, pool):
        acc = acc & ~fam.q(w)
    return acc


def _require_mce_closed(g: KGraph, F: Sequence[Path]) -> list[Path]:
    """F sorted and deduplicated, once every MCE of two members lies in it."""
    F = sorted(set(F), key=Path.sort_key)
    members = set(F)
    for mu in F:
        for nu in F:
            for gamma in mce(g, mu, nu):
                if gamma not in members:
                    raise NotMceClosed(
                        f"MCE({mu.label()},{nu.label()}) contains {gamma.label()} outside F")
    return F


def _lem3_witness(g: KGraph, lam: Path, pool: Sequence[Path]
                  ) -> tuple[list[Path], Optional[Path]]:
    """λ's extension tails B = {α : λα in the pool, d(α) nonzero} and Lemma 3's
    witness: a path from s(λ) meeting no member of B (the vertex when B is
    empty), or None when B is exhaustive."""
    B = [segment(w, lam.degree, w.degree) for w in _extensions_in(lam, pool)]
    if not B:
        return B, g.vertex_path(lam.source_vertex)
    return B, is_exhaustive(g, lam.source_vertex, B).witness


@dataclass
class QDecomposition:
    vee_F: list[Path]
    Q: dict  # Path -> mask


def q_decomposition(fam: IsometryFamily, F: Sequence[Path]) -> QDecomposition:
    """Mutually orthogonal pieces Q_lam refining the projections over vee F.

    Q_lam multiplies q_lam by (q_lam - q_lam·alpha) over all proper
    extensions inside vee F; orthogonality and the reconstruction of each
    q_mu as the sum of the Q's over its extensions are asserted exactly.
    """
    g = fam.graph
    F = sorted(set(F), key=Path.sort_key)
    for lam in F:
        if g.vertex_path(lam.source_vertex) not in F:
            raise SourceClosureViolation(
                f"{lam.label()} is in F but its source {lam.source_vertex} is not")
    vee_F = vee(g, F)
    Q = {lam: _q_piece(fam, lam, vee_F) for lam in vee_F}

    cols = fam.safe_columns(join_degrees((w.degree for w in vee_F), g.rank))
    for a, b in itertools.combinations(vee_F, 2):
        if np.any((Q[a] & Q[b])[cols]):
            raise BooleanRelationFailure(
                f"Q_{a.label()} and Q_{b.label()} are not orthogonal")
    for mu in vee_F:
        pieces = [Q[mu]] + [Q[w] for w in _extensions_in(mu, vee_F)]
        if first_difference_on(fam.basis, [fam.q(mu)], pieces, cols) is not None:
            raise BooleanRelationFailure(
                f"q_{mu.label()} is not the sum of its Q pieces")
    return QDecomposition(vee_F, Q)


def lem3_check(fam: IsometryFamily, F: Sequence[Path]) -> VerificationReport:
    """Nonvanishing of Q_alpha whenever the extension set below alpha in F
    fails to be exhaustive, witnessed by a projection it dominates."""
    g = fam.graph
    F = _require_mce_closed(g, F)
    for lam in F:
        if not fam.q(lam).any():
            raise KGraphError(f"q_{lam.label()} vanishes; hypothesis violated")

    report = VerificationReport("lem3")
    for alpha in F:
        tau = _lem3_witness(g, alpha, F)[1]
        if tau is None:
            report.add(CheckResult(f"lem3:{alpha.label()}", "pass",
                                   detail={"claim": "none (extension set exhaustive)"}))
            continue
        q_ext = fam.q(compose(alpha, tau))
        ok = q_ext.any() and not np.any(q_ext & ~_q_piece(fam, alpha, F))
        witness = fam.basis.labels[np.argmax(q_ext)] if ok else None
        report.add(CheckResult(
            f"lem3:{alpha.label()}", "pass" if ok else "fail", witness=witness,
            detail={"tau": tau.label()}))
    return report


def diagonal_norm(fam: IsometryFamily, coeffs: dict) -> float:
    """Exact norm of a diagonal combination sum c_lam q_lam.

    The combination is constant on each nonzero piece Q_alpha of the vee
    closure of the support, so the norm is the largest sector total in
    absolute value.
    """
    g = fam.graph
    support = {lam: c for lam, c in coeffs.items() if c != 0}
    F = set(support)
    for lam in list(F):
        F.add(g.vertex_path(lam.source_vertex))
    if not F:
        return 0.0
    dec = q_decomposition(fam, sorted(F, key=Path.sort_key))
    best = 0.0
    for alpha in dec.vee_F:
        if not dec.Q[alpha].any():
            continue
        total = 0
        for lam, c in support.items():
            if extends(alpha, lam):
                total += c
        best = max(best, abs(total))
    return float(best)


# -- formal elements and the exp-square ---------------------------------------


class FormalElement:
    """Finite table (mu, nu) -> coefficient standing for sum a t_mu t_nu*."""

    def __init__(self, graph: KGraph, coeffs: dict):
        self.graph = graph
        self.coeffs = {}
        for (mu, nu), a in coeffs.items():
            if a == 0:
                continue
            if mu.graph is not graph or nu.graph is not graph:
                raise KGraphError("coefficient paths live in a different graph")
            if mu.source_vertex != nu.source_vertex:
                raise KGraphError(
                    f"t_{mu.label()} t*_{nu.label()} needs matching sources")
            self.coeffs[(mu, nu)] = a

    def sorted_items(self):
        return sorted(self.coeffs.items(),
                      key=lambda kv: (kv[0][0].sort_key(), kv[0][1].sort_key()))

    def diagonal(self) -> "FormalElement":
        return FormalElement(self.graph, {(mu, nu): a for (mu, nu), a
                                          in self.coeffs.items() if mu == nu})

    def support_degree(self) -> Degree:
        return join_degrees((p.degree for pair in self.coeffs for p in pair), self.graph.rank)

    def __eq__(self, other) -> bool:
        return isinstance(other, FormalElement) and self.coeffs == other.coeffs

    def __len__(self) -> int:
        return len(self.coeffs)


def verify_exp_square(boundary: IsometryFamily, a: FormalElement) -> CheckResult:
    """Both routes around the exp-square agree exactly.

    Left: keep the diagonal coefficients formally, then map each projection
    into the boundary family.  Right: evaluate in the boundary family and
    compress to the basis diagonal.  Each t_mu t_mu* is diagonal, so both
    routes are compared as diagonal vectors; a failure names the first
    differing basis vector.
    """
    def diagonal(m: SparseSum) -> np.ndarray:
        out = np.zeros(len(m.basis), dtype=complex)
        on = m.rows == m.cols
        out[m.rows[on]] = m.vals[on]
        return out

    left = diagonal(boundary.evaluate(a.diagonal()))
    right = diagonal(boundary.evaluate(a))
    diff = np.flatnonzero(left != right)
    if not len(diff):
        return CheckResult("exp-square", "pass")
    i = diff[0]
    label = boundary.basis.labels[i]
    return CheckResult("exp-square", "fail",
                       witness=str((label, label, left[i].item(), right[i].item())))


def verify_diagonal_formula(bfam: BoundaryFamily, mu: Path, nu: Path
                            ) -> VerificationReport:
    """Per-handle diagonal entries of S_mu S_nu*: zero off the diagonal pairs.

    For mu != nu the entry at x vanishes unless the two shifted handles are
    equal, which windowed comparison can only refute; an unresolvable
    comparison is reported as inconclusive, never coerced to a pass.
    """
    report = VerificationReport(f"diag[{mu.label()},{nu.label()}]")
    matrix = compose_maps(bfam.generator(mu), inverse_map(bfam.generator(nu)))
    on_diagonal = (matrix == np.arange(len(matrix))).tolist()
    safe = np.zeros(len(matrix), dtype=bool)
    safe[bfam.safe_columns(mu.degree.join(nu.degree))] = True
    safe = safe.tolist()
    mu_prefixes, nu_prefixes = bfam.prefixes(mu.degree), bfam.prefixes(nu.degree)
    for j, (label, x) in enumerate(zip(bfam.check_labels, bfam.handles)):
        if not (mu_prefixes[j] == mu and nu_prefixes[j] == nu):
            expected = 0
        elif ext_sub(x.degree, mu.degree) != ext_sub(x.degree, nu.degree):
            expected = 0  # the shifted handles differ in degree; no window needed
        elif bfam.tail_id(j, mu.degree) != bfam.tail_id(j, nu.degree):
            expected = 0  # the fingerprint also carries the range vertex
        elif mu == nu:
            expected = 1
        else:
            report.add(CheckResult(f"{report.title}@{label}", "inconclusive",
                                   witness=label))
            continue
        got = int(on_diagonal[j])
        if safe[j] and got != expected:
            report.add(CheckResult(f"{report.title}@{label}", "fail",
                                   witness=f"{label}: matrix {got} vs window {expected}"))
            continue
        report.add(CheckResult(f"{report.title}@{label}", "pass"))
    return report


# -- separating systems and the norm inequality --------------------------------


@dataclass
class SeparatingSystem:
    F: list[Path]
    B_exhaustive: dict  # Path -> bool
    tau_v: dict  # vertex -> Path
    phi: dict  # Path -> mask
    required_cap: Degree


def _closure(g: KGraph, F: Sequence[Path]) -> list[Path]:
    """vee(F ∪ F′), where F′ holds the completions λβ′ and λδ′ of every
    λ ∈ MCE(μ, ν), μ, ν ∈ F, through each ξ = ββ′ = δδ′ ∈ MCE(β, δ) of the
    tails λ = μβ = νδ."""
    out: set[Path] = set(F)
    for mu in F:
        for nu in F:
            for lam in mce(g, mu, nu):
                beta = segment(lam, mu.degree, lam.degree)
                delta = segment(lam, nu.degree, lam.degree)
                for xi in mce(g, beta, delta):
                    beta_p = segment(xi, beta.degree, xi.degree)
                    delta_p = segment(xi, delta.degree, xi.degree)
                    out.add(compose(lam, beta_p))
                    out.add(compose(lam, delta_p))
    return vee(g, out)


def build_separating_system(fam: IsometryFamily, F: Sequence[Path],
                            tau_depth=None) -> SeparatingSystem:
    """Mutually orthogonal compressions phi_lam straddling the diagonal.

    For each lam whose extension set inside the closure fails to be
    exhaustive, a path alpha avoiding that set is grown until every color
    either reaches the closure's maximal degree or dies at a source, and a
    single tau separating all completions is found; phi_lam is the final
    projection of lam·alpha·tau.  Where the extension set is exhaustive,
    phi_lam is the Q piece itself.  Every choice is re-verified before the
    system is returned.
    """
    g = fam.graph
    F = _require_mce_closed(g, F)
    vee_F_bar = _closure(g, F)
    M = join_degrees((w.degree for w in vee_F_bar), g.rank)
    tau_depth = M + Degree((1,) * g.rank) if tau_depth is None else Degree(tau_depth)

    reach: dict = {}  # lam -> lam·alpha, for each lam with a non-exhaustive extension set
    for lam in F:
        B, alpha = _lem3_witness(g, lam, vee_F_bar)
        if alpha is None:
            continue
        # grow until every deficient color reaches M or hits a source
        while True:
            for i in range(g.rank):
                names = alpha.degree[i] < M[i] and g.edges_at(alpha.source_vertex, i + 1)
                if names:
                    alpha = compose(alpha, g.edge_path(names[0]))
                    break
            else:
                break
        for mu_b in B:
            if mce(g, mu_b, alpha):
                raise SeparationSearchExhausted(
                    tau_depth, f"alpha for {lam.label()} meets its extension set")
        r = reach[lam] = compose(lam, alpha)
        for w in vee_F_bar:
            if mce(g, r, w) and not extends(r, w):
                raise SeparationSearchExhausted(
                    tau_depth, f"alpha for {lam.label()} is not long enough past {w.label()}")

    G = sorted({segment(r, w.degree, r.degree) for r in reach.values()
                for w in vee_F_bar if extends(r, w)}, key=Path.sort_key)

    tau_v: dict = {}
    for v in sorted({eps.source_vertex for eps in G}):
        Gv = [eps for eps in G if eps.source_vertex == v]
        tau = separate_family(g, Gv, tau_depth)
        if tau is None:
            raise SeparationSearchExhausted(
                tau_depth, f"no single extension separates the completions at {v}")
        tau_v[v] = tau

    phi: dict = {}
    required = M
    for lam in F:
        if lam not in reach:
            phi[lam] = _q_piece(fam, lam, vee_F_bar)
            continue
        witness_path = compose(reach[lam], tau_v[reach[lam].source_vertex])
        required = required.join(witness_path.degree)
        phi[lam] = fam.q(witness_path)

    # mutual orthogonality and domination by q_lam, on safe columns
    cols = fam.safe_columns(Degree.zero(g.rank))
    for a, b in itertools.combinations(F, 2):
        if np.any((phi[a] & phi[b])[cols]):
            raise SeparationSearchExhausted(
                tau_depth, f"phi_{a.label()} and phi_{b.label()} overlap")
    for lam in F:
        if np.any((phi[lam] & ~fam.q(lam))[cols]):
            raise SeparationSearchExhausted(
                tau_depth, f"phi_{lam.label()} is not dominated by q_{lam.label()}")

    return SeparatingSystem(F, {lam: lam not in reach for lam in F}, tau_v, phi, required)


def verify_phi2(fam: IsometryFamily, system: SeparatingSystem, mu: Path,
                nu: Path, lam: Path) -> CheckResult:
    """Compression of a spanning element by phi_lam follows the case split:
    phi_lam itself when mu = nu extends to lam, zero otherwise."""
    phi = _as_map(system.phi[lam])
    middle = compose_maps(fam.generator(mu), inverse_map(fam.generator(nu)))
    expected = [phi] if mu == nu and extends(lam, mu) else []
    return _compare_on(f"phi2:{lam.label()}|{mu.label()},{nu.label()}", fam.basis,
                       [compose_maps(phi, compose_maps(middle, phi))], expected,
                       fam.safe_columns(mu.degree.join(nu.degree)))


def verify_claim1(fam: IsometryFamily, F: Sequence[Path], table: dict,
                  system: Optional[SeparatingSystem] = None) -> CheckResult:
    """Diagonal coefficients never beat the full element in norm.

    The exact diagonal norm lhs passes when it is at most the lower end of
    the element's norm bracket plus CLAIM1_TOL, fails only above the upper
    end plus it, and is inconclusive in between, with the reason in the detail.
    The cap must contain the vee closure of F and its completions, so the
    sector-attaining diagonal entries live inside the truncation; when a
    separating system is supplied, its full degree requirement is enforced
    instead.
    """
    g = fam.graph
    F = sorted(set(F), key=Path.sort_key)
    if system is not None:
        needed = system.required_cap
    else:
        needed = fam._closure.get(tuple(F))
        if needed is None:
            needed = fam._closure[tuple(F)] = join_degrees(
                (w.degree for w in _closure(g, F)), g.rank)
    if fam.cap is not None and not needed <= fam.cap:
        raise CapTooSmall(
            f"cap {tuple(fam.cap)} cannot hold the closure degree {tuple(needed)}")

    diag = {mu: table.get((mu, mu), 0) for mu in F}
    lhs = diagonal_norm(fam, diag)
    element = FormalElement(g, {(mu, nu): table[(mu, nu)]
                                for mu in F for nu in F if table.get((mu, nu), 0)})
    norm = operator_norm(fam.evaluate(element))
    detail = {"lhs": lhs, "rhs": norm.pop("value"), **norm}
    lower, upper, tol = norm["lower"], norm["upper"], CLAIM1_TOL
    if lhs <= lower + tol:
        return CheckResult("claim1", "pass", detail=detail)
    if lhs > upper + tol:
        return CheckResult("claim1", "fail", witness=f"lhs={lhs!r} upper={upper!r}",
                           detail=detail)
    detail["reason"] = (f"lhs lies inside the {norm['method']} norm bracket "
                        f"[{lower!r}, {upper!r}] widened by tol {tol!r}")
    return CheckResult("claim1", "inconclusive", detail=detail)


def couniversal_norm_check(fock: IsometryFamily, boundary: IsometryFamily,
                           a: FormalElement) -> CheckResult:
    """Boundary evaluation norm stays below the path-space norm.

    Both sides are finite truncations converging from below on different
    spaces, so this is flagged heuristic and carries a generous tolerance.
    The boundary side is compressed to its safe box first: handle bases lose
    entries under adjoints at the rim, which would otherwise spoil
    cancellations and inflate the truncated norm past the true one.
    """
    safe = boundary.safe_columns(a.support_degree())
    m = boundary.evaluate(a)
    box = np.isin(m.rows, safe) & np.isin(m.cols, safe)
    nb = operator_norm(SparseSum(m.basis, m.rows[box], m.cols[box], m.vals[box]))
    nf = operator_norm(fock.evaluate(a))
    b, f, tol = nb.pop("value"), nf.pop("value"), COUNIVERSAL_TOL
    ok = b <= f + tol
    return CheckResult("couniversal-norm", "heuristic-pass" if ok else "heuristic-fail",
                       witness=None if ok else f"boundary={b!r} fock={f!r}",
                       detail={"boundary": b, "fock": f, "tolerance": tol,
                               "boundary_norm": nb, "fock_norm": nf})
