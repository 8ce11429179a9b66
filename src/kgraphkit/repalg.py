"""Finite-dimensional partial-isometry families and their identity checks.

Two concrete families are built per graph: the path-space (Fock) family of
left-concatenation operators on a degree-truncated path basis, and the
boundary family acting on a basis of boundary-path handles.  All 0/1
identities are asserted in exact integer arithmetic on safe basis vectors,
where no truncation artifact can reach; norms are numeric and carry a
proven bracket, so a norm comparison can come out inconclusive but not wrong.

Each generator t_lam is a 0/1 partial injection, held as an int array with
t[j] = i when t e_j = e_i and -1 where t is undefined, a row of the family's
store beside its adjoint; each q_lam, Q piece, phi_lam, CK gap product and
lem3 test is a diagonal 0/1 matrix, held as a boolean mask.  Products of
generators compose arrays, adjoints invert them, q_lam is the adjoint's
domain, products of projections are AND and q_lam - q_w is AND-NOT.  Sums
of injections are compared entry by entry, overlaps counted.  The pair
checks decide whole groups of identities that share a column set by
gathering from the store, and explain only those that fail.
A linear combination sum a t_mu t_nu* is evaluated by IsometryFamily.evaluate
into a SparseSum, its merged (rows, cols, vals) entry arrays, which the norm,
claim1 (‖E(a)‖ included), the exp-square and the co-universality check read.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

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
from .alignment import enumerate_fe, extends, is_exhaustive, mce, mce_table, vee
from .aperiodicity import separate_family
from .boundary import (
    BoundaryPathHandle,
    aperiodicity_window_check,
    extend,
    shift,
)


class BooleanRelationFailure(KGraphError):
    pass


class SeparationSearchExhausted(KGraphError):
    """Raised when no separating data was found within the depth budget.

    The graph may still be aperiodic; callers must surface this as an
    inconclusive outcome, never skip it.
    """

    def __init__(self, depth, detail: str):
        super().__init__(f"{detail} (depth {tuple(depth)})")


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


def gamma(k: int) -> float:
    """γ_k = k·u/(1 - k·u), the relative error bound of k roundings (Higham)."""
    u = 2.0 ** -53  # the unit roundoff of float64
    return k * u / (1 - k * u)


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
    invariant subspace (β_k = 0); MAX_LANCZOS_STEPS steps without that are
    refused.
    Pass 2 repeats the recurrence with the stored coefficients, so it
    rebuilds the same Lanczos vectors, and sums the Ritz vector y.  No basis
    is stored and none is reorthogonalised: the bounds hold for any y.
    """
    def bracket(value, lower, upper, method, steps, allowance) -> dict:
        return {"value": value, "method": method, "steps": steps, "lower": lower,
                "upper": upper, "allowance": allowance}

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
            raise KGraphError(f"Lanczos residual did not settle in {k} steps")
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


def _rows(term: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """A term read on cols as the row it hits at each column, -1 for none: a
    map's value is its row, a mask's row is the column itself."""
    return np.where(term, cols, -1) if term.dtype == bool else term


def first_difference_on(basis: Basis, lhs: np.ndarray, rhs: Sequence[np.ndarray],
                        cols: np.ndarray):
    """First (row, col), in (row, col) order, where a partial injection or mask
    and a sum of them, all of one kind, differ on the given columns, with both
    values; or None.  Each is already read on cols: entry k is column cols[k].
    Maps agree where the top row rhs hits (-1 for none) is lhs's row and the
    hits number lhs's defined entries; masks where their int sum is lhs."""
    if len(rhs) < 2:
        same = np.array_equal(lhs, rhs[0]) if rhs else _rows(lhs, cols).max(initial=-1) < 0
    elif lhs.dtype == bool:
        same = np.array_equal(np.sum(rhs, axis=0), lhs)
    else:
        hits = np.stack(rhs)
        same = (np.array_equal(hits.max(axis=0), lhs)
                and np.count_nonzero(hits >= 0) == np.count_nonzero(lhs >= 0))
    if same:
        return None
    a, b = (Counter((r, c) for t in side for r, c in zip(_rows(t, cols).tolist(), cols.tolist())
                    if r >= 0) for side in ([lhs], rhs))
    i, j = min(k for k in a.keys() | b.keys() if a[k] != b[k])
    return (basis.labels[i], basis.labels[j], a[(i, j)], b[(i, j)])


def _first_overlap(masks: dict, cols: np.ndarray) -> Optional[tuple]:
    """The first two keys whose masks share the first column, of cols, that
    more than one mask covers; None when the masks are orthogonal there."""
    count = sum((m[cols] for m in masks.values()), np.zeros(len(cols), dtype=np.intp))
    over = cols[count > 1]
    return tuple(k for k, m in masks.items() if m[over[0]])[:2] if len(over) else None


def _without(fam: IsometryFamily, mask: np.ndarray, paths: Sequence[Path]) -> np.ndarray:
    """mask AND-NOT q_w for each w in paths: a Q piece or a CK gap product."""
    for w in paths:
        mask = mask & (fam.adjoint(w) < 0)
    return mask


def _by_range(paths: Iterable[Path]) -> dict[str, list[Path]]:
    """The paths grouped by range vertex, each group in the given order."""
    at: dict[str, list[Path]] = {}
    for p in paths:
        at.setdefault(p.range_vertex, []).append(p)
    return at


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


# -- isometry families --------------------------------------------------------


class IsometryFamily:
    """Indexed family λ -> 0/1 partial injection on a named basis.

    FockFamily: basis vectors are the paths of degree <= cap, acted on by
    left concatenation truncated at the cap.  BoundaryFamily: basis vectors
    are boundary-path handles, acted on by extension with windowed identity.
    Relations are only asserted on safe columns, where every operator word
    within the stated budget acts without hitting the truncation rim; a
    boundary family reads them from its tail ids and generator arrays.
    """

    cap: Optional[Degree] = None  # a truncated basis's cap, which bounds every generator
    _ranges: np.ndarray  # the range vertex of each basis vector, set by each subclass

    def __init__(self, graph: KGraph, basis: Basis):
        self.graph = graph
        self.basis = basis
        # t_lam and t_lam* (key (lam, whether the adjoint)), each built once,
        # as rows of one array: a -1 column, then the map, so that a row read
        # at an undefined entry gives -1 (_read).  generator and adjoint hand
        # out views of the rows; bulk checks read the array itself
        self._store = np.empty((0, len(basis) + 1), dtype=np.intp)
        self._rows: dict[tuple[Path, bool], int] = {}
        self._views: dict[tuple[Path, bool], np.ndarray] = {}
        self._safe: dict[tuple, np.ndarray] = {}

    # subclass hooks: (domain, image) indices of t_e for an edge e, and safe columns
    def _edge_generator(self, e: Path) -> tuple[Sequence[int], Sequence[int]]:
        raise NotImplementedError

    def _safe_columns(self, budget: Degree) -> Sequence[int]:
        raise NotImplementedError

    def _view(self, i: int) -> np.ndarray:
        """Row i of the store past its -1 column, read-only."""
        view = self._store[i, 1:]
        view.flags.writeable = False
        return view

    def _reserve(self, count: int) -> None:
        """Room for count more rows.  A full store grows to at least twice its
        rows, copying them once, and every view is taken again."""
        used = len(self._rows)
        if used + count > len(self._store):
            store = np.empty((max(used + count, 2 * used), self._store.shape[1]), dtype=np.intp)
            store[:used] = self._store[:used]
            self._store = store
            self._views = {key: self._view(i) for key, i in self._rows.items()}

    def _stored(self, key: tuple[Path, bool], build) -> np.ndarray:
        """The view of key's row, build() stored there once."""
        got = self._views.get(key)
        if got is None:
            t = build()
            self._reserve(1)
            i = self._rows[key] = len(self._rows)
            self._store[i, 0] = -1
            self._store[i, 1:] = t
            got = self._views[key] = self._view(i)
        return got

    def generator(self, lam: Path) -> np.ndarray:
        """t_lam as a read-only index array j -> i, -1 where undefined.

        t_v is the identity on the basis vectors with range v, t_e is the
        subclass hook's, and every longer t_lam composes the edge generators
        along lam's word: t_lam = t_e1 ⋯ t_en."""
        def build():
            if self.cap is not None and not lam.degree <= self.cap:
                raise KGraphError(f"generator degree {tuple(lam.degree)} "
                                  f"exceeds basis cap {tuple(self.cap)}")
            if lam.is_vertex():
                return np.where(self._ranges == lam.range_vertex, np.arange(len(self.basis)), -1)
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
        return self._stored((lam, False), build)

    def adjoint(self, lam: Path) -> np.ndarray:
        """t_lam* as a read-only index array: the inverse map of t_lam."""
        return self._stored((lam, True), lambda: inverse_map(self.generator(lam)))

    def q(self, lam: Path) -> np.ndarray:
        """q_lam = t_lam t_lam* as a mask: the domain of t_lam*."""
        return self.adjoint(lam) >= 0

    def rows(self, paths: Sequence[Path]) -> tuple[list[int], list[int]]:
        """The store rows of t_lam and of t_lam* for each lam in paths; the
        missing ones are built in order, after room is made for all at once."""
        self._reserve(sum(key not in self._rows
                          for lam in paths for key in ((lam, False), (lam, True))))
        for lam in paths:
            self.adjoint(lam)
        return [self._rows[lam, False] for lam in paths], [self._rows[lam, True] for lam in paths]

    def require_cap(self, degree: Degree, what: str) -> None:
        """Refuse a degree that a truncated basis's cap cannot hold; what
        names whose degree it is."""
        if self.cap is not None and not degree <= self.cap:
            raise KGraphError(f"cap {tuple(self.cap)} cannot hold {what} degree {tuple(degree)}")

    def safe_columns(self, budget) -> np.ndarray:
        """Sorted indices of the basis vectors safe at the budget."""
        budget = Degree(budget)
        got = self._safe.get(budget)
        if got is None:
            got = self._safe[budget] = np.array(self._safe_columns(budget), dtype=np.intp)
            got.flags.writeable = False
        return got

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


def _lowest_color(n: tuple) -> Optional[int]:
    """The 0-based index of the first nonzero coordinate of n; None for zero."""
    return next((i for i, x in enumerate(n) if x), None)


def _step(n: tuple, i: int, by: int) -> tuple:
    """n with coordinate i moved by `by`, as a plain tuple."""
    return n[:i] + (n[i] + by,) + n[i + 1:]


class FockFamily(IsometryFamily):
    """Left concatenation on the paths of degree <= cap, truncated at the cap.

    The basis is laid out in blocks (n, v), the paths of degree n with range
    v, in (degree, range vertex, word) order.  By unique factorization a path
    of nonzero degree n is its first edge f, of the lowest color c of n,
    followed by a path of degree n - e_c from s(f); so block (n, v) is, for
    each color-c edge f at v in name order, f followed by the whole block
    (n - e_c, s(f)).  Labels, range vertices and degrees are read off the
    blocks, and each t_e is offset arithmetic between blocks (_local), so no
    Path is built per basis vector.
    """

    def __init__(self, graph: KGraph, cap: Degree):
        degrees = [tuple(n) for n in degrees_up_to(cap)]
        blocks: dict[tuple, tuple[int, int]] = {}  # (n, v) -> (start, size) in the basis
        heads: dict[tuple, dict[str, int]] = {}  # (n, v) -> first edge f -> start of f's part
        labels: list[str] = []
        for n in degrees:
            c = _lowest_color(n)
            tail = None if c is None else _step(n, c, -1)
            for v in graph.vertices:
                start = len(labels)
                if c is None:
                    labels.append(v)
                else:
                    parts = heads[n, v] = {}
                    for f in graph.edges_at(v, c + 1):
                        parts[f] = len(labels) - start
                        t0, size = blocks[tail, graph.edges[f].source_vertex]
                        if any(tail):
                            labels += [f"{f}.{t}" for t in labels[t0:t0 + size]]
                        else:
                            labels.append(f)
                blocks[n, v] = (start, len(labels) - start)
        super().__init__(graph, Basis(labels))
        self.cap = cap
        self._lattice = degrees
        self._blocks = blocks
        self._heads = heads
        self._locals: dict[tuple, np.ndarray] = {}  # (edge, n) -> _local's offsets
        sizes = [size for _, size in blocks.values()]
        self._ranges = np.repeat(np.array([v for _, v in blocks]), sizes)
        self._degrees = np.repeat(np.array([n for n, _ in blocks], dtype=np.intp), sizes, axis=0)

    def _local(self, name: str, n: tuple) -> np.ndarray:
        """t_e, e the edge called name, on block (n, s(e)): for each path of
        the block in order, the offset of its image within block
        (n + e_c(e), r(e)).  Built once per (edge, degree)."""
        got = self._locals.get((name, n))
        if got is None:
            g = self.graph
            e = g.edges[name]
            i = e.color - 1
            heads = self._heads[_step(n, i, 1), e.range_vertex]
            c = _lowest_color(n)
            if c is None or i <= c:
                # e·β is color-sorted as it stands: e's part of the image block
                got = heads[name] + np.arange(self._blocks[n, e.source_vertex][1])
            else:
                # β = f·β′ with f of color c, and e·f = f′·e′ by a square: f's
                # part goes to f′'s part, moved within it by t_e′ on β′
                tail = _step(n, c, -1)
                parts = [np.empty(0, dtype=np.intp)]
                for f in g.edges_at(e.source_vertex, c + 1):
                    f2, e2 = g._bottom_to_top[name, f]
                    parts.append(heads[f2] + self._local(e2, tail))
                got = np.concatenate(parts)
            self._locals[name, n] = got
        return got

    def _edge_generator(self, e: Path) -> tuple[np.ndarray, np.ndarray]:
        """t_e sends block (n, s(e)) into block (n + e_c(e), r(e)), for each n
        with n + e_c(e) <= cap."""
        (name,) = e.word
        edge = self.graph.edges[name]
        i = edge.color - 1
        dom, img = [], []
        for n in self._lattice:
            start, size = self._blocks[n, edge.source_vertex]
            if size and n[i] < self.cap[i]:
                dom.append(np.arange(start, start + size))
                img.append(self._blocks[_step(n, i, 1), edge.range_vertex][0]
                           + self._local(name, n))
        return np.concatenate(dom), np.concatenate(img)

    def _safe_columns(self, budget: Degree) -> np.ndarray:
        """The basis paths beta with d(beta) <= cap - budget."""
        if not budget <= self.cap:
            raise KGraphError(
                f"budget {tuple(budget)} exceeds basis cap {tuple(self.cap)}; "
                "the safe subspace is empty")
        return np.flatnonzero(np.all(self._degrees <= np.array(self.cap - budget), axis=1))


class BoundaryFamily(IsometryFamily):
    def __init__(self, graph: KGraph, handles: Sequence[BoundaryPathHandle],
                 window: Degree):
        basis = Basis([f"x{i:03d}" for i in range(len(handles))])
        super().__init__(graph, basis)
        self._ranges = np.array([x.range_vertex for x in handles])
        self.window = window
        self.handles = tuple(handles)
        # fingerprint -> basis index, or tail_id's id
        self._fp_index = {x.fingerprint(window): i for i, x in enumerate(self.handles)}
        # per-handle facts of the diagonal-formula checks, each built once
        self.check_labels = [f"{label}({x.describe()})"
                             for label, x in zip(basis.labels, self.handles)]
        self._starts: dict[Path, np.ndarray] = {}  # lam -> mask of x(0, d(lam)) = lam
        self._tails: dict[tuple, int] = {}  # (j, d) -> id of σ^d(x_j)'s fingerprint

    def handle_index(self, x: BoundaryPathHandle) -> Optional[int]:
        i = self._fp_index.get(x.fingerprint(self.window), len(self.basis))
        return i if i < len(self.basis) else None

    def starts_with(self, lam: Path) -> np.ndarray:
        """The mask of the handles x with x(0, d(lam)) = lam, built once per path."""
        got = self._starts.get(lam)
        if got is None:
            zero, d = Degree.zero(self.graph.rank), lam.degree
            got = self._starts[lam] = np.array(
                [d <= x.degree and x.window(zero, d) == lam for x in self.handles], dtype=bool)
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
        one windowed image would make t_e no partial isometry, so they are
        refused."""
        source: dict[int, int] = {}  # image -> domain
        for j in np.flatnonzero(self._ranges == e.source_vertex).tolist():
            x = self.handles[j]
            i = self.handle_index(extend(e, x))
            if i is None:
                continue
            if i in source:
                raise KGraphError(
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
        ok = ok.tolist()
        safe = [j for j, x in enumerate(self.handles)
                if all(i < n and ok[i] for i in (self.tail_id(j, m) for m in
                                                 degrees_up_to(budget.meet(x.degree))))]
        if not safe:
            raise KGraphError(
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
    indistinguishable at that width are refused.

    Each distinct shift σ^m(x), m <= gen_cap, is extended by every lam <=
    gen_cap once: the fingerprint of lam·y depends only on y's.  A shift equal
    only to an earlier extension, not to an extended shift, is extended.
    """
    window = Degree(window)
    gen_cap = Degree(gen_cap)
    seeds = list(seeds)
    if not seeds:
        raise KGraphError("no boundary-path handles supplied")

    screen = gen_cap + gen_cap
    kept = [x for x in seeds
            if aperiodicity_window_check(x, screen.meet(x.degree), window) is None]
    if not kept:
        raise KGraphError(
            "every seed failed the windowed aperiodicity screen; "
            "the aperiodic boundary-path space is empty at this resolution")

    fps = {}
    for x in kept:
        fp = x.fingerprint(window)
        if fp in fps:
            raise KGraphError(
                f"seeds {fps[fp].name} and {x.name} agree on window {tuple(window)}")
        fps[fp] = x

    first: dict[tuple, BoundaryPathHandle] = {}  # fingerprint -> first handle with it
    expanded = set()  # fingerprints of the shifts extended so far
    exts = [lam for lam in paths_up_to_degree(g, gen_cap) if not lam.is_vertex()]
    for x in kept:
        for m in degrees_up_to(gen_cap.meet(x.degree)):
            base = shift(x, m)
            fp = base.fingerprint(window)
            first.setdefault(fp, base)
            if fp in expanded:
                continue
            expanded.add(fp)
            for y in (extend(lam, base) for lam in exts if lam.source_vertex == base.range_vertex):
                first.setdefault(y.fingerprint(window), y)

    # a fingerprint is (degree, range vertex, head word): the basis order
    return BoundaryFamily(g, [first[fp] for fp in sorted(first)], window)


# -- deciding identities in bulk ----------------------------------------------


GATHER_ENTRIES = 1 << 15  # store entries one block of checks reads at most


def _columns(fam: IsometryFamily, budget: Degree) -> np.ndarray:
    """The columns TCK2, TCK3, the product rule, the Q reconstruction and the
    CK gaps are decided on, from the identity's budget: the safe columns."""
    return fam.safe_columns(budget)


def _read(store: np.ndarray, rows: np.ndarray, at: np.ndarray) -> np.ndarray:
    """Row rows[k] of the store read at at[k], -1 where at is -1, by one take
    from the flat store.  Every index is in range, so mode "clip" changes
    none and lets the take write over its own index array."""
    index = rows[:, None] * store.shape[1] + 1 + at
    return store.reshape(-1).take(index, out=index, mode="clip")


def _holds(lhs: np.ndarray, rhs: Sequence[np.ndarray]) -> np.ndarray:
    """first_difference_on's agreement test for many checks at once: row k of
    lhs and of each rhs term is check k's side read on its columns."""
    if not rhs:
        return ~(lhs if lhs.dtype == bool else lhs >= 0).any(axis=1)
    if len(rhs) == 1:
        return (lhs == rhs[0]).all(axis=1)
    if lhs.dtype == bool:
        return (np.sum(rhs, axis=0) == lhs).all(axis=1)
    hits = np.stack(rhs)
    return ((hits.max(axis=0) == lhs).all(axis=1)
            & (np.count_nonzero(hits >= 0, axis=(0, 2)) == np.count_nonzero(lhs >= 0, axis=1)))


def _failing(fam: IsometryFamily, groups: dict, read) -> Iterator[tuple]:
    """Decide the checks of each group at once; yield (position, lhs, rhs,
    cols) for each that fails, its sides read on its columns as
    first_difference_on takes them.  groups maps (budget, ...) to checks of
    one width that share the budget, so one column set (_columns), each a
    tuple (position, store rows...); read(store, rows, cols) gives lhs and
    the rhs terms of a block of them as (checks, columns) arrays (_read)."""
    for key, group in groups.items():
        cols = _columns(fam, key[0])
        group = np.array(group, dtype=np.intp)
        step = max(1, GATHER_ENTRIES // max(1, len(cols) * (group.shape[1] - 1)))
        for block in (group[i:i + step] for i in range(0, len(group), step)):
            lhs, rhs = read(fam._store, block[:, 1:], cols)
            for k in np.flatnonzero(~_holds(lhs, rhs)).tolist():
                yield int(block[k, 0]), lhs[k], [t[k] for t in rhs], cols


def _products(store: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> list[np.ndarray]:
    """t_a t_b read on cols for each pair (a, b) of store row columns."""
    return [_read(store, rows[:, j], _read(store, rows[:, j + 1], cols))
            for j in range(0, rows.shape[1], 2)]


def _masks(store: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> list[np.ndarray]:
    """q_lam read on cols, the domain of t_lam*, for each column of adjoint rows."""
    return [_read(store, rows[:, k], cols) >= 0 for k in range(rows.shape[1])]


_word = operator.attrgetter("range_vertex", "word")  # a path's key within its graph


def _pairs(fam: IsometryFamily, cap: Degree) -> tuple:
    """The paths below the cap; each path's position by (range vertex, word);
    each range vertex's positions; each position's store rows of t_lam and
    t_lam*; and MCE(μ_i, μ_j) as (λ, α, β) positions by position pair (i, j).
    The rows are built range by range, so the first path refused is the one
    the pair loops would meet first."""
    g = fam.graph
    paths = paths_up_to_degree(g, cap)
    at = _by_range(paths)
    fam.rows([p for ps in at.values() for p in ps])
    index = {_word(p): i for i, p in enumerate(paths)}
    mce = {(index[_word(mu)], index[_word(nu)]):
           [(index[_word(lam)], index[_word(a)], index[_word(b)]) for lam, a, b in members]
           for (mu, nu), members in mce_table(g, cap).items()}
    at = {v: [index[_word(p)] for p in ps] for v, ps in at.items()}
    return (paths, index, at, *fam.rows(paths), mce)


# -- TCK / CK verification ----------------------------------------------------


def verify_tck(fam: IsometryFamily, cap) -> list[CheckResult]:
    """Exact checks of the three defining relations.  TCK2 t_lam t_mu =
    t_{lam mu}, and TCK3 t_mu* t_nu = sum of t_alpha t_beta* over (alpha,
    beta) in Λ^min(mu, nu), read from the graph's mce_table, are decided in
    bulk (_failing), grouped by column set, d(lam) + d(mu) or d(mu) ∨ d(nu),
    and number of terms; only a failing pair calls first_difference_on."""
    g = fam.graph
    cap = Degree(cap)
    paths, index, at, gen, adj, mce = _pairs(fam, cap)
    checks = []

    t = fam.generator
    t_star = fam.adjoint

    verts = [g.vertex_path(v) for v in g.vertices]
    for v in verts:
        tv = t(v)  # t_v t_v = t_v exactly when t_v fixes its image
        img = tv[tv >= 0]
        ok = np.array_equal(tv, t_star(v)) and np.array_equal(tv[img], img)
        checks.append(CheckResult(f"TCK1:{v.label()} projection",
                                  "pass" if ok else "fail"))
    for v, w in itertools.combinations(verts, 2):
        tv, tw = t(v), t(w)
        zero = not np.any(tv[tw[tw >= 0]] >= 0)  # t_v read at t_w's image only
        checks.append(CheckResult(f"TCK1:{v.label()}·{w.label()} orthogonal",
                                  "pass" if zero else "fail"))

    labels = [lam.label() for lam in paths]
    degree = [lam.degree for lam in paths]
    room = functools.cache(lambda d, e: d + e if d + e <= cap else None)
    join = functools.cache(Degree.join)
    ids: list[str] = []
    tck2: dict = defaultdict(list)  # (budget, 1) -> (position, t_lam, t_mu, t_{lam mu})
    for i, lam in enumerate(paths):
        for j in at[lam.source_vertex]:
            budget = room(degree[i], degree[j])
            if budget is not None:
                tck2[budget, 1].append((len(ids), gen[i], gen[j],
                                        gen[index[_word(compose(lam, paths[j]))]]))
                ids.append(f"TCK2:{labels[i]}·{labels[j]}")
    terms = {pair: tuple(r for _, a, b in members for r in (gen[a], adj[b]))
             for pair, members in mce.items()}
    tck3: dict = defaultdict(list)  # (budget, k) -> (position, t_mu*, t_nu, t_alpha, t_beta*...)
    for i, mu in enumerate(paths):
        for j in at[mu.range_vertex]:
            rhs = terms.get((i, j), ())
            tck3[join(degree[i], degree[j]), len(rhs)].append((len(ids), adj[i], gen[j]) + rhs)
            ids.append(f"TCK3:{labels[i]}*{labels[j]}")

    def tck2_sides(store, rows, cols):  # t_lam t_mu, and t_{lam mu}
        return _products(store, rows[:, :2], cols)[0], [_read(store, rows[:, 2], cols)]

    def tck3_sides(store, rows, cols):  # t_mu* t_nu, and each t_alpha t_beta*
        return _products(store, rows[:, :2], cols)[0], _products(store, rows[:, 2:], cols)

    witness = {pos: str(first_difference_on(fam.basis, lhs, rhs, cols))
               for pos, lhs, rhs, cols in itertools.chain(_failing(fam, tck2, tck2_sides),
                                                          _failing(fam, tck3, tck3_sides))}
    checks += [CheckResult(cid, "fail", witness=witness[k]) if k in witness
               else CheckResult(cid, "pass") for k, cid in enumerate(ids)]
    return checks


def verify_ck(fam: IsometryFamily, cap) -> list[CheckResult]:
    """Gap-projection products over every minimal FE set below the cap,
    decided in bulk (_failing), grouped by column set, the join of the set's
    degrees, and size; a failure names the first column the product hits.
    A truncated basis's cap must hold the FE sets' degree, checked first."""
    g = fam.graph
    cap = Degree(cap)
    fe = {v: enumerate_fe(g, v, cap) for v in g.vertices}
    fam.require_cap(join_degrees((lam.degree for sets in fe.values() for E in sets for lam in E),
                                 g.rank), "the FE sets'")
    ids: list[str] = []
    groups: dict = defaultdict(list)  # (budget, |E|) -> (position, t_v, t_lam* for lam in E)
    for v in g.vertices:
        # t_v times each gap (t_v - q_lam) is diagonal once t_v is: the mask of
        # t_v AND-NOT every q_lam
        tv = fam.generator(g.vertex_path(v))
        if np.any((tv >= 0) & (tv != np.arange(len(tv)))):
            raise BooleanRelationFailure(f"t_{v} is not a diagonal projection")
        (row,), _ = fam.rows([g.vertex_path(v)])
        for E in fe[v]:
            groups[join_degrees((lam.degree for lam in E), g.rank), len(E)].append(
                (len(ids), row, *fam.rows(E)[1]))
            ids.append(f"CK:{v}:" + "{" + ",".join(lam.label() for lam in E) + "}")

    def gaps(store, rows, cols):
        q = _masks(store, rows, cols)
        return q[0] & ~np.logical_or.reduce(q[1:]), []

    witness = {pos: fam.basis.labels[cols[np.argmax(hit)]]
               for pos, hit, _, cols in _failing(fam, groups, gaps)}
    return [CheckResult(cid, "fail", witness=witness[k]) if k in witness
            else CheckResult(cid, "pass") for k, cid in enumerate(ids)]


# -- boolean representations and decompositions -------------------------------


def boolean_rep(fam: IsometryFamily, cap) -> IsometryFamily:
    """Check that the final projections q_lam of the family form a boolean
    representation, and return the family.

    The product rule q_mu q_nu = sum over MCE(mu, nu) of q_gamma is checked
    exactly on the columns of d(mu) ∨ d(nu) for the pairs below the cap with
    a common range and the pairs of vertices, decided in bulk (_failing),
    grouped by column set and MCE size.  That covers r(mu) != r(nu), where
    MCE is empty: on the safe columns of d(mu) v d(nu), within those of
    d(mu), the pair (r(mu), mu) gives q_mu <= q_r(mu), and the vertex pair
    q_r(mu) q_r(nu) = 0.  Each MCE is read from the graph's mce_table, which
    verify_tck shares; the first failing pair is named with its first
    difference.
    """
    g = fam.graph
    paths, index, at, _, adj, mce = _pairs(fam, Degree(cap))
    join = functools.cache(Degree.join)
    pairs = [(i, j) for i, mu in enumerate(paths) for j in at[mu.range_vertex] if i <= j]
    pairs += itertools.combinations([index[v, ()] for v in g.vertices], 2)
    groups: dict = defaultdict(list)  # (budget, k) -> (position, t_mu*, t_nu*, t_gamma*...)
    for pos, (i, j) in enumerate(pairs):
        rhs = tuple(adj[lam] for lam, _, _ in mce.get((i, j), ()))
        groups[join(paths[i].degree, paths[j].degree), len(rhs)].append(
            (pos, adj[i], adj[j]) + rhs)

    def product(store, rows, cols):
        q = _masks(store, rows, cols)
        return q[0] & q[1], q[2:]

    failed = min(_failing(fam, groups, product), key=lambda f: f[0], default=None)
    if failed is not None:
        pos, lhs, rhs, cols = failed
        mu, nu = (paths[k] for k in pairs[pos])
        raise BooleanRelationFailure(
            f"q_{mu.label()} q_{nu.label()} != sum over MCE; "
            f"first difference {first_difference_on(fam.basis, lhs, rhs, cols)}")
    return fam


def _extensions(pool: Sequence[Path]) -> dict:
    """lam -> the members lam·alpha of the pool with d(alpha) nonzero, for each
    lam in the pool, each list in pool order.  When the pool is every path of
    degree at most the join D of its degrees, as rep-verify's F is, they are
    composed: lam·alpha for each alpha from s(lam) of degree at most D -
    d(lam).  Otherwise the pool is grouped by range vertex once, so only
    members with a common range reach extends."""
    if not pool:
        return {}
    g = pool[0].graph
    top = join_degrees((lam.degree for lam in pool), g.rank)
    count = 0  # the paths of degree at most top, counted until they outnumber the pool
    for n in degrees_up_to(top):
        count += len(paths_of_degree(g, n))
        if count > len(pool):
            at = _by_range(pool)
            return {lam: [w for w in at[lam.range_vertex] if w != lam and extends(w, lam)]
                    for lam in pool}
    place = {lam: i for i, lam in enumerate(pool)}
    return {lam: sorted((compose(lam, alpha) for alpha in paths_up_to_degree(
                g, top - lam.degree, range_vertex=lam.source_vertex) if alpha.word),
                key=place.__getitem__) for lam in pool}


def _pool(g: KGraph, F: Sequence[Path]) -> list[Path]:
    """The pool of Q pieces: F closed under MCE and sources, vee F and the
    source vertex of each member.  The vertices keep it MCE-closed, as
    MCE(lam, v) is {lam} when r(lam) = v and empty otherwise."""
    closed = vee(g, F)
    return sorted({*closed, *(g.vertex_path(w.source_vertex) for w in closed)}, key=Path.sort_key)


def _lem3_witness(g: KGraph, lam: Path, ext: dict) -> tuple[list[Path], Optional[Path]]:
    """λ's extension tails B = {α : λα in ext[λ]}, ext the _extensions of F's
    pool or closure, and Lemma 3's witness: a path from s(λ) meeting no member
    of B (the vertex when B is empty), or None when B is exhaustive."""
    B = [segment(w, lam.degree, w.degree) for w in ext[lam]]
    if not B:
        return B, g.vertex_path(lam.source_vertex)
    return B, is_exhaustive(g, lam.source_vertex, B).witness


class QPieces(dict):
    """q_decomposition's pieces, lam -> Q_lam as a mask in pool order, with
    the pool's extension table (_extensions), which lem3_check reads."""

    extensions: dict


def q_decomposition(fam: IsometryFamily, F: Sequence[Path]) -> QPieces:
    """Mutually orthogonal pieces Q_lam refining the projections over the pool
    of F (_pool), in pool order.

    Q_lam multiplies q_lam by (q_lam - q_lam·alpha) over all proper
    extensions inside the pool; orthogonality and the reconstruction of each
    q_mu as the sum of the Q's over its extensions are asserted exactly, the
    reconstruction in bulk (_failing), grouped by number of pieces.
    """
    g = fam.graph
    pool = _pool(g, F)
    Q = QPieces()
    Q.extensions = ext = _extensions(pool)
    Q.update((lam, _without(fam, fam.q(lam), ext[lam])) for lam in pool)

    budget = join_degrees((w.degree for w in pool), g.rank)
    cols = _columns(fam, budget)
    overlap = _first_overlap(Q, cols)
    if overlap is not None:
        a, b = overlap
        raise BooleanRelationFailure(f"Q_{a.label()} and Q_{b.label()} are not orthogonal")
    place = {lam: i for i, lam in enumerate(pool)}
    pieces = np.array([Q[lam][cols] for lam in pool], dtype=bool).reshape(len(pool), len(cols))
    groups: dict = defaultdict(list)  # (budget, k) -> (position, t_mu*, Q_mu, Q_w for w in ext)
    for i, (mu, row) in enumerate(zip(pool, fam.rows(pool)[1])):
        groups[budget, len(ext[mu])].append((i, row, i, *(place[w] for w in ext[mu])))

    def reconstruction(store, rows, cols):
        return _masks(store, rows[:, :1], cols)[0], list(pieces[rows[:, 1:]].swapaxes(0, 1))

    failed = min(_failing(fam, groups, reconstruction), key=lambda f: f[0], default=None)
    if failed is not None:
        pos, lhs, rhs, cols = failed
        raise BooleanRelationFailure(
            f"q_{pool[pos].label()} is not the sum of its Q pieces; "
            f"first difference {first_difference_on(fam.basis, lhs, rhs, cols)}")
    return Q


def lem3_check(fam: IsometryFamily, Q: QPieces) -> list[CheckResult]:
    """Nonvanishing of Q_alpha, Q q_decomposition's pieces over a pool,
    whenever alpha's extension set in the pool (Q.extensions) fails to be
    exhaustive, witnessed by a projection it dominates.  Where boolean_rep
    passed on the pool, as in rep-verify, q_decomposition's tests cannot
    fail: at a column j safe at the pool's degree, so at each pair's, the
    product rule makes the members w with q_w(j) = 1 the pool's prefixes of
    one lam_j, so Q_lam(j) = 1 iff lam = lam_j."""
    g = fam.graph
    pool = list(Q)
    for lam in pool:
        if not fam.q(lam).any():
            raise BooleanRelationFailure(f"q_{lam.label()} vanishes; hypothesis violated")

    checks = []
    for alpha in pool:
        tau = _lem3_witness(g, alpha, Q.extensions)[1]
        if tau is None:
            checks.append(CheckResult(f"lem3:{alpha.label()}", "pass",
                                      detail={"claim": "none (extension set exhaustive)"}))
            continue
        q_ext = fam.q(compose(alpha, tau))
        ok = q_ext.any() and not np.any(q_ext & ~Q[alpha])
        witness = fam.basis.labels[np.argmax(q_ext)] if ok else None
        checks.append(CheckResult(
            f"lem3:{alpha.label()}", "pass" if ok else "fail", witness=witness,
            detail={"tau": tau.label()}))
    return checks


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


def verify_diagonal_formula(bfam: BoundaryFamily, mu: Path, nu: Path) -> list[CheckResult]:
    """Per-handle diagonal entries of S_mu S_nu*: zero off the diagonal pairs.

    For mu != nu the entry at x vanishes unless the two shifted handles are
    equal, which windowed comparison can only refute; an unresolvable
    comparison is reported as inconclusive, never coerced to a pass.  Each
    handle is decided by masks: the handles that start with mu and with nu,
    and only those compare tail ids.
    """
    prefix = f"diag[{mu.label()},{nu.label()}]"
    n = len(bfam.basis)
    got = (compose_maps(bfam.generator(mu), bfam.adjoint(nu)) == np.arange(n)).astype(int)
    expected = np.zeros(n, dtype=int)
    undecided = np.zeros(n, dtype=bool)
    for j in np.flatnonzero(bfam.starts_with(mu) & bfam.starts_with(nu)).tolist():
        if bfam.tail_id(j, mu.degree) != bfam.tail_id(j, nu.degree):
            continue  # the fingerprint carries the degree and range vertex
        if mu == nu:
            expected[j] = 1
        else:
            undecided[j] = True
    wrong = np.zeros(n, dtype=bool)
    cols = bfam.safe_columns(mu.degree.join(nu.degree))
    wrong[cols] = got[cols] != expected[cols]
    checks = [CheckResult(f"{prefix}@{label}", "pass") for label in bfam.check_labels]
    for j in np.flatnonzero(wrong & ~undecided).tolist():
        label = bfam.check_labels[j]
        checks[j] = CheckResult(f"{prefix}@{label}", "fail",
                                witness=f"{label}: matrix {got[j]} vs window {expected[j]}")
    for j in np.flatnonzero(undecided).tolist():
        label = bfam.check_labels[j]
        checks[j] = CheckResult(f"{prefix}@{label}", "inconclusive", witness=label)
    return checks


# -- separating systems and the norm inequality --------------------------------


def _closure(g: KGraph, F: Sequence[Path]) -> list[Path]:
    """vee(F ∪ F′), where F′ holds the completions λβ′ = μξ and λδ′ = νξ of
    every λ ∈ MCE(μ, ν), μ, ν ∈ F, through each ξ = ββ′ = δδ′ ∈ MCE(β, δ)
    of the tails λ = μβ = νδ.  Each unordered pair with a common range is
    walked once: swapping μ and ν swaps β and δ, and μ = ν adds only μ."""
    out: set[Path] = set(F)
    for mu, nu in itertools.combinations(F, 2):
        if mu.range_vertex != nu.range_vertex:
            continue
        for lam in mce(g, mu, nu):
            beta = segment(lam, mu.degree, lam.degree)
            delta = segment(lam, nu.degree, lam.degree)
            for xi in mce(g, beta, delta):
                out.add(compose(mu, xi))
                out.add(compose(nu, xi))
    return vee(g, out)


def build_separating_system(fam: IsometryFamily, F: Sequence[Path]) -> dict:
    """Mutually orthogonal compressions phi_lam straddling the diagonal, as a
    dict lam -> mask over the pool of F (_pool), in pool order.

    For each lam whose extension set inside the closure fails to be
    exhaustive, a path alpha avoiding that set is grown until every color
    either reaches the closure's maximal degree or dies at a source, and a
    single tau of degree at most M + (1,...,1), M the closure's degree,
    separating all completions is found; phi_lam is the final projection of
    lam·alpha·tau.  Where the extension set is exhaustive,
    phi_lam is the Q piece itself.  Every choice is re-verified before the
    system is returned.
    """
    g = fam.graph
    F = _pool(g, F)
    vee_F_bar = _closure(g, F)
    ext = _extensions(vee_F_bar)
    M = join_degrees((w.degree for w in vee_F_bar), g.rank)
    depth = M + Degree((1,) * g.rank)

    reach: dict = {}  # lam -> lam·alpha, for each lam with a non-exhaustive extension set
    tails: set = set()  # r(d(w), d(r)) for each such r and each w in the closure r meets
    for lam in F:
        B, alpha = _lem3_witness(g, lam, ext)
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
                    depth, f"alpha for {lam.label()} meets its extension set")
        r = reach[lam] = compose(lam, alpha)
        for w in vee_F_bar:
            if mce(g, r, w):  # r meets w, so alpha is long enough only if r extends w
                if not extends(r, w):
                    raise SeparationSearchExhausted(
                        depth, f"alpha for {lam.label()} is not long enough past {w.label()}")
                tails.add(segment(r, w.degree, r.degree))

    G = sorted(tails, key=Path.sort_key)

    taus: dict = {}  # vertex -> tau
    for v in sorted({eps.source_vertex for eps in G}):
        Gv = [eps for eps in G if eps.source_vertex == v]
        tau = separate_family(g, Gv, depth)
        if tau is None:
            raise SeparationSearchExhausted(
                depth, f"no single extension separates the completions at {v}")
        taus[v] = tau

    # phi reads q of the closure and of each witness path lam·alpha·tau
    witness = {lam: compose(r, taus[r.source_vertex]) for lam, r in reach.items()}
    fam.require_cap(join_degrees([M, *(w.degree for w in witness.values())], g.rank),
                    "the separating system's")
    phi = {lam: fam.q(witness[lam]) if lam in witness else _without(fam, fam.q(lam), ext[lam])
           for lam in F}

    # mutual orthogonality and domination by q_lam, on safe columns
    cols = fam.safe_columns(Degree.zero(g.rank))
    overlap = _first_overlap(phi, cols)
    if overlap is not None:
        a, b = overlap
        raise SeparationSearchExhausted(depth, f"phi_{a.label()} and phi_{b.label()} overlap")
    for lam in F:
        if np.any((phi[lam] & ~fam.q(lam))[cols]):
            raise SeparationSearchExhausted(
                depth, f"phi_{lam.label()} is not dominated by q_{lam.label()}")

    return phi


def verify_phi2(fam: IsometryFamily, phi: dict, mu: Path, nu: Path, lam: Path) -> CheckResult:
    """Compression of a spanning element by phi_lam, phi the separating
    system's masks, follows the case split: phi_lam itself when mu = nu
    extends to lam, zero otherwise."""
    phi_lam = phi[lam]
    t_mu, t_nu_star = fam.generator(mu), fam.adjoint(nu)
    cols = fam.safe_columns(mu.degree.join(nu.degree))
    start = _rows(phi_lam[cols], cols)  # phi_lam read on cols
    rows = compose_maps(t_mu, compose_maps(t_nu_star, start))
    rows = np.where((rows >= 0) & phi_lam[rows], rows, -1)
    expected = [start] if mu == nu and extends(lam, mu) else []
    diff = first_difference_on(fam.basis, rows, expected, cols)
    return CheckResult(f"phi2:{lam.label()}|{mu.label()},{nu.label()}",
                       "pass" if diff is None else "fail", witness=diff and str(diff))


def diagonal_norm(fam: IsometryFamily, element: FormalElement) -> float:
    """‖E(a)‖ for a = element, E the compression to the diagonal: E(a)
    evaluates to sum c_lam q_lam, a diagonal matrix, so this is the largest
    modulus of an entry of evaluate(a.diagonal()), 0.0 when it has none.
    Python's abs keeps it bit-equal to the Q-piece sector formula
    (tests/oracles.py); np.abs differs in the last bit on some entries."""
    return max((abs(v) for v in fam.evaluate(element.diagonal()).vals.tolist()), default=0.0)


def diagonal_lower_end(fam: IsometryFamily, element: FormalElement) -> dict:
    """A proven lower end of ‖M‖ from the largest diagonal entry of
    M = fam.evaluate(element): the "column" of that entry j, the "lower" end
    |fl(M_jj)| minus the rounding "allowance", and "method" "diagonal".
    When M has no diagonal entry the end is the trivial one, column None
    and lower and allowance 0.0.

    |M_jj| = |⟨M e_j, e_j⟩| <= ‖M‖, since compressing to the diagonal is
    contractive.  Every generator is a partial injection, so a term
    a t_mu t_nu* adds a to entry (j, j) once if t_mu* e_j = t_nu* e_j != 0
    and not at all otherwise, whatever the family, even where mu != nu.
    evaluate converts each a to complex (u|a|) and bincount adds the real
    and the imaginary parts of entry (j, j) in term order, a recursive sum
    of the T_j terms that reach it (γ_{T_j - 1}), so |fl(M_jj) - M_jj| <=
    γ_{T_j}·Σ_j|a| by Minkowski's inequality on the two parts, Σ_j over
    those terms.  The modulus d = fl(|fl(M_jj)|) is a hypot, within γ_2 of
    the exact one, and s = fsum of their hypots |a| has Σ_j|a| <= (1 +
    γ_4)·s.  So ‖M‖ >= d - γ_2·d - γ_{T_j+4}·s, and two extra roundings
    folded into each γ cover the allowance's own arithmetic.
    """
    m = fam.evaluate(element)
    on = m.rows == m.cols
    if not on.any():
        return {"method": "diagonal", "column": None, "lower": 0.0, "allowance": 0.0}
    moduli = np.abs(m.vals[on])
    k = int(np.argmax(moduli))
    d = float(moduli[k])
    j = m.rows[on][k]
    reach = [abs(a) for (mu, nu), a in element.coeffs.items()
             if fam.adjoint(mu)[j] == fam.adjoint(nu)[j] >= 0]
    allowance = gamma(4) * d + gamma(len(reach) + 6) * math.fsum(reach)
    return {"method": "diagonal", "column": m.basis.labels[j],
            "lower": max(0.0, float(np.nextafter(d - allowance, -np.inf))),
            "allowance": allowance}


def verify_claim1(fam: IsometryFamily, F: Sequence[Path],
                  tables: Iterable[dict]) -> list[CheckResult]:
    """Claim 1, ‖E(a)‖ <= ‖a‖, for the element a of each table on F.

    One result per table.  lhs = ‖E(a)‖ (diagonal_norm) passes when it is at
    most a proven lower end of ‖a‖ plus CLAIM1_TOL.  The first lower end is
    the largest diagonal entry of the evaluated element less its rounding
    allowance (diagonal_lower_end): a pass there has detail lhs, method
    "diagonal", column, lower and allowance, and takes no norm.  Only when
    that end cannot decide does operator_norm bracket the norm by Lanczos:
    lhs passes at most its lower end plus the tolerance, fails only above
    its upper end plus it, and is inconclusive in between, with the reason;
    that detail has lhs, rhs, method, steps, lower, upper and allowance.
    Both sides read only F.  A truncated basis's cap must hold the join D
    of F's degrees, checked once before any table is read: E(a) at a path x
    is E(a) at x(0, d(x) ∧ D), so lhs is ‖E(a)‖ on the whole path space,
    and the truncated M is a compression of a, so a lower end of ‖M‖ is
    one of ‖a‖.
    """
    g = fam.graph
    fam.require_cap(join_degrees((w.degree for w in F), g.rank), "F's")

    tol = CLAIM1_TOL
    checks = []
    for table in tables:
        element = FormalElement(g, {(mu, nu): table[(mu, nu)]
                                    for mu in F for nu in F if table.get((mu, nu), 0)})
        lhs = diagonal_norm(fam, element)
        end = diagonal_lower_end(fam, element)
        if lhs > end["lower"] + tol:  # the diagonal cannot decide
            norm = operator_norm(fam.evaluate(element))
            end = {"rhs": norm.pop("value"), **norm}
        detail = {"lhs": lhs, **end}
        lower, upper = detail["lower"], detail.get("upper")
        if lhs <= lower + tol:
            status, witness = "pass", None
        elif lhs > upper + tol:
            status, witness = "fail", f"lhs={lhs!r} upper={upper!r}"
        else:
            status, witness = "inconclusive", None
            detail["reason"] = (f"lhs lies inside the {detail['method']} norm bracket "
                                f"[{lower!r}, {upper!r}] widened by tol {tol!r}")
        checks.append(CheckResult("claim1", status, witness=witness, detail=detail))
    return checks


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
