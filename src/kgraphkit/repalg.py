"""Finite-dimensional partial-isometry families and their identity checks.

Two concrete families are built per graph: the path-space (Fock) family of
left-concatenation operators on a degree-truncated path basis, and the
boundary family acting on a basis of boundary-path handles.  All 0/1
identities are asserted in exact integer arithmetic on safe basis vectors,
where no truncation artifact can reach; norms are numeric with explicit
tolerances.

Each generator t_lam is a 0/1 partial injection, held as an int array with
t[j] = i when t e_j = e_i and -1 where t is undefined; each q_lam, Q piece,
phi_lam, CK gap product and lem3 test is a diagonal 0/1 matrix, held as a
boolean mask.  Products of generators compose arrays, adjoints invert them,
q_lam is the range mask, products of projections are AND and q_lam - q_w is
AND-NOT.  Sums of injections are compared entry by entry, overlaps counted.
The one way into OperatorMatrix, the sparse complex matrix kept for linear
combinations and norms, is IsometryFamily.evaluate.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

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
    ext_key,
    ext_le,
    ext_meet,
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
        self.index = {lab: i for i, lab in enumerate(self.labels)}
        if len(self.index) != len(self.labels):
            raise KGraphError("basis labels must be unique")

    def __len__(self) -> int:
        return len(self.labels)


class OperatorMatrix:
    """Sparse complex matrix on a shared named basis, for linear combinations
    of generator products; integer inputs stay integers, so exact.
    """

    __slots__ = ("basis", "entries", "_rows")

    def __init__(self, basis: Basis, entries: dict):
        self.basis = basis
        self.entries = {k: v for k, v in entries.items() if v != 0}
        self._rows = None

    @classmethod
    def _trusted(cls, basis: Basis, entries: dict) -> "OperatorMatrix":
        """Wrap entries that hold no zero, skipping the filtering copy."""
        out = cls.__new__(cls)
        out.basis, out.entries, out._rows = basis, entries, None
        return out

    @classmethod
    def zero(cls, basis: Basis) -> "OperatorMatrix":
        return cls(basis, {})

    def _same_basis(self, other: "OperatorMatrix") -> None:
        if self.basis is not other.basis:
            raise KGraphError("operands live on different bases")

    def __add__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        self._same_basis(other)
        out = dict(self.entries)
        for k, v in other.entries.items():
            out[k] = out.get(k, 0) + v
        return OperatorMatrix(self.basis, out)

    def __mul__(self, scalar) -> "OperatorMatrix":
        return OperatorMatrix(self.basis, {k: v * scalar for k, v in self.entries.items()})

    def _row_view(self) -> dict:
        if self._rows is None:
            rows: dict[int, list] = {}
            for (i, j), v in self.entries.items():
                rows.setdefault(i, []).append((j, v))
            self._rows = rows
        return self._rows

    def __matmul__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        self._same_basis(other)
        rows = other._row_view()
        out: dict = {}
        for (i, j), a in self.entries.items():
            for k, b in rows.get(j, ()):
                key = (i, k)
                out[key] = out.get(key, 0) + a * b
        return OperatorMatrix(self.basis, out)

    def adjoint(self) -> "OperatorMatrix":
        return OperatorMatrix._trusted(
            self.basis, {(j, i): v.conjugate() for (i, j), v in self.entries.items()})

    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other) -> bool:
        return (isinstance(other, OperatorMatrix) and self.basis is other.basis
                and self.entries == other.entries)

    def compress(self, indices: Iterable[int]) -> "OperatorMatrix":
        """Two-sided compression onto the given basis vectors."""
        indices = set(indices)
        return OperatorMatrix(
            self.basis, {k: v for k, v in self.entries.items()
                         if k[0] in indices and k[1] in indices})

    def first_difference(self, other: "OperatorMatrix"):
        """Smallest (row, col) where the two matrices disagree, or None."""
        a, b = self.entries, other.entries
        for k in sorted(set(a) | set(b)):
            if a.get(k, 0) != b.get(k, 0):
                return (self.basis.labels[k[0]], self.basis.labels[k[1]],
                        a.get(k, 0), b.get(k, 0))
        return None

    def diagonal_part(self) -> "OperatorMatrix":
        return OperatorMatrix(
            self.basis, {k: v for k, v in self.entries.items() if k[0] == k[1]})

    def to_dense(self) -> np.ndarray:
        n = len(self.basis)
        out = np.zeros((n, n), dtype=complex)
        for (i, j), v in self.entries.items():
            out[i, j] = v
        return out

    def __repr__(self) -> str:
        return f"<OperatorMatrix {len(self.basis)}x{len(self.basis)}, nnz={len(self.entries)}>"


def operator_norm(m: OperatorMatrix, tol: float = 1e-9, dense_threshold: int = 600,
                  max_iter: int = 20_000) -> float:
    """Largest singular value: dense solve below the threshold, else power
    iteration on M*M, as index arrays, from a deterministic start vector."""
    n = len(m.basis)
    if not m.entries:
        return 0.0
    if n <= dense_threshold:
        return float(np.linalg.norm(m.to_dense(), 2))
    gram = m.adjoint() @ m
    nnz = len(gram.entries)
    rows = np.fromiter((i for i, _ in gram.entries), dtype=np.intp, count=nnz)
    cols = np.fromiter((j for _, j in gram.entries), dtype=np.intp, count=nnz)
    vals = np.fromiter(gram.entries.values(), dtype=complex, count=nnz)
    vr, vi = vals.real, vals.imag
    x = np.full(n, 1.0 / np.sqrt(n), dtype=complex)
    last = 0.0
    for _ in range(max_iter):
        # Split real arithmetic, summed per row in entry order: the same
        # roundings as a scalar loop (numpy's complex multiply may fuse).
        xr, xi = x.real[cols], x.imag[cols]
        y = np.empty(n, dtype=complex)
        y.real = np.bincount(rows, vr * xr - vi * xi, minlength=n)
        y.imag = np.bincount(rows, vr * xi + vi * xr, minlength=n)
        norm_y = float(np.linalg.norm(y))
        if norm_y == 0.0:
            return 0.0
        x = y / norm_y
        if abs(norm_y - last) <= tol * max(1.0, norm_y):
            return float(np.sqrt(norm_y))
        last = norm_y
    raise NonConvergence(f"power iteration did not settle in {max_iter} steps")


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

    def add(self, check: CheckResult) -> CheckResult:
        self.checks.append(check)
        return check

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.ok]

    def to_jsonable(self) -> dict:
        return {"title": self.title, "ok": self.ok,
                "checks": [c.to_jsonable() for c in self.checks]}


# -- isometry families --------------------------------------------------------


class IsometryFamily:
    """Indexed family λ -> 0/1 partial injection on a named basis.

    kind "fock": basis vectors are the paths of degree <= cap, acted on by
    left concatenation truncated at the cap.  kind "boundary": basis vectors
    are boundary-path handles, acted on by extension with windowed identity.
    Relations are only asserted on safe columns, where every operator word
    within the stated budget acts without hitting the truncation rim.
    """

    def __init__(self, kind: str, graph: KGraph, basis: Basis):
        self.kind = kind
        self.graph = graph
        self.basis = basis
        self._gens: dict[Path, np.ndarray] = {}  # index arrays j -> i or -1
        self._qs: dict[Path, np.ndarray] = {}  # range masks
        self._safe: dict[tuple, np.ndarray] = {}
        self._closure: dict[tuple, Degree] = {}  # sorted F -> _closure_cap

    # subclass hooks: (domain, image) index lists of t_lam, and safe columns
    def _generator(self, lam: Path) -> tuple[list, list]:
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
        """t_lam as a read-only index array j -> i, -1 where undefined."""
        def build():
            dom, img = self._generator(lam)
            if len(set(img)) != len(img):
                raise KGraphError(f"t_{lam.label()} is not injective")
            t = np.full(len(self.basis), -1, dtype=np.intp)
            t[dom] = img
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

    def evaluate(self, element: "FormalElement") -> OperatorMatrix:
        """Sum of a t_mu t_nu*; each term has entries (t_mu[k], t_nu[k]),
        k ascending, the order of the sparse product t_mu @ t_nu.adjoint()."""
        out = OperatorMatrix.zero(self.basis)
        for (mu, nu), a in element.sorted_items():
            tm, tn = self.generator(mu), self.generator(nu)
            k = (tm >= 0) & (tn >= 0)
            term = dict.fromkeys(zip(tm[k].tolist(), tn[k].tolist()), 1)
            out = out + OperatorMatrix._trusted(self.basis, term) * a
        return out


class FockFamily(IsometryFamily):
    def __init__(self, graph: KGraph, cap: Degree):
        paths = paths_up_to_degree(graph, cap)
        basis = Basis([p.label() for p in paths])
        super().__init__("fock", graph, basis)
        self.cap = cap
        self._paths = paths
        self._path_index = {p: i for i, p in enumerate(paths)}
        self._degrees = np.array([tuple(p.degree) for p in paths], dtype=np.intp)
        self._ranges = np.array([p.range_vertex for p in paths])

    def _within(self, d: Degree) -> np.ndarray:
        """Mask of the basis paths beta with d(beta) <= cap - d."""
        return np.all(self._degrees <= np.array(self.cap - d), axis=1)

    def _generator(self, lam: Path) -> tuple[list, list]:
        if not lam.degree <= self.cap:
            raise CapTooSmall(
                f"generator degree {tuple(lam.degree)} exceeds basis cap {tuple(self.cap)}")
        dom = np.flatnonzero(self._within(lam.degree)
                             & (self._ranges == lam.source_vertex)).tolist()
        return dom, [self._path_index[compose(lam, self._paths[j])] for j in dom]

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
        self.window = window
        self.handles = tuple(handles)
        self._fp_index = fingerprints  # fingerprint -> basis index

    def handle_index(self, x: BoundaryPathHandle) -> Optional[int]:
        return self._fp_index.get(x.fingerprint(self.window))

    def _generator(self, lam: Path) -> tuple[list, list]:
        """Domain and image of t_lam; two handles with one windowed image
        would make t_lam no partial isometry, so they raise WindowCollision."""
        source: dict[int, int] = {}  # image -> domain
        for j, x in enumerate(self.handles):
            if lam.source_vertex != x.range_vertex:
                continue
            i = self.handle_index(extend(lam, x))
            if i is None:
                continue
            if i in source:
                raise WindowCollision(
                    f"t_{lam.label()} sends {self.handles[source[i]].describe()} and "
                    f"{x.describe()} to one handle at window {tuple(self.window)}")
            source[i] = j
        return list(source.values()), list(source)

    def _safe_columns(self, budget: Degree) -> list:
        exts = paths_up_to_degree(self.graph, budget)
        safe = [j for j, x in enumerate(self.handles)
                if all(self.handle_index(y) is not None
                       for y in _neighbourhood(x, budget, exts))]
        if not safe:
            raise CapTooSmall(
                f"no safe basis vectors at budget {tuple(budget)}; "
                "enlarge gen_cap")
        return safe


def _neighbourhood(x: BoundaryPathHandle, bound: Degree, exts: Sequence[Path]):
    """Each shift σ^m(x) with m <= bound, followed by its extensions λσ^m(x)
    by the non-vertex paths λ of exts, in that order."""
    for m in degrees_up_to(ext_meet(x.degree, ext_degree(bound))):
        base = shift(x, m)
        yield base
        for lam in exts:
            if not lam.is_vertex() and lam.source_vertex == base.range_vertex:
                yield extend(lam, base)


def build_fock_family(g: KGraph, cap) -> FockFamily:
    """Left-concatenation family on all paths of degree <= cap."""
    cap = Degree(cap)
    if not Degree.zero(g.rank) <= cap:
        raise CapTooSmall("basis cap must be nonnegative")
    return FockFamily(g, cap)


def build_boundary_family(g: KGraph, seeds: Sequence[BoundaryPathHandle], window,
                          gen_cap) -> BoundaryFamily:
    """Concatenation family on the closure of the seeds under shifts and
    extensions up to gen_cap.

    Seeds failing the windowed shift-distinctness screen, on shifts up to
    2·gen_cap, are dropped, which mirrors the degenerate case of a periodic
    graph supplying no usable basis vectors.  Handle identity inside the
    basis is windowed equality at the given width; two declared seeds
    indistinguishable at that width are a WindowCollision.
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

    handles: list[BoundaryPathHandle] = []
    index: dict = {}

    def admit(h: BoundaryPathHandle) -> None:
        fp = h.fingerprint(window)
        if fp not in index:
            index[fp] = len(handles)
            handles.append(h)

    exts = paths_up_to_degree(g, gen_cap)
    for x in kept:
        for y in _neighbourhood(x, gen_cap, exts):
            admit(y)

    order = sorted(range(len(handles)),
                   key=lambda i: (_ext_sort_key(handles[i].degree),
                                  handles[i].range_vertex,
                                  handles[i].fingerprint(window)[2]))
    handles = [handles[i] for i in order]
    fingerprints = {h.fingerprint(window): i for i, h in enumerate(handles)}
    return BoundaryFamily(g, handles, window, fingerprints)


def _ext_sort_key(deg) -> tuple:
    return tuple((1, 0) if c == float("inf") else (0, int(c)) for c in deg)


def boundary_family_from_graph(g: KGraph) -> BoundaryFamily:
    """Boundary family seeded with the complete finite boundary-path set,
    with window and gen_cap both the maximal path degree."""
    from .boundary import finite_boundary_paths

    md = g.max_path_degree()
    return build_boundary_family(g, finite_boundary_paths(g), md, md)


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


def _require_mce_closed(g: KGraph, F: Sequence[Path]) -> None:
    members = set(F)
    for mu in F:
        for nu in F:
            for gamma in mce(g, mu, nu):
                if gamma not in members:
                    raise NotMceClosed(
                        f"MCE({mu.label()},{nu.label()}) contains {gamma.label()} outside F")


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
    F = sorted(set(F), key=Path.sort_key)
    _require_mce_closed(g, F)
    for lam in F:
        if not fam.q(lam).any():
            raise KGraphError(f"q_{lam.label()} vanishes; hypothesis violated")

    report = VerificationReport("lem3")
    for alpha in F:
        B = [segment(w, alpha.degree, w.degree) for w in _extensions_in(alpha, F)]
        if B:
            verdict = is_exhaustive(g, alpha.source_vertex, B)
            if verdict.exhaustive:
                report.add(CheckResult(f"lem3:{alpha.label()}", "pass",
                                       detail={"claim": "none (extension set exhaustive)"}))
                continue
            tau = verdict.witness
        else:
            tau = g.vertex_path(alpha.source_vertex)
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
            if lam == alpha or extends(alpha, lam):
                total += c
        best = max(best, abs(total))
    return float(best)


# -- formal elements and expectations -----------------------------------------


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


def expectation(fam: IsometryFamily, a: FormalElement
                ) -> tuple[FormalElement, OperatorMatrix]:
    """Diagonal part of a formal element and its evaluation in the family."""
    diag = a.diagonal()
    return diag, fam.evaluate(diag)


def verify_exp_square(boundary: IsometryFamily, a: FormalElement) -> CheckResult:
    """Both routes around the expectation square agree as exact matrices.

    Left: keep the diagonal coefficients formally, then map each projection
    into the boundary family.  Right: evaluate in the boundary family and
    compress to the basis diagonal.
    """
    left = boundary.evaluate(a.diagonal())
    right = boundary.evaluate(a).diagonal_part()
    if left == right:
        return CheckResult("exp-square", "pass")
    return CheckResult("exp-square", "fail",
                       witness=str(left.first_difference(right)))


def verify_diagonal_formula(bfam: BoundaryFamily, mu: Path, nu: Path
                            ) -> VerificationReport:
    """Per-handle diagonal entries of S_mu S_nu*: zero off the diagonal pairs.

    For mu != nu the entry at x vanishes unless the two shifted handles are
    equal, which windowed comparison can only refute; an unresolvable
    comparison is reported as inconclusive, never coerced to a pass.
    """
    report = VerificationReport(f"diag[{mu.label()},{nu.label()}]")
    width = bfam.window
    matrix = compose_maps(bfam.generator(mu), inverse_map(bfam.generator(nu)))
    budget = mu.degree.join(nu.degree)
    safe = set(bfam.safe_columns(budget).tolist())
    for j, x in enumerate(bfam.handles):
        label = f"{bfam.basis.labels[j]}({x.describe()})"
        is_prefix = (ext_le(mu.degree, x.degree)
                     and x.window(Degree.zero(bfam.graph.rank), mu.degree) == mu)
        nu_prefix = (ext_le(nu.degree, x.degree)
                     and x.window(Degree.zero(bfam.graph.rank), nu.degree) == nu)
        if not (is_prefix and nu_prefix):
            expected = 0
        else:
            ya, yb = shift(x, mu.degree), shift(x, nu.degree)
            if ext_key(ya.degree) != ext_key(yb.degree) or ya.range_vertex != yb.range_vertex:
                expected = 0
            elif ya.fingerprint(width) != yb.fingerprint(width):
                expected = 0
            elif mu == nu:
                expected = 1
            else:
                report.add(CheckResult(f"{report.title}@{label}", "inconclusive",
                                       witness=label))
                continue
        got = int(matrix[j] == j)
        if j in safe and got != expected:
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


def _f_prime(g: KGraph, F: Sequence[Path]) -> list[Path]:
    out: set[Path] = set()
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
    return sorted(out, key=Path.sort_key)


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
    F = sorted(set(F), key=Path.sort_key)
    _require_mce_closed(g, F)

    vee_F_bar = vee(g, sorted(set(F) | set(_f_prime(g, F)), key=Path.sort_key))
    M = join_degrees((w.degree for w in vee_F_bar), g.rank)
    if tau_depth is None:
        tau_depth = M + Degree((1,) * g.rank)
    else:
        tau_depth = Degree(tau_depth)

    B_flag: dict = {}
    alpha: dict = {}
    for lam in F:
        B = [segment(w, lam.degree, w.degree) for w in _extensions_in(lam, vee_F_bar)]
        if B:
            verdict = is_exhaustive(g, lam.source_vertex, B)
            B_flag[lam] = verdict.exhaustive
            if verdict.exhaustive:
                continue
            a1 = verdict.witness
        else:
            B_flag[lam] = False
            a1 = g.vertex_path(lam.source_vertex)
        # grow until every deficient color reaches M or hits a source
        word = list(a1.word)
        at = a1.source_vertex
        deg = list(a1.degree)
        while True:
            step = None
            for i in range(g.rank):
                if deg[i] < M[i]:
                    names = g.edges_at(at, i + 1)
                    if names:
                        step = names[0]
                        break
            if step is None:
                break
            word.append(step)
            at = g.edges[step].source_vertex
            deg[g.color(step) - 1] += 1
        full = g.path(word) if word else a1
        alpha[lam] = full
        for mu_b in B:
            if mce(g, mu_b, full):
                raise SeparationSearchExhausted(
                    tau_depth, f"alpha for {lam.label()} meets its extension set")
        reach = compose(lam, full)
        for w in vee_F_bar:
            if mce(g, reach, w) and not extends(reach, w):
                raise SeparationSearchExhausted(
                    tau_depth, f"alpha for {lam.label()} is not long enough past {w.label()}")

    G: set[Path] = set()
    for lam in alpha:
        reach = compose(lam, alpha[lam])
        for w in vee_F_bar:
            if extends(reach, w):
                G.add(segment(reach, w.degree, reach.degree))
    G = sorted(G, key=Path.sort_key)

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
        if B_flag[lam]:
            phi[lam] = _q_piece(fam, lam, vee_F_bar)
            continue
        witness_path = compose(compose(lam, alpha[lam]), tau_v[alpha[lam].source_vertex])
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

    return SeparatingSystem(F, B_flag, tau_v, phi, required)


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


def _closure_cap(g: KGraph, F: list) -> Degree:
    return join_degrees((w.degree for w in vee(g, set(F) | set(_f_prime(g, F)))), g.rank)


def verify_claim1(fam: IsometryFamily, F: Sequence[Path], table: dict,
                  system: Optional[SeparatingSystem] = None,
                  tol: float = 1e-8) -> CheckResult:
    """Diagonal coefficients never beat the full element in norm.

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
            needed = fam._closure[tuple(F)] = _closure_cap(g, F)
    if isinstance(fam, FockFamily) and not needed <= fam.cap:
        raise CapTooSmall(
            f"cap {tuple(fam.cap)} cannot hold the closure degree {tuple(needed)}")

    diag = {mu: table.get((mu, mu), 0) for mu in F}
    lhs = diagonal_norm(fam, diag)
    element = FormalElement(g, {(mu, nu): table[(mu, nu)]
                                for mu in F for nu in F if table.get((mu, nu), 0)})
    rhs = operator_norm(fam.evaluate(element))
    ok = lhs <= rhs + tol
    return CheckResult("claim1", "pass" if ok else "fail",
                       witness=None if ok else f"lhs={lhs!r} rhs={rhs!r}",
                       detail={"lhs": lhs, "rhs": rhs})


def couniversal_norm_check(fock: IsometryFamily, boundary: IsometryFamily,
                           a: FormalElement, tol: float = 0.05) -> CheckResult:
    """Boundary evaluation norm stays below the path-space norm.

    Both sides are finite truncations converging from below on different
    spaces, so this is flagged heuristic and carries a generous tolerance.
    The boundary side is compressed to its safe box first: handle bases lose
    entries under adjoints at the rim, which would otherwise spoil
    cancellations and inflate the truncated norm past the true one.
    """
    safe = boundary.safe_columns(a.support_degree())
    nb = operator_norm(boundary.evaluate(a).compress(safe.tolist()))
    nf = operator_norm(fock.evaluate(a))
    ok = nb <= nf + tol
    return CheckResult("couniversal-norm", "heuristic-pass" if ok else "heuristic-fail",
                       witness=None if ok else f"boundary={nb!r} fock={nf!r}",
                       detail={"boundary": nb, "fock": nf, "tolerance": tol})


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
