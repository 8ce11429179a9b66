"""Boundary paths: exact finite handles and windowed oracles for infinite ones.

A handle represents a degree-indexed morphism x by its window oracle
window(n, m) -> the finite path x(n, m).  Equality of infinite handles is
always windowed equality at an explicit width; shifts and extensions are
implemented window-for-window so the defining equations hold exactly on
every requested window.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Optional, Sequence

from .core import (
    Degree,
    KGraph,
    KGraphError,
    NotComposable,
    Path,
    compose,
    degrees_up_to,
    paths_up_to_degree,
    segment,
)
from .alignment import enumerate_fe

INF = math.inf


class GraphHasCycles(KGraphError):
    pass


class NoFixedPoint(KGraphError):
    pass


class DegreeExceeded(KGraphError):
    pass


class WindowUnavailable(KGraphError):
    """A handle has no data for the requested window."""


# -- extended degrees: coordinates in N ∪ {∞} --------------------------------


def ext_degree(coords) -> tuple:
    out = []
    for c in coords:
        if c == INF:
            out.append(INF)
        else:
            c = int(c)
            if c < 0:
                raise ValueError(f"negative coordinate {c}")
            out.append(c)
    return tuple(out)


def ext_le(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


def ext_add(a, d: Degree) -> tuple:
    return tuple(x + y for x, y in zip(a, d))


def ext_sub(a, d: Degree) -> tuple:
    if not ext_le(d, a):
        raise DegreeExceeded(f"{tuple(d)} exceeds {a}")
    return tuple(x - y if x != INF else INF for x, y in zip(a, d))


def ext_meet(a, b) -> Degree:
    """Coordinatewise minimum, finite whenever one argument is finite."""
    m = tuple(min(x, y) for x, y in zip(a, b))
    if any(c == INF for c in m):
        raise KGraphError("meet of two infinite coordinates is not a finite degree")
    return Degree(m)


def ext_key(a) -> tuple:
    return tuple("inf" if c == INF else int(c) for c in a)


class BoundaryPathHandle:
    """Immutable window oracle for a boundary path.

    Subclasses provide _window(n, m); results are memoized write-once, so
    oracles must be pure.
    """

    def __init__(self, graph: KGraph, degree, range_vertex: str, name: str):
        self.graph = graph
        self.degree = ext_degree(degree)
        self.range_vertex = range_vertex
        self.name = name
        self._memo: dict[tuple, Path] = {}

    def window(self, n, m) -> Path:
        n = Degree(n)
        m = Degree(m)
        if not n <= m:
            raise DegreeExceeded(f"window needs n <= m, got {tuple(n)}, {tuple(m)}")
        if not ext_le(m, self.degree):
            raise DegreeExceeded(f"window {tuple(m)} exceeds degree {self.degree}")
        key = (tuple(n), tuple(m))
        got = self._memo.get(key)
        if got is None:
            got = self._window(n, m)
            self._memo[key] = got
        return got

    def _window(self, n: Degree, m: Degree) -> Path:
        raise NotImplementedError

    def vertex_at(self, n) -> str:
        return self.window(n, n).range_vertex

    def fingerprint(self, width) -> tuple:
        """Identity key at the given window width."""
        w = ext_meet(self.degree, ext_degree(width))
        head = self.window(Degree.zero(self.graph.rank), w)
        return (ext_key(self.degree), self.range_vertex, head.word)

    def describe(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return f"<boundary path {self.name} degree {ext_key(self.degree)}>"


class FinitePathHandle(BoundaryPathHandle):
    """Exact handle wrapping an ordinary finite path."""

    def __init__(self, path: Path):
        super().__init__(path.graph, tuple(path.degree), path.range_vertex,
                         f"x[{path.label()}]")
        self.path = path

    def _window(self, n: Degree, m: Degree) -> Path:
        return segment(self.path, n, m)


class WordStreamHandle(BoundaryPathHandle):
    """Edge-name stream over a single-vertex 1-graph.

    The prefix provider returns at least the requested number of letters;
    substitution fixed points and periodic words are both supplied this way.
    """

    def __init__(self, graph: KGraph, prefix_of: Callable[[int], Sequence[str]], name: str):
        if graph.rank != 1 or len(graph.vertices) != 1:
            raise KGraphError("word streams need a single-vertex 1-graph")
        super().__init__(graph, (INF,), graph.vertices[0], name)
        self._prefix_of = prefix_of

    def _window(self, n: Degree, m: Degree) -> Path:
        letters = self._prefix_of(m[0])
        if len(letters) < m[0]:
            raise WindowUnavailable(
                f"{self.name} has only {len(letters)} letters, window needs {m[0]}")
        v = self.range_vertex
        return Path(self.graph, v, v, tuple(letters[n[0]:m[0]]), m - n)


class ShiftHandle(BoundaryPathHandle):
    def __init__(self, inner: BoundaryPathHandle, by: Degree):
        super().__init__(inner.graph, ext_sub(inner.degree, by),
                         inner.vertex_at(by), f"{inner.name}>>{tuple(by)}")
        self.inner = inner
        self.by = by

    def _window(self, n: Degree, m: Degree) -> Path:
        return self.inner.window(self.by + n, self.by + m)


class ExtensionHandle(BoundaryPathHandle):
    def __init__(self, prefix: Path, inner: BoundaryPathHandle):
        super().__init__(prefix.graph, ext_add(inner.degree, prefix.degree),
                         prefix.range_vertex, f"{prefix.label()}*{inner.name}")
        self.prefix = prefix
        self.inner = inner

    def _window(self, n: Degree, m: Degree) -> Path:
        d_lam = self.prefix.degree
        reach = m.join(d_lam)
        xi = compose(self.prefix, self.inner.window(Degree.zero(len(d_lam)),
                                                    reach - d_lam))
        return segment(xi, n, m)


def shift(x: BoundaryPathHandle, n) -> BoundaryPathHandle:
    """The handle of σ^n(x); windows satisfy σ^n(x)(p, q) = x(n+p, n+q)."""
    n = Degree(n)
    if not ext_le(n, x.degree):
        raise DegreeExceeded(f"shift {tuple(n)} exceeds degree {x.degree}")
    if n == Degree.zero(x.graph.rank):
        return x
    if isinstance(x, ShiftHandle):
        return ShiftHandle(x.inner, x.by + n)
    if isinstance(x, ExtensionHandle):
        # a shift splits cleanly when it stays inside or absorbs the prefix
        if n <= x.prefix.degree:
            rest = segment(x.prefix, n, x.prefix.degree)
            return extend(rest, x.inner) if rest.word else x.inner
        if x.prefix.degree <= n:
            return shift(x.inner, n - x.prefix.degree)
    return ShiftHandle(x, n)


def extend(lam: Path, x: BoundaryPathHandle) -> BoundaryPathHandle:
    """The handle of λx with (λx)(0, d(λ)) = λ and σ^{d(λ)}(λx) = x."""
    if lam.graph is not x.graph:
        raise NotComposable("prefix lives in a different graph")
    if lam.source_vertex != x.range_vertex:
        raise NotComposable(
            f"s({lam.label()}) = {lam.source_vertex} != r(x) = {x.range_vertex}")
    if lam.is_vertex():
        return x
    if isinstance(x, ExtensionHandle):
        return ExtensionHandle(compose(lam, x.prefix), x.inner)
    return ExtensionHandle(lam, x)


# -- suppliers ----------------------------------------------------------------


def finite_boundary_paths(g: KGraph) -> list[BoundaryPathHandle]:
    """The complete boundary-path set of a graph with finitely many paths.

    Every path is screened against the boundary condition: at each inner
    vertex, every minimal finite exhaustive set must contain one of the
    remaining tail segments.
    """
    if not g.has_finite_path_category():
        raise GraphHasCycles("boundary enumeration needs a finite path category")
    cap = g.max_path_degree()
    fe_cache: dict[str, list[list[Path]]] = {}

    def fe_at(v: str) -> list[list[Path]]:
        if v not in fe_cache:
            fe_cache[v] = enumerate_fe(g, v, cap)
        return fe_cache[v]

    out = []
    for lam in paths_up_to_degree(g, cap):
        ok = True
        for n in degrees_up_to(lam.degree):
            v = segment(lam, n, n).range_vertex
            remaining = lam.degree - n
            for E in fe_at(v):
                if not any(e.degree <= remaining
                           and segment(lam, n, n + e.degree) == e for e in E):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(FinitePathHandle(lam))
    out.sort(key=lambda h: h.path.sort_key())
    return out


def substitution_path(g: KGraph, rules: dict, seed: str, name: Optional[str] = None
                      ) -> BoundaryPathHandle:
    """Infinite handle for the fixed point of a substitution on edge names.

    The seed's image must start with the seed and grow, and the substitution
    must eventually use a second letter; the single-letter degenerate case
    (its fixed point is a periodic word) is rejected, use periodic_path.
    """
    if g.rank != 1 or len(g.vertices) != 1:
        raise KGraphError("substitutions need a single-vertex 1-graph")
    rules = {str(k): list(v) for k, v in rules.items()}
    for k, image in rules.items():
        if k not in g.edges:
            raise KGraphError(f"substitution rule on unknown edge {k!r}")
        if not image or any(c not in g.edges for c in image):
            raise KGraphError(f"rule {k!r} -> {image} uses unknown edges")
    if seed not in rules:
        raise NoFixedPoint(f"no rule for seed {seed!r}")
    image = rules[seed]
    if image[0] != seed or len(image) < 2:
        raise NoFixedPoint(
            f"rule {seed!r} -> {''.join(image)} has no growing fixed point at {seed!r}")
    reachable = {seed}
    frontier = [seed]
    while frontier:
        letters = set(itertools.chain.from_iterable(rules.get(c, [c]) for c in frontier))
        frontier = sorted(letters - reachable)
        reachable |= letters
    if reachable == {seed}:
        raise NoFixedPoint(
            f"substitution never leaves {seed!r}; use periodic_path for {seed!r}^inf")

    state = {"prefix": list(image)}

    def prefix_of(n: int) -> Sequence[str]:
        prefix = state["prefix"]
        while len(prefix) < n:
            prefix = list(itertools.chain.from_iterable(
                rules.get(c, [c]) for c in prefix))
            state["prefix"] = prefix
        return prefix

    return WordStreamHandle(g, prefix_of, name or f"fix({seed})")


def periodic_path(g: KGraph, word: Sequence[str], name: Optional[str] = None
                  ) -> BoundaryPathHandle:
    """Infinite handle repeating a finite loop word forever."""
    word = list(word)
    if not word:
        raise KGraphError("periodic word must be nonempty")
    for c in word:
        if c not in g.edges:
            raise KGraphError(f"unknown edge {c!r} in periodic word")

    def prefix_of(n: int) -> Sequence[str]:
        reps = -(-n // len(word))
        return word * reps

    return WordStreamHandle(g, prefix_of, name or f"({'.'.join(word)})^inf")


def thue_morse_path(g: KGraph) -> BoundaryPathHandle:
    """The Thue-Morse fixed point over the loops a and b; not eventually periodic."""
    return substitution_path(g, {"a": ["a", "b"], "b": ["b", "a"]}, "a", name="tm")


# -- checks -------------------------------------------------------------------


class BoundaryVerdict:
    def __init__(self, status: str, witness=None):
        self.status = status  # "pass" | "fail" | "unknown"
        self.witness = witness

    def __bool__(self) -> bool:
        return self.status == "pass"

    def __repr__(self) -> str:
        return f"BoundaryVerdict({self.status}, witness={self.witness})"


def check_boundary_condition(x: BoundaryPathHandle, window, fe_cap) -> BoundaryVerdict:
    """Windowed boundary-path test against every minimal FE set below fe_cap.

    For each position n in the window and each minimal finite exhaustive set
    at the vertex there, some tail segment of x must lie in the set.  A
    handle that cannot produce a needed window yields an unknown verdict
    rather than a fail.
    """
    g = x.graph
    fe_cap = Degree(fe_cap)
    scan = ext_meet(x.degree, ext_degree(Degree(window)))
    unknown_witness = None
    fe_cache: dict[str, list[list[Path]]] = {}
    for n in degrees_up_to(scan):
        try:
            v = x.vertex_at(n)
        except WindowUnavailable:
            unknown_witness = unknown_witness or (n, None)
            continue
        if v not in fe_cache:
            fe_cache[v] = enumerate_fe(g, v, fe_cap)
        for E in fe_cache[v]:
            hit = False
            blocked = False
            for e in E:
                target = n + e.degree
                if not ext_le(target, x.degree):
                    continue
                try:
                    if x.window(n, target) == e:
                        hit = True
                        break
                except WindowUnavailable:
                    blocked = True
            if hit:
                continue
            if blocked:
                unknown_witness = unknown_witness or (n, [e.label() for e in E])
                continue
            return BoundaryVerdict("fail", (n, [e.label() for e in E]))
    if unknown_witness is not None:
        return BoundaryVerdict("unknown", unknown_witness)
    return BoundaryVerdict("pass")


def aperiodicity_window_check(x: BoundaryPathHandle, shift_bound, window
                              ) -> BoundaryVerdict:
    """Pairwise-distinguish all shifts of x below the bound at window width.

    Shifts of different extended degree or range are distinct outright; the
    rest are compared on their common initial window.  A collision returns
    the first colliding pair in scan order.
    """
    shift_bound = Degree(shift_bound)
    width = ext_degree(Degree(window))
    shifts = [n for n in degrees_up_to(shift_bound) if ext_le(n, x.degree)]
    handles = {tuple(n): shift(x, n) for n in shifts}
    for i, m in enumerate(shifts):
        for n in shifts[i + 1:]:
            a, b = handles[tuple(m)], handles[tuple(n)]
            if ext_key(a.degree) != ext_key(b.degree):
                continue
            if a.range_vertex != b.range_vertex:
                continue
            if a.fingerprint(width) == b.fingerprint(width):
                return BoundaryVerdict("fail", (m, n))
    return BoundaryVerdict("pass")
