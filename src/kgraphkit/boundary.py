"""Boundary paths: exact finite handles and windowed oracles for infinite ones.

A handle represents a degree-indexed morphism x by its window oracle
window(n, m) -> the finite path x(n, m).  Equality of infinite handles is
always windowed equality at an explicit width, which applies to infinite
coordinates only: finite coordinates are always compared in full.

Boundary paths are closed under extension λx and shift σ^n x
(Farthing-Muhly-Yeend, Semigroup Forum 71, 2005), and these are the only
two operations applied to them.  So every handle is a root, which supplies
its own windows (a finite path, a word stream), or the normal form
λ·σ^s(y) of a root y, a DerivedHandle: shift and extend are arithmetic on
the triple (λ, y, s), and a derived handle reads its windows from its root.

The triple, as (y, s, λ) reduced in rank 1, is a handle's identity key;
shift_key and extend_key move it with no handle built.  Identity stays
windowed equality: Identities takes each key's fingerprint once.

Each handle memoises its windows under validated (n, m) keys and looks the
memo up before validating.  Derived handles (shift and extend results) are
built afresh on every call, never cached on their parent: each holds the
windows asked of it, so keeping them alive would grow memory.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from typing import Callable, Optional, Sequence

from .core import (
    Degree,
    KGraph,
    KGraphError,
    Path,
    compose,
    degrees_up_to,
    paths_up_to_degree,
    segment,
)
from .alignment import enumerate_fe

INF = math.inf


# -- extended degrees: coordinates in N ∪ {∞} --------------------------------
#
# A handle's degree is a plain tuple that may hold ∞.  A finite bound is a
# Degree, which compares with it and meets it coordinatewise:
# bound <= x.degree, bound.meet(x.degree).


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


class BoundaryPathHandle:
    """Immutable window oracle for a boundary path.

    Subclasses provide _window(n, m); results are memoized write-once, so
    oracles must be pure.
    """

    def __init__(self, graph: KGraph, degree, range_vertex: str, name: Optional[str]):
        self.graph = graph
        self.degree = ext_degree(degree)
        self.range_vertex = range_vertex
        if name is not None:  # else the subclass names the handle when asked
            self.name = name
        self._memo: dict[tuple[Degree, Degree], Path] = {}  # validated (n, m) -> x(n, m)

    def window(self, n, m) -> Path:
        """x(n, m); only validated keys are stored, so a memo hit is returned as is."""
        if type(n) is not Degree or type(m) is not Degree:
            n, m = Degree(n), Degree(m)
        got = self._memo.get((n, m))
        if got is None:
            if not n <= m:
                raise KGraphError(f"window needs n <= m, got {tuple(n)}, {tuple(m)}")
            if not m <= self.degree:
                raise KGraphError(f"window {tuple(m)} exceeds degree {self.degree}")
            got = self._memo[n, m] = self._window(n, m)
        return got

    def _window(self, n: Degree, m: Degree) -> Path:
        raise NotImplementedError

    def vertex_at(self, n) -> str:
        return self.window(n, n).range_vertex

    def fingerprint(self, width) -> tuple:
        """Identity at the given window width (key_fingerprint)."""
        lam, y, s = normal_form(self)
        return key_fingerprint((y, s, lam), Degree(width))

    def describe(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return f"<boundary path {self.name} degree {self.degree}>"


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
            raise KGraphError(
                f"{self.name} has only {len(letters)} letters, window needs {m[0]}")
        v = self.range_vertex
        return Path(self.graph, v, v, tuple(letters[n[0]:m[0]]), m - n)


class DerivedHandle(BoundaryPathHandle):
    """The handle λ·σ^s(y) of a root y, which is never itself derived.

    Its degree is d(λ) + d(y) - s and its range r(λ).  It is named λ*y>>s,
    with the λ* part only for a non-vertex prefix and >>s only for s != 0,
    on the first read of its name.
    """

    def __init__(self, prefix: Path, root: BoundaryPathHandle, by: Degree):
        degree = (c + d - b for c, d, b in zip(root.degree, prefix.degree, by))
        super().__init__(root.graph, degree, prefix.range_vertex, None)
        self.prefix = prefix
        self.root = root
        self.by = by

    @functools.cached_property
    def name(self) -> str:
        name = f"{self.root.name}>>{tuple(self.by)}" if any(self.by) else self.root.name
        return name if self.prefix.is_vertex() else f"{self.prefix.label()}*{name}"

    def _window(self, n: Degree, m: Degree) -> Path:
        return read((self.root, self.by, self.prefix), n, m)


def normal_form(x: BoundaryPathHandle) -> tuple[Path, BoundaryPathHandle, Degree]:
    """(λ, y, s) with x = λ·σ^s(y) and y a root."""
    if isinstance(x, DerivedHandle):
        return x.prefix, x.root, x.by
    return x.graph.vertex_path(x.range_vertex), x, Degree.zero(x.graph.rank)


def read(key, n: Degree, m: Degree, window=None) -> Path:
    """x(n, m) of x = λ·σ^s(y), key (y, s, λ), from one window of y, by
    default y.window, which memoises it; unchecked."""
    y, s, lam = key
    window = window or y.window
    if lam.is_vertex():
        return window(s + n, s + m)
    reach = m.join(lam.degree)
    return segment(compose(lam, window(s, s + reach - lam.degree)), n, m)


def identity_key(x: BoundaryPathHandle) -> tuple:
    """The key (y, s, λ) of x = λ·σ^s(y): equal keys, equal paths, on any root."""
    lam, y, s = normal_form(x)
    return extend_key(lam, (y, s, x.graph.vertex_path(lam.source_vertex)))


def shift_key(key, n: Degree) -> tuple:
    """The key of σ^n(x) from x's, as shift builds σ^n(x); it stays reduced,
    since σ^n keeps λ's last letter or drops all of λ."""
    y, s, lam = key
    if lam.is_vertex():
        return y, s + n, y.window(s + n, s + n)
    m = n.join(lam.degree)
    return y, s + m - lam.degree, read(key, n, m)


def extend_key(lam: Path, key) -> tuple:
    """The key of λx from x's, (y, s, λμ), reduced in rank 1: while λ = λ′e
    with e = y(s-1, s), λ′e·σ^s(y) is λ′·σ^(s-1)(y).  A reduced μ ends in no
    such e, so only an extension of a vertex μ is reduced."""
    y, s, mu = key
    lam = compose(lam, mu)
    while mu.is_vertex() and y.graph.rank == 1 and lam.word and s[0] and (
            lam.word[-1],) == y.window((s[0] - 1,), s).word:
        lam, s = segment(lam, (0,), (len(lam.word) - 1,)), Degree((s[0] - 1,))
    return y, s, lam


def key_fingerprint(key, width: Degree) -> tuple:
    """Identity at the window width of the path x with this key: its extended
    degree, range vertex and word of x(0, m), m the width in each infinite
    coordinate and the full degree in each finite one (so finite paths are
    compared exactly), from one window of the root, not memoised."""
    y, s, lam = key
    degree = ext_degree(c + d - b for c, d, b in zip(y.degree, lam.degree, s))
    m = Degree(w if d == INF else d for w, d in zip(width, degree))
    return degree, lam.range_vertex, read(key, Degree.zero(len(m)), m, y._window).word


class Identities(dict):
    """Identity key -> id of its fingerprint at one window width, taken on
    the key's first lookup only: equal ids, equal fingerprints.  fps maps
    each fingerprint to its id, counting up from 0."""

    def __init__(self, width):
        super().__init__()
        self.width, self.fps = Degree(width), {}

    def __missing__(self, key) -> int:
        self[key] = self.fps.setdefault(key_fingerprint(key, self.width), len(self.fps))
        return self[key]


def shift(x: BoundaryPathHandle, n) -> BoundaryPathHandle:
    """The handle of σ^n(x); windows satisfy σ^n(x)(p, q) = x(n+p, n+q).

    With x = λ·σ^s(y) and m = n ∨ d(λ), σ^n(x) = x(n, m)·σ^(s+m-d(λ))(y).
    """
    n = Degree(n)
    if not n <= x.degree:
        raise KGraphError(f"shift {tuple(n)} exceeds degree {x.degree}")
    if not any(n):
        return x
    lam, y, s = normal_form(x)
    y, by, prefix = shift_key((y, s, lam), n)
    if prefix.is_vertex() and not any(by):
        return y
    return DerivedHandle(prefix, y, by)


def extend(lam: Path, x: BoundaryPathHandle) -> BoundaryPathHandle:
    """The handle of λx with (λx)(0, d(λ)) = λ and σ^{d(λ)}(λx) = x; with
    x = μ·σ^s(y) it is (λμ)·σ^s(y)."""
    if lam.graph is not x.graph:
        raise KGraphError("prefix lives in a different graph")
    if lam.source_vertex != x.range_vertex:
        raise KGraphError(
            f"s({lam.label()}) = {lam.source_vertex} != r(x) = {x.range_vertex}")
    if lam.is_vertex():
        return x
    mu, y, s = normal_form(x)
    return DerivedHandle(compose(lam, mu), y, s)


# -- suppliers ----------------------------------------------------------------


def finite_boundary_paths(g: KGraph) -> list[BoundaryPathHandle]:
    """The complete boundary-path set of a graph with finitely many paths:
    the paths that pass the boundary condition below the maximal degree."""
    cap = g.max_path_degree()
    handles = [FinitePathHandle(lam) for lam in paths_up_to_degree(g, cap)]
    return [x for x, witness in zip(handles, check_boundary_condition(handles, cap, cap))
            if witness is None]


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
        raise KGraphError(f"no rule for seed {seed!r}")
    image = rules[seed]
    if image[0] != seed or len(image) < 2:
        raise KGraphError(
            f"rule {seed!r} -> {''.join(image)} has no growing fixed point at {seed!r}")
    reachable = {seed}
    frontier = [seed]
    while frontier:
        letters = set(itertools.chain.from_iterable(rules.get(c, [c]) for c in frontier))
        frontier = sorted(letters - reachable)
        reachable |= letters
    if reachable == {seed}:
        raise KGraphError(
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


def check_boundary_condition(handles: Sequence[BoundaryPathHandle], window, fe_cap
                             ) -> list[Optional[tuple[Degree, Sequence[str]]]]:
    """Windowed boundary-path test against every minimal FE set below fe_cap,
    one entry per handle; the handles share one graph.

    For each handle x, each position n in the window and each minimal finite
    exhaustive set at the vertex there, some tail segment of x must lie in
    the set.  A handle that passes gets None; one that fails gets its
    witness (n, labels): the first failing n with the labels of its first
    unmet set.  A window the handle cannot supply is refused.

    Each position is tested once per call.  The shift identity
    (σ^s y)(n, n + d) = y(s + n, s + n + d), with d(σ^s y) = d(y) - s, makes
    position n of σ^s(y) the same test as position s + n of y: the same
    vertex, the same segments and the same degree bound.  So a handle in the
    normal form σ^s(y), a vertex prefix on a root y, reads its outcomes from
    y's at s + n, and the shifts of one seed share them; a handle with a
    non-vertex prefix tests its own positions.  The FE sets of each vertex
    are enumerated once.  Positions are keyed as plain tuples, so a Degree
    is built once per position tested, not once per handle and position.
    """
    fe_cap = Degree(fe_cap)
    width = Degree(window)
    fe_cache: dict[str, list[list[Path]]] = {}
    # base handle -> absolute position -> labels of the first unmet set, ()
    # when every set is met; keyed by the handle itself, which the dict keeps
    # alive for the call
    outcomes: dict[BoundaryPathHandle, dict[tuple, Sequence[str]]] = {}

    def unmet(y: BoundaryPathHandle, p: Degree) -> Sequence[str]:
        """Labels of the first FE set at position p of y that no tail segment
        of y meets, () when there is none."""
        v = y.vertex_at(p)
        if v not in fe_cache:
            fe_cache[v] = enumerate_fe(y.graph, v, fe_cap)
        for E in fe_cache[v]:
            for e in E:
                target = p + e.degree
                if target <= y.degree and y.window(p, target) == e:
                    break
            else:
                return [e.label() for e in E]
        return ()

    def witness(x: BoundaryPathHandle) -> Optional[tuple[Degree, Sequence[str]]]:
        lam, y, s = normal_form(x)
        if not lam.is_vertex():
            y, s = x, Degree.zero(x.graph.rank)
        seen = outcomes.setdefault(y, {})
        for n in degrees_up_to(width.meet(x.degree)):
            p = tuple(map(operator.add, s, n))
            labels = seen.get(p)
            if labels is None:
                labels = seen[p] = unmet(y, Degree(p))
            if labels:
                return n, labels
        return None

    return [witness(x) for x in handles]


def aperiodicity_window_check(x: BoundaryPathHandle, shift_bound, window,
                              ids: Optional[Identities] = None
                              ) -> Optional[tuple[Degree, Degree]]:
    """Pairwise-distinguish all shifts of x below the bound at window width:
    None when they are, else the first colliding pair (m, n).

    Each shift is named by its fingerprint's id in ids, an Identities at the
    window that callers may share; a fingerprint leads with the extended
    degree and the range vertex, so shifts differing in either never match.
    The pair is the first shift m with a later equal id and the first such
    later n: the first colliding pair in the pairwise scan order.
    """
    shift_bound = Degree(shift_bound)
    ids = Identities(window) if ids is None else ids
    key = identity_key(x)
    shifts = [n for n in degrees_up_to(shift_bound) if n <= x.degree]
    named = [ids[shift_key(key, n)] for n in shifts]
    for i, name in enumerate(named):
        if name in named[i + 1:]:
            return shifts[i], shifts[named.index(name, i + 1)]
    return None
