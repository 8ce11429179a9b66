"""Finite presentations of higher-rank graphs and their path combinatorics.

A rank-k graph is presented by a colored skeleton (vertices plus edges
carrying a color in 1..k) together with one commuting square for every
composable pair of edges with increasing colors.  Paths are kept in a
canonical color-sorted normal form, so path equality is word equality and
factorization is a terminating rewrite driven by the square table.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from graphlib import CycleError, TopologicalSorter
from typing import Iterable, Optional, Sequence


class KGraphError(Exception):
    """Every refusal of this package.  A subclass exists only where a caller
    acts on its type: ParseError, ValidationError, and repalg's
    BooleanRelationFailure and SeparationSearchExhausted."""


class ParseError(KGraphError):
    pass


@dataclass(frozen=True)
class Violation:
    """One structural defect found while validating a presentation."""

    code: str
    detail: str

    def __str__(self) -> str:
        return f"{self.code}: {self.detail}"


class ValidationError(KGraphError):
    """Raised with the full list of violations of an invalid presentation."""

    def __init__(self, violations: Sequence[Violation]):
        self.violations = list(violations)
        super().__init__("; ".join(str(v) for v in self.violations))

    def has(self, code: str) -> bool:
        return any(v.code == code for v in self.violations)


class Degree(tuple):
    """Multi-index in N^k under the coordinatewise partial order.

    Comparison operators are coordinatewise, so two degrees may be
    incomparable; use sort_key() when a total order is needed.
    """

    def __new__(cls, coords: Iterable[int]) -> "Degree":
        if type(coords) is Degree:
            return coords
        coords = tuple(int(c) for c in coords)
        if any(c < 0 for c in coords):
            raise ValueError(f"negative coordinate in degree {coords}")
        return super().__new__(cls, coords)

    @classmethod
    def zero(cls, k: int) -> "Degree":
        return tuple.__new__(cls, (0,) * k)

    @classmethod
    def unit(cls, k: int, color: int) -> "Degree":
        """Generator e_i for a 1-based color i."""
        if not 1 <= color <= k:
            raise ValueError(f"color {color} out of range 1..{k}")
        return cls(tuple(1 if i == color - 1 else 0 for i in range(k)))

    @property
    def rank(self) -> int:
        return len(self)

    def _result(self, other, coords: Iterable[int]) -> "Degree":
        """Two Degrees give a result in N^k (`-` checks <= first); other operands are validated."""
        return tuple.__new__(Degree, coords) if type(other) is Degree else Degree(coords)

    def __add__(self, other) -> "Degree":
        return self._result(other, map(operator.add, self, other))

    def __sub__(self, other) -> "Degree":
        if not (other if type(other) is Degree else Degree(other)) <= self:
            raise KGraphError(f"{other} is not <= {tuple(self)}")
        return self._result(other, map(operator.sub, self, other))

    def join(self, other) -> "Degree":
        return self._result(other, map(max, self, other))

    def meet(self, other) -> "Degree":
        return self._result(other, map(min, self, other))

    def __le__(self, other) -> bool:
        return all(map(operator.le, self, other))

    def __ge__(self, other) -> bool:
        return all(map(operator.ge, self, other))

    def __lt__(self, other) -> bool:
        return self <= other and tuple(self) != tuple(other)

    def __gt__(self, other) -> bool:
        return self >= other and tuple(self) != tuple(other)

    def total(self) -> int:
        return sum(self)

    def sort_key(self) -> tuple:
        return (self.total(), tuple(self))

    def __repr__(self) -> str:
        return f"Degree{tuple(self)}"


def degrees_up_to(cap: Degree) -> list[Degree]:
    """All degrees <= cap, ordered by (total, lexicographic).

    Each cap's lattice is built once; every call returns a fresh list.
    """
    return list(_lattice(Degree(cap)))


@functools.cache
def _lattice(cap: Degree) -> tuple[Degree, ...]:
    ranges = [range(c + 1) for c in cap]
    return tuple(sorted((Degree(t) for t in itertools.product(*ranges)), key=Degree.sort_key))


def join_degrees(degrees: Iterable[Degree], rank: int) -> Degree:
    """Coordinatewise maximum of the degrees; zero of the given rank when empty."""
    return Degree(max(col) for col in zip((0,) * rank, *degrees))


@dataclass(frozen=True)
class SkeletonEdge:
    name: str
    color: int
    range_vertex: str
    source_vertex: str


@dataclass(frozen=True)
class Square:
    """Commuting square g∘h = h'∘g' with color(g) < color(h)."""

    top: tuple[str, str]
    bottom: tuple[str, str]


class Path:
    """Morphism of the path category in canonical color-sorted form.

    The word lists edge names with lower colors nearest the range; degree-0
    paths are vertices and carry an empty word.  Equality is word equality
    plus the range vertex, which identifies degree-0 paths.
    """

    __slots__ = ("graph", "range_vertex", "source_vertex", "word", "degree", "_hash")

    def __init__(self, graph: "KGraph", range_vertex: str, source_vertex: str,
                 word: tuple[str, ...], degree: Degree):
        self.graph = graph
        self.range_vertex = range_vertex
        self.source_vertex = source_vertex
        self.word = word
        self.degree = degree
        self._hash = hash((id(graph), range_vertex, word))

    def is_vertex(self) -> bool:
        return not self.word

    def label(self) -> str:
        return self.range_vertex if not self.word else ".".join(self.word)

    def sort_key(self) -> tuple:
        return (self.degree.sort_key(), self.range_vertex, self.word)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Path) and self.graph is other.graph
                and self.range_vertex == other.range_vertex and self.word == other.word)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Path({self.label()!r})"


class KGraph:
    """Validated finite rank-k graph presentation.

    Immutable after construction; every operation on it is a pure function.
    Instances are built through validate_presentation or the generators
    below, never directly.

    Two memos hold paths: _paths, filled by paths_of_degree, and
    _mce_tables, the MCE table of alignment.mce_table per cap, which
    verify_tck and boolean_rep share within a run.  They make a graph that
    has enumerated paths a reference cycle (graph -> memo -> Path.graph),
    freed only by the cycle collector.  They stay: the memos hold only what
    path combinatorics asked for (a FockFamily lays its basis out from degree
    blocks and enumerates none), a graph lives for a whole CLI run, and
    breaking the cycle would put a weak reference on every Path.
    """

    def __init__(self, rank: int, vertices: Sequence[str], edges: Sequence[SkeletonEdge],
                 squares: Sequence[Square]):
        self.rank = rank
        self.vertices = tuple(sorted(vertices))
        self.edges = {e.name: e for e in edges}
        self._color = {e.name: e.color for e in edges}
        self.squares = tuple(squares)
        # rewrite tables keyed by ordered edge pairs
        self._top_to_bottom = {sq.top: sq.bottom for sq in squares}
        self._bottom_to_top = {sq.bottom: sq.top for sq in squares}
        # (color, range vertex) -> edge names sorted, for path enumeration
        self._by_color_range: dict[tuple[int, str], list[str]] = {}
        for e in sorted(self.edges.values(), key=lambda e: e.name):
            self._by_color_range.setdefault((e.color, e.range_vertex), []).append(e.name)
        self._max_degree = self._longest_degrees()  # None: the path category is infinite
        # a vertex receiving a color-i edge and a color-j edge g (i != j) has a
        # color-i edge at s(g) too (Raeburn–Sims–Yeend 2004)
        self.locally_convex = all(
            (i, e.source_vertex) in self._by_color_range
            for e in self.edges.values() for i in range(1, rank + 1)
            if i != e.color and (i, e.range_vertex) in self._by_color_range)
        # (degree, range vertex) -> its paths, filled by paths_of_degree
        self._paths: dict[tuple[Degree, str], tuple[Path, ...]] = {}
        # cap -> (μ, ν) -> [(λ, α, β)], filled by alignment.mce_table
        self._mce_tables: dict[Degree, dict] = {}

    # -- basic accessors -------------------------------------------------

    def color(self, edge_name: str) -> int:
        return self._color[edge_name]

    def edges_at(self, vertex: str, color: int) -> list[str]:
        """Color-i edges with range at the given vertex."""
        return self._by_color_range.get((color, vertex), [])

    def vertex_path(self, v: str) -> Path:
        if v not in self.vertices:
            raise KGraphError(f"unknown vertex {v!r}")
        return Path(self, v, v, (), Degree.zero(self.rank))

    def edge_path(self, name: str) -> Path:
        e = self.edges.get(name)
        if e is None:
            raise KGraphError(f"unknown edge {name!r}")
        return Path(self, e.range_vertex, e.source_vertex, (name,),
                    Degree.unit(self.rank, e.color))

    def path(self, names: Sequence[str]) -> Path:
        """Build the canonical path for a composable edge-name word."""
        if not names:
            raise KGraphError("empty word needs a vertex; use vertex_path")
        if len(names) == 1 and names[0] in self.vertices:
            return self.vertex_path(names[0])
        p = self.edge_path(names[0])
        for name in names[1:]:
            p = compose(p, self.edge_path(name))
        return p

    def parse_path(self, text: str) -> Path:
        """Parse 'a.b.c' words or a bare vertex name."""
        text = text.strip()
        if text in self.vertices:
            return self.vertex_path(text)
        names = text.split(".")
        if "" in names:
            raise ParseError(f"malformed path {text!r}: empty edge name")
        return self.path(names)

    # -- normal form machinery -------------------------------------------

    def normalize(self, word: Sequence[str]) -> tuple[str, ...]:
        """Sort a composable word by color via square swaps.

        Each swap removes exactly one color inversion, so this terminates;
        confluence (checked at validation time) makes the result unique.
        """
        w = list(word)
        color = self._color
        for i in range(1, len(w)):
            j = i
            while j > 0 and color[w[j - 1]] > color[w[j]]:
                w[j - 1], w[j] = self._bottom_to_top[(w[j - 1], w[j])]
                j -= 1
        return tuple(w)

    def _split(self, word: tuple[str, ...], d: Degree, m: Degree
               ) -> tuple[tuple[str, ...], tuple[str, ...]]:
        """Factor a canonical word of degree d as front·rest with d(front) = m.

        Block by block, the lower-color edges left behind are swapped rightward
        past the first m_c color-c edges, which then join the front; factorization
        is unique, so the order of the square swaps does not matter.
        """
        front: list[str] = []
        behind: list[str] = []  # the lower-color edges not taken, in order
        start = 0
        for d_c, m_c in zip(d, m):
            taken = list(word[start:start + m_c])
            for p in range(len(behind) - 1, -1, -1):
                a = behind[p]
                for i, x in enumerate(taken):
                    taken[i], a = self._top_to_bottom[(a, x)]
                behind[p] = a
            front += taken
            behind += word[start + m_c:start + d_c]
            start += d_c
        return tuple(front), tuple(behind)

    # -- finiteness --------------------------------------------------------

    def _longest_degrees(self) -> Optional[Degree]:
        """Join of all path degrees, or None when the skeleton has a directed cycle.

        One topological pass, sources first: the longest degrees into v are
        the edges at v followed by the longest degrees from their sources.
        """
        order = TopologicalSorter({v: () for v in self.vertices})
        for e in self.edges.values():
            order.add(e.range_vertex, e.source_vertex)
        longest: dict[str, Degree] = {}
        try:
            for v in order.static_order():
                longest[v] = join_degrees(
                    (longest[self.edges[name].source_vertex] + Degree.unit(self.rank, color)
                     for color in range(1, self.rank + 1) for name in self.edges_at(v, color)),
                    self.rank)
        except CycleError:
            return None
        return join_degrees(longest.values(), self.rank)

    def has_finite_path_category(self) -> bool:
        """True when the skeleton has no directed cycle, so paths are finite."""
        return self._max_degree is not None

    def max_path_degree(self) -> Degree:
        """Coordinatewise maximum degree over all paths; needs no cycles."""
        if self._max_degree is None:
            raise KGraphError("path category is infinite (skeleton has a cycle)")
        return self._max_degree


# -- composition, segments, enumeration ------------------------------------


def compose(lam: Path, mu: Path) -> Path:
    """Canonical form of the composite λμ; defined when s(λ) = r(μ)."""
    g = lam.graph
    if g is not mu.graph:
        raise KGraphError("paths live in different graphs")
    if lam.source_vertex != mu.range_vertex:
        raise KGraphError(
            f"s({lam.label()}) = {lam.source_vertex} != r({mu.label()}) = {mu.range_vertex}")
    if not lam.word:
        return mu
    if not mu.word:
        return lam
    word = lam.word + mu.word
    # both factors are color-sorted, so only an inverted seam needs square swaps
    if g._color[lam.word[-1]] > g._color[mu.word[0]]:
        word = g.normalize(word)
    return Path(g, lam.range_vertex, mu.source_vertex, word, lam.degree + mu.degree)


def segment(lam: Path, m, n) -> Path:
    """The unique middle factor λ(m,n) with λ = λ(0,m)·λ(m,n)·λ(n,d(λ)).

    A zero m or an n of d(λ) skips the split on that side, whose factor is
    a vertex; λ(0, d(λ)) is λ itself.
    """
    g = lam.graph
    m = Degree(m)
    n = Degree(n)
    d = lam.degree
    if not (m <= n and n <= d):
        raise KGraphError(
            f"need m <= n <= d(λ); got m={tuple(m)}, n={tuple(n)}, d={tuple(d)}")
    if any(m):
        front, rest = g._split(lam.word, d, m)
        mid_range = g.edges[front[-1]].source_vertex
    elif n == d:
        return lam
    else:
        rest, mid_range = lam.word, lam.range_vertex
    mid = rest if n == d else g._split(rest, d - m, n - m)[0]
    mid_source = g.edges[mid[-1]].source_vertex if mid else mid_range
    return Path(g, mid_range, mid_source, mid, n - m)


def vertex_at(lam: Path, n) -> str:
    """Vertex the path passes through at inner degree n."""
    return segment(lam, n, n).range_vertex


def paths_of_degree(g: KGraph, n, range_vertex: Optional[str] = None,
                    source_vertex: Optional[str] = None) -> list[Path]:
    """All canonical paths of degree n, optionally filtered by endpoint.

    Canonical words are exactly the color-sorted composable words, so they
    are enumerated directly; output is ordered by (range vertex, word).  The
    paths of each (degree, range vertex) are enumerated once per graph, and
    every call returns a fresh list.
    """
    n = Degree(n)
    if n.rank != g.rank:
        raise KGraphError(f"degree rank {n.rank} != graph rank {g.rank}")
    if source_vertex is not None and source_vertex not in g.vertices:
        raise KGraphError(f"unknown vertex {source_vertex!r}")
    out: list[Path] = []
    for v in (range_vertex,) if range_vertex is not None else g.vertices:
        paths = g._paths.get((n, v))
        if paths is None:
            if v not in g.vertices:
                raise KGraphError(f"unknown vertex {v!r}")
            paths = g._paths[(n, v)] = _enumerate_paths(g, n, v)
        if source_vertex is None:
            out.extend(paths)
        else:
            out.extend(p for p in paths if p.source_vertex == source_vertex)
    return out


def _enumerate_paths(g: KGraph, n: Degree, v: str) -> tuple[Path, ...]:
    """Paths of degree n with range v, ordered by word: each color-sorted
    word is grown one edge at a time, edges in name order."""
    grown: list[tuple[tuple[str, ...], str]] = [((), v)]
    for color, count in enumerate(n, 1):
        for _ in range(count):
            grown = [(word + (name,), g.edges[name].source_vertex)
                     for word, at in grown for name in g.edges_at(at, color)]
    return tuple(Path(g, v, at, word, n) for word, at in grown)


def paths_up_to_degree(g: KGraph, cap, range_vertex: Optional[str] = None) -> list[Path]:
    """All paths with degree <= cap, in (degree, range, word) order."""
    out: list[Path] = []
    for n in degrees_up_to(Degree(cap)):
        out.extend(paths_of_degree(g, n, range_vertex))
    return out


# -- validation --------------------------------------------------------------


_PRESENTATION_KEYS = {"rank", "vertices", "edges", "squares"}
_EDGE_KEYS = {"name", "color", "range", "source"}
_SQUARE_KEYS = {"top", "bottom"}


def _keys(rec, what: str) -> set:
    """The keys of a JSON object; anything else is a ParseError."""
    if not isinstance(rec, dict):
        raise ParseError(f"{what} must be a JSON object, got {type(rec).__name__}")
    return set(rec)


def _typed(value, kind: type, what: str):
    """value when its type is exactly kind, so a bool is no int and a number
    no name; anything else is a ParseError."""
    if type(value) is not kind:
        noun = "an integer" if kind is int else "a string"
        raise ParseError(f"{what} must be {noun}, got {value!r}")
    return value


def validate_presentation(raw: dict) -> KGraph:
    """Check a raw presentation and return the KGraph it defines.

    Collects every violation before raising, so an invalid file reports all
    of its defects at once.  For rank >= 3 every composable tricolored word
    is reduced by all strategies and the normal forms compared; a mismatch
    is reported as ConfluenceFailure with the witnessing word.
    """
    violations: list[Violation] = []

    unknown = _keys(raw, "presentation") - _PRESENTATION_KEYS
    if unknown:
        raise ParseError(f"unknown top-level keys: {sorted(unknown)}")
    for key in ("vertices", "edges", "squares"):
        if not isinstance(raw.get(key, []), list):
            raise ParseError(f"{key} must be a list, got {type(raw[key]).__name__}")
    try:
        rank = _typed(raw["rank"], int, "rank")
        vertex_names = [_typed(v, str, "vertex name") for v in raw["vertices"]]
        edge_records = list(raw.get("edges", []))
        square_records = list(raw.get("squares", []))
    except KeyError as exc:
        raise ParseError(f"malformed presentation: {exc}") from exc
    if rank < 1:
        raise ParseError(f"rank must be >= 1, got {rank}")

    seen: set[str] = set()
    for v in vertex_names:
        if v in seen:
            violations.append(Violation("DuplicateName", f"vertex {v!r} declared twice"))
        seen.add(v)
    vertices = set(vertex_names)

    edges: list[SkeletonEdge] = []
    edge_by_name: dict[str, SkeletonEdge] = {}
    declared: set[str] = set()  # every edge name, kept or rejected with a violation
    for rec in edge_records:
        unknown = _keys(rec, "edge record") - _EDGE_KEYS
        if unknown:
            raise ParseError(f"unknown edge keys: {sorted(unknown)}")
        what = f"malformed edge record {rec!r}:"
        try:
            e = SkeletonEdge(_typed(rec["name"], str, f"{what} name"),
                             _typed(rec["color"], int, f"{what} color"),
                             _typed(rec["range"], str, f"{what} range"),
                             _typed(rec["source"], str, f"{what} source"))
        except KeyError as exc:
            raise ParseError(f"{what} {exc}") from exc
        declared.add(e.name)
        if e.name in seen:
            violations.append(Violation("DuplicateName", f"name {e.name!r} reused"))
            continue
        seen.add(e.name)
        if not 1 <= e.color <= rank:
            violations.append(Violation(
                "ColorOutOfRange", f"edge {e.name!r} has color {e.color} outside 1..{rank}"))
            continue
        if e.range_vertex not in vertices or e.source_vertex not in vertices:
            violations.append(Violation(
                "DanglingEndpoint", f"edge {e.name!r} has an undeclared endpoint"))
            continue
        edges.append(e)
        edge_by_name[e.name] = e

    squares: list[Square] = []
    tops_seen: dict[tuple[str, str], int] = {}
    bottoms_seen: dict[tuple[str, str], int] = {}
    for rec in square_records:
        unknown = _keys(rec, "square record") - _SQUARE_KEYS
        if unknown:
            raise ParseError(f"unknown square keys: {sorted(unknown)}")
        what = f"malformed square record {rec!r}:"
        sides = []
        for key in ("top", "bottom"):
            side = rec.get(key)
            if type(side) is not list or len(side) != 2:
                raise ParseError(f"{what} {key} must be a list of two edge names")
            sides.append(tuple(_typed(n, str, f"{what} {key} entry") for n in side))
        top, bottom = sides
        unknown = {n for n in (*top, *bottom) if n not in edge_by_name}
        if unknown:
            # a declared edge rejected above already has its own violation
            if not unknown <= declared:
                violations.append(Violation(
                    "DanglingEndpoint", f"square {top}/{bottom} uses an unknown edge"))
            continue
        g, h = (edge_by_name[n] for n in top)
        hp, gp = (edge_by_name[n] for n in bottom)
        ok = True
        if not (g.color < h.color and gp.color == g.color and hp.color == h.color):
            violations.append(Violation(
                "NonComposableSquare",
                f"square {top}/{bottom} has colors ({g.color},{h.color})/({hp.color},{gp.color})"))
            ok = False
        if g.source_vertex != h.range_vertex or hp.source_vertex != gp.range_vertex:
            violations.append(Violation(
                "NonComposableSquare", f"square {top}/{bottom} sides are not composable"))
            ok = False
        elif g.range_vertex != hp.range_vertex or h.source_vertex != gp.source_vertex:
            violations.append(Violation(
                "NonComposableSquare", f"square {top}/{bottom} boundary vertices mismatch"))
            ok = False
        if not ok:
            continue
        if top in tops_seen:
            violations.append(Violation(
                "NonBijectiveSwap", f"duplicate square top {top}"))
            continue
        if bottom in bottoms_seen:
            violations.append(Violation(
                "NonBijectiveSwap", f"duplicate square bottom {bottom}"))
            continue
        tops_seen[top] = 1
        bottoms_seen[bottom] = 1
        squares.append(Square(top, bottom))

    # every composable increasing-color pair must be a top exactly once,
    # every decreasing-color pair a bottom exactly once
    for g_edge in edges:
        for h_edge in edges:
            if g_edge.source_vertex != h_edge.range_vertex:
                continue
            if g_edge.color < h_edge.color and (g_edge.name, h_edge.name) not in tops_seen:
                violations.append(Violation(
                    "IncompleteSquares",
                    f"composable pair ({g_edge.name},{h_edge.name}) has no square"))
            if g_edge.color > h_edge.color and (g_edge.name, h_edge.name) not in bottoms_seen:
                violations.append(Violation(
                    "NonBijectiveSwap",
                    f"pair ({g_edge.name},{h_edge.name}) is no square bottom"))

    if violations:
        raise ValidationError(violations)

    graph = KGraph(rank, vertex_names, edges, squares)

    if rank >= 3:
        witness = _confluence_witness(graph)
        if witness is not None:
            raise ValidationError([Violation(
                "ConfluenceFailure", f"word {witness} reduces to distinct normal forms")])
    return graph


def _confluence_witness(g: KGraph) -> Optional[tuple[str, ...]]:
    """Search all composable tricolored words for a non-confluent reduction."""

    def normal_forms(word: tuple[str, ...]) -> set[tuple[str, ...]]:
        redexes = [i for i in range(len(word) - 1)
                   if g.color(word[i]) > g.color(word[i + 1])]
        if not redexes:
            return {word}
        forms: set[tuple[str, ...]] = set()
        for i in redexes:
            pair = g._bottom_to_top.get((word[i], word[i + 1]))
            if pair is None:
                # incomplete table already reported elsewhere
                continue
            forms |= normal_forms(word[:i] + pair + word[i + 2:])
        return forms

    for combo in itertools.permutations(range(1, g.rank + 1), 3):
        for e1 in g.edges.values():
            if e1.color != combo[0]:
                continue
            for n2 in g.edges_at(e1.source_vertex, combo[1]):
                e2 = g.edges[n2]
                for n3 in g.edges_at(e2.source_vertex, combo[2]):
                    word = (e1.name, n2, n3)
                    if len(normal_forms(word)) > 1:
                        return word
    return None


# -- generators ---------------------------------------------------------------


def _omega_vertex(p: tuple[int, ...]) -> str:
    return "v" + "_".join(str(c) for c in p)


def _omega_edge(color: int, p: tuple[int, ...]) -> str:
    return f"e{color}_" + "_".join(str(c) for c in p)


def make_omega(k: int, m) -> KGraph:
    """The lattice graph on {p <= m} with one color-i edge p -> p+e_i.

    There is a unique morphism between comparable vertices, which forces the
    square set.  Infinite coordinates are rejected; only finite truncations
    are representable here.
    """
    m = Degree(m)
    if m.rank != k:
        raise KGraphError(f"degree rank {m.rank} != k = {k}")
    points = list(itertools.product(*[range(c + 1) for c in m]))
    vertices = [_omega_vertex(p) for p in points]
    edges: list[SkeletonEdge] = []
    for p in points:
        for i in range(1, k + 1):
            q = tuple(p[j] + (1 if j == i - 1 else 0) for j in range(k))
            if all(q[j] <= m[j] for j in range(k)):
                edges.append(SkeletonEdge(_omega_edge(i, p), i,
                                          _omega_vertex(p), _omega_vertex(q)))
    squares: list[Square] = []
    for p in points:
        for i in range(1, k + 1):
            for j in range(i + 1, k + 1):
                pi = tuple(p[a] + (1 if a == i - 1 else 0) for a in range(k))
                pj = tuple(p[a] + (1 if a == j - 1 else 0) for a in range(k))
                pij = tuple(pi[a] + (1 if a == j - 1 else 0) for a in range(k))
                if all(pij[a] <= m[a] for a in range(k)):
                    squares.append(Square(
                        top=(_omega_edge(i, p), _omega_edge(j, pi)),
                        bottom=(_omega_edge(j, p), _omega_edge(i, pj))))
    return KGraph(k, vertices, edges, squares)


def omega_path(g: KGraph, p, q) -> Path:
    """The unique morphism p -> q of a lattice graph built by make_omega."""
    p = tuple(p)
    q = tuple(q)
    word: list[str] = []
    at = list(p)
    for i in range(len(p)):
        while at[i] < q[i]:
            word.append(_omega_edge(i + 1, tuple(at)))
            at[i] += 1
    return g.path(word) if word else g.vertex_path(_omega_vertex(p))


def make_cycle(n: int) -> KGraph:
    """Directed cycle C_n with r(e_i) = v_i and s(e_i) = v_{i+1 mod n}."""
    if n < 1:
        raise KGraphError("cycle needs n >= 1")
    vertices = [f"v{i}" for i in range(n)]
    edges = [SkeletonEdge(f"e{i}", 1, f"v{i}", f"v{(i + 1) % n}") for i in range(n)]
    return KGraph(1, vertices, edges, [])


_LOOP_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def make_bouquet(loop_count: int) -> KGraph:
    """Single vertex with the given number of loops, named a, b, c, ..."""
    if loop_count < 1:
        raise KGraphError("bouquet needs at least one loop")
    if loop_count <= len(_LOOP_LETTERS):
        names = list(_LOOP_LETTERS[:loop_count])
    else:
        names = [f"l{i}" for i in range(loop_count)]
    edges = [SkeletonEdge(name, 1, "v", "v") for name in names]
    return KGraph(1, ["v"], edges, [])


def kgraph_to_dict(g: KGraph) -> dict:
    """Serialize back to the presentation format accepted by the loader."""
    return {
        "rank": g.rank,
        "vertices": list(g.vertices),
        "edges": [{"name": e.name, "color": e.color, "range": e.range_vertex,
                   "source": e.source_vertex}
                  for e in sorted(g.edges.values(), key=lambda e: e.name)],
        "squares": [{"top": list(sq.top), "bottom": list(sq.bottom)} for sq in g.squares],
    }
