"""Shared corpus graphs and the dict-matrix referee used across the test suite."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from kgraphkit import make_bouquet, make_cycle, make_omega, validate_presentation
from kgraphkit import repalg


def flip_presentation() -> dict:
    """Single-vertex 2-graph where the red edge flips blue letters."""
    return {
        "rank": 2,
        "vertices": ["v"],
        "edges": [
            {"name": "a", "color": 1, "range": "v", "source": "v"},
            {"name": "b", "color": 1, "range": "v", "source": "v"},
            {"name": "f", "color": 2, "range": "v", "source": "v"},
        ],
        "squares": [
            {"top": ["a", "f"], "bottom": ["f", "b"]},
            {"top": ["b", "f"], "bottom": ["f", "a"]},
        ],
    }


def twin_presentation() -> dict:
    """Single-vertex 2-graph with two edges of each color, where MCE(a, f) =
    {a.f, a.g} has two paths; its squares relabel both letters."""
    loops = [("a", 1), ("b", 1), ("f", 2), ("g", 2)]
    squares = [(("a", "f"), ("f", "a")), (("a", "g"), ("f", "b")),
               (("b", "f"), ("g", "a")), (("b", "g"), ("g", "b"))]
    return _presentation(2, ["v"], [(n, c, "v", "v") for n, c in loops], squares)


def _presentation(rank, vertices, edges, squares=()) -> dict:
    return {"rank": rank, "vertices": vertices,
            "edges": [{"name": n, "color": c, "range": r, "source": s}
                      for n, c, r, s in edges],
            "squares": [{"top": list(t), "bottom": list(b)} for t, b in squares]}


def bouquet2_cubed_presentation() -> dict:
    """bouquet2³, the product of three 2-loop bouquets: one vertex, loops
    a_i, b_i of color i, and a commuting square x_i y_j = y_j x_i for each
    pair of loops of colors i < j."""
    loops = [(f"{x}{c}", c) for c in (1, 2, 3) for x in "ab"]
    squares = [((x, y), (y, x)) for (x, i), (y, j) in itertools.combinations(loops, 2)
               if i < j]
    return _presentation(3, ["v"], [(n, c, "v", "v") for n, c in loops], squares)


def nlc_presentation(loop: bool = False) -> dict:
    """2-graph u <-e- w (color 1), u <-f- x (color 2), no squares: not locally
    convex, since s(f) = x has no color-1 edge.  With loop, a color-1 loop a
    at w makes its path category infinite."""
    edges = [("e", 1, "u", "w"), ("f", 2, "u", "x")]
    if loop:
        edges.append(("a", 1, "w", "w"))
    return _presentation(2, ["u", "w", "x"], edges)


def ladder_presentation(n: int) -> dict:
    """2-graph on a color-2 chain u0 <-f1- u1 <- ... <-fn- un with color-1 rungs
    e_i: u_i <- w_i (i < n), color-2 edges h_i: w_{i-1} <- w_i and squares
    e_i h_{i+1} = f_{i+1} e_{i+1}; not locally convex, since s(fn) = un has
    no color-1 edge."""
    edges = [(f"f{i}", 2, f"u{i - 1}", f"u{i}") for i in range(1, n + 1)]
    edges += [(f"e{i}", 1, f"u{i}", f"w{i}") for i in range(n)]
    edges += [(f"h{i}", 2, f"w{i - 1}", f"w{i}") for i in range(1, n)]
    squares = [((f"e{i}", f"h{i + 1}"), (f"f{i + 1}", f"e{i + 1}")) for i in range(n - 1)]
    vertices = [f"u{i}" for i in range(n + 1)] + [f"w{i}" for i in range(n)]
    return _presentation(2, vertices, edges, squares)


class OperatorMatrix:
    """Sparse complex matrix on a named basis as a dict (row, col) -> value:
    the referee for the array arithmetic of repalg.  Zero entries are dropped
    and the others keep the order they first appear in; integer inputs stay
    integers, so exact.
    """

    def __init__(self, basis, entries: dict):
        self.basis = basis
        self.entries = {k: v for k, v in entries.items() if v != 0}

    @classmethod
    def sum(cls, basis, terms) -> "OperatorMatrix":
        """The terms added entry by entry in order, zeros dropped at the end."""
        out: dict = {}
        for term in terms:
            for k, v in term.entries.items():
                out[k] = out.get(k, 0) + v
        return cls(basis, out)

    def __add__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        return OperatorMatrix.sum(self.basis, [self, other])

    def __mul__(self, scalar) -> "OperatorMatrix":
        return OperatorMatrix(self.basis, {k: v * scalar for k, v in self.entries.items()})

    def __matmul__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        rows: dict = {}
        for (i, j), v in other.entries.items():
            rows.setdefault(i, []).append((j, v))
        out: dict = {}
        for (i, j), a in self.entries.items():
            for k, b in rows.get(j, ()):
                out[(i, k)] = out.get((i, k), 0) + a * b
        return OperatorMatrix(self.basis, out)

    def adjoint(self) -> "OperatorMatrix":
        return OperatorMatrix(self.basis, {(j, i): v.conjugate()
                                           for (i, j), v in self.entries.items()})

    def __eq__(self, other) -> bool:
        return (isinstance(other, OperatorMatrix) and self.basis is other.basis
                and self.entries == other.entries)

    def first_difference(self, other: "OperatorMatrix"):
        """Smallest (row, col) where the two matrices disagree, or None."""
        a, b = self.entries, other.entries
        for k in sorted(set(a) | set(b)):
            if a.get(k, 0) != b.get(k, 0):
                return (self.basis.labels[k[0]], self.basis.labels[k[1]],
                        a.get(k, 0), b.get(k, 0))
        return None

    def to_dense(self) -> np.ndarray:
        n = len(self.basis)
        out = np.zeros((n, n), dtype=complex)
        for (i, j), v in self.entries.items():
            out[i, j] = v
        return out


def as_matrix(basis, t):
    """The 0/1 matrix of an index array (entry (t[j], j)) or of a mask (entry
    (j, j)), built entry by entry, j ascending: the sparse-product referee's
    view of a generator or projection."""
    if t.dtype == bool:
        return OperatorMatrix(basis, {(j, j): 1 for j in range(len(t)) if t[j]})
    return OperatorMatrix(basis, {(int(i), j): 1 for j, i in enumerate(t) if i >= 0})


def as_referee(m):
    """The referee's view of a SparseSum, whose entries must be distinct and
    nonzero; the entry order is kept."""
    assert len(m.rows) == len(m.cols) == len(m.vals)
    entries = dict(zip(zip(m.rows.tolist(), m.cols.tolist()), m.vals.tolist()))
    assert len(entries) == len(m.vals) and all(entries.values())
    return OperatorMatrix(m.basis, entries)


def referee_evaluate(fam, element):
    """sum a t_mu t_nu* as dict products of the referee's generator matrices,
    the terms added in sorted_items order."""
    def gen(lam):
        return as_matrix(fam.basis, fam.generator(lam))

    return OperatorMatrix.sum(fam.basis, [(gen(mu) @ gen(nu).adjoint()) * a
                                          for (mu, nu), a in element.sorted_items()])


def stored_row(fam, lam, adjoint=False):
    """The writable store row of t_lam, or of t_lam*, past its -1 column,
    built first if missing.  Every 0/1 check reads the store, so a tamper
    written here reaches them all; q_lam is the domain of t_lam*'s row."""
    (fam.adjoint if adjoint else fam.generator)(lam)
    return fam._store[fam._rows[lam, adjoint], 1:]


def tamper_stored(monkeypatch, change):
    """Every row any family stores from now on passes through change(fam,
    lam, adjoint, t), which returns the row to store in place of t."""
    real = repalg.IsometryFamily._stored

    def stored(fam, key, build):
        return real(fam, key, lambda: change(fam, *key, build()))

    monkeypatch.setattr(repalg.IsometryFamily, "_stored", stored)


def weak_lower_end(monkeypatch):
    """Make both lower ends of claim1 report 0: the diagonal end, as an element
    with a small diagonal would, and operator_norm's, as a Ritz vector far
    from the top singular vector would; the upper end stays the proven one."""
    real_norm, real_diagonal = repalg.operator_norm, repalg.diagonal_lower_end

    monkeypatch.setattr(repalg, "operator_norm", lambda m: {**real_norm(m), "lower": 0.0})
    monkeypatch.setattr(repalg, "diagonal_lower_end",
                        lambda fam, element: {**real_diagonal(fam, element), "lower": 0.0})


@pytest.fixture(scope="session")
def c3():
    return make_cycle(3)


@pytest.fixture(scope="session")
def bouquet2():
    return make_bouquet(2)


@pytest.fixture(scope="session")
def flip():
    return validate_presentation(flip_presentation())


@pytest.fixture(scope="session")
def omega22():
    return make_omega(2, (2, 2))


@pytest.fixture(scope="session")
def omega222():
    return make_omega(3, (2, 2, 2))


@pytest.fixture(scope="session")
def bouquet2_cubed():
    return validate_presentation(bouquet2_cubed_presentation())


@pytest.fixture(scope="session")
def nlc():
    return validate_presentation(nlc_presentation())


@pytest.fixture(scope="session")
def ladder2():
    return validate_presentation(ladder_presentation(2))


@pytest.fixture(scope="session")
def ladder3():
    return validate_presentation(ladder_presentation(3))


@pytest.fixture(scope="session")
def twin():
    return validate_presentation(twin_presentation())


@pytest.fixture(scope="session")
def corpus(c3, bouquet2, flip, omega22, omega222):
    return {"c3": c3, "bouquet2": bouquet2, "flip": flip,
            "omega22": omega22, "omega222": omega222}
