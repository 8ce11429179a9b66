"""Shared corpus graphs used across the test suite."""

from __future__ import annotations

import pytest

from kgraphkit import make_bouquet, make_cycle, make_omega, validate_presentation
from kgraphkit import repalg
from kgraphkit.repalg import OperatorMatrix


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


def as_matrix(basis, t):
    """The 0/1 matrix of an index array (entry (t[j], j)) or of a mask (entry
    (j, j)), built entry by entry, j ascending: the sparse-product referee's
    view of a generator or projection."""
    if t.dtype == bool:
        return OperatorMatrix(basis, {(j, j): 1 for j in range(len(t)) if t[j]})
    return OperatorMatrix(basis, {(int(i), j): 1 for j, i in enumerate(t) if i >= 0})


def weak_lower_end(monkeypatch):
    """Make operator_norm report 0 as its lower end, as a Ritz vector far from
    the top singular vector would; the upper end stays the proven one."""
    real = repalg.operator_norm
    monkeypatch.setattr(repalg, "operator_norm",
                        lambda m, **kw: {**real(m, **kw), "lower": 0.0})


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
def corpus(c3, bouquet2, flip, omega22, omega222):
    return {"c3": c3, "bouquet2": bouquet2, "flip": flip,
            "omega22": omega22, "omega222": omega222}
